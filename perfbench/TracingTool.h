//===- perfbench/TracingTool.h - Forwarding tool that traces a detector -===//
//
// Part of the SPD3 reproduction (PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A detector::Tool that forwards every event to an inner tool and records,
/// from outside the detector, what each call cost. Used only by the
/// benchmark's traced run; the untimed end-to-end runs install the inner
/// tool directly.
///
/// Per worker thread it keeps
///   - an exact count of every event kind (and of elements for range
///     events), and
///   - the steady_clock time of a sample of calls: 1 in MemEvery scalar
///     reads and writes, 1 in OtherEvery task, finish and registration
///     events, and every range event (they are few and long, and their
///     sizes vary too much for a sample to estimate their total cost);
///   - spans {kind, start, end, parent, elems} for the sampled calls (1 in
///     MemEvery range events); parent is the id of the kernel execution or
///     request the call belongs to.
/// Both live in single-writer per-thread slots, so tracing adds no shared
/// read-modify-write on the event path. Slots are read only after
/// Runtime::run returns, which joins every worker.
///
//===----------------------------------------------------------------------===//

#ifndef SPD3_PERFBENCH_TRACINGTOOL_H
#define SPD3_PERFBENCH_TRACINGTOOL_H

#include "detector/Tool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

namespace spd3::perfbench {

/// Event kinds the tracer counts and times, memory events first. Names are
/// the per-layer metric stems (detector.<name>.*).
enum class Ev : uint8_t {
  Read,
  Write,
  ReadRange,
  WriteRange,
  TaskCreate,
  TaskStart,
  TaskEnd,
  FinishStart,
  FinishEnd,
  Register,
  Unregister,
  Count
};
constexpr size_t kNumEv = static_cast<size_t>(Ev::Count);

inline const char *evName(Ev E) {
  static const char *const Names[kNumEv] = {
      "read",         "write",      "read_range", "write_range",
      "task_create",  "task_start", "task_end",   "finish_start",
      "finish_end",   "register",   "unregister"};
  return Names[static_cast<size_t>(E)];
}

/// Nanoseconds on the steady clock.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  uint64_t Start;
  uint64_t End;
  uint64_t Parent;
  uint64_t Elems;
  uint32_t Worker;
  Ev Kind;
};

class TracingTool final : public detector::Tool {
public:
  /// Sample one call in \p MemEvery memory events and one in \p OtherEvery
  /// other events, counted per event kind and thread from a pseudo-random
  /// start (always sampling the first call would over-sample cold ones).
  /// Sampled calls are timed and kept as spans; range events are timed
  /// whether sampled or not.
  TracingTool(detector::Tool &Inner, unsigned MemEvery, unsigned OtherEvery)
      : Inner(Inner), MemEvery(MemEvery), OtherEvery(OtherEvery),
        Id(nextId()) {}

  TracingTool(const TracingTool &) = delete;
  TracingTool &operator=(const TracingTool &) = delete;

  const char *name() const override { return Inner.name(); }

  /// Parent id stamped on spans recorded from now on.
  void setParent(uint64_t P) { Parent.store(P, std::memory_order_relaxed); }

  struct Totals {
    std::array<uint64_t, kNumEv> Calls{};
    std::array<uint64_t, kNumEv> Elems{};
    /// Over the timed calls only.
    std::array<uint64_t, kNumEv> TimedCalls{};
    std::array<uint64_t, kNumEv> TimedElems{};
    std::array<uint64_t, kNumEv> TimedNs{};
  };
  /// Sum of the per-thread counters. Call only while no run is active.
  Totals totals() const {
    Totals T;
    unsigned Used = std::min<unsigned>(NextSlot.load(), kMaxSlots);
    for (unsigned I = 0; I < Used; ++I)
      for (size_t E = 0; E < kNumEv; ++E) {
        T.Calls[E] += Slots[I].Calls[E];
        T.Elems[E] += Slots[I].Elems[E];
        T.TimedCalls[E] += Slots[I].TimedCalls[E];
        T.TimedElems[E] += Slots[I].TimedElems[E];
        T.TimedNs[E] += Slots[I].TimedNs[E];
      }
    return T;
  }
  /// Every recorded span. Call only while no run is active.
  template <class Fn> void forEachSpan(Fn &&F) const {
    unsigned Used = std::min<unsigned>(NextSlot.load(), kMaxSlots);
    for (unsigned I = 0; I < Used; ++I)
      for (const Span &S : Slots[I].Spans)
        F(S);
  }

  void onRunStart(rt::Task &Root) override { Inner.onRunStart(Root); }
  void onRunEnd(rt::Task &Root) override { Inner.onRunEnd(Root); }
  void onTaskCreate(rt::Task &P, rt::Task &C) override {
    timed(Ev::TaskCreate, 0, [&] { Inner.onTaskCreate(P, C); });
  }
  void onTaskStart(rt::Task &T) override {
    timed(Ev::TaskStart, 0, [&] { Inner.onTaskStart(T); });
  }
  void onTaskEnd(rt::Task &T) override {
    timed(Ev::TaskEnd, 0, [&] { Inner.onTaskEnd(T); });
  }
  void onFinishStart(rt::Task &T, rt::FinishRecord &F) override {
    timed(Ev::FinishStart, 0, [&] { Inner.onFinishStart(T, F); });
  }
  void onFinishEnd(rt::Task &T, rt::FinishRecord &F) override {
    timed(Ev::FinishEnd, 0, [&] { Inner.onFinishEnd(T, F); });
  }
  void onRead(rt::Task &T, const void *A, uint32_t S) override {
    timed(Ev::Read, 1, [&] { Inner.onRead(T, A, S); });
  }
  void onWrite(rt::Task &T, const void *A, uint32_t S) override {
    timed(Ev::Write, 1, [&] { Inner.onWrite(T, A, S); });
  }
  void onReadRange(rt::Task &T, const void *A, size_t N,
                   uint32_t S) override {
    timed(Ev::ReadRange, N, [&] { Inner.onReadRange(T, A, N, S); });
  }
  void onWriteRange(rt::Task &T, const void *A, size_t N,
                    uint32_t S) override {
    timed(Ev::WriteRange, N, [&] { Inner.onWriteRange(T, A, N, S); });
  }
  void onRegisterRange(const void *B, size_t N, uint32_t S) override {
    timed(Ev::Register, N, [&] { Inner.onRegisterRange(B, N, S); });
  }
  void onUnregisterRange(const void *B) override {
    timed(Ev::Unregister, 0, [&] { Inner.onUnregisterRange(B); });
  }
  void onLockAcquire(rt::Task &T, const void *L) override {
    Inner.onLockAcquire(T, L);
  }
  void onLockRelease(rt::Task &T, const void *L) override {
    Inner.onLockRelease(T, L);
  }
  size_t memoryBytes() const override { return Inner.memoryBytes(); }
  size_t peakMemoryBytes() const override { return Inner.peakMemoryBytes(); }
  bool requiresSequential() const override {
    return Inner.requiresSequential();
  }

private:
  /// Threads that may call one tracer; one more aborts the run. Far above
  /// the benchmark's worker count (at most 4 plus the calling thread).
  static constexpr unsigned kMaxSlots = 64;

  struct alignas(64) Slot {
    std::array<uint64_t, kNumEv> Calls{};
    std::array<uint64_t, kNumEv> Elems{};
    std::array<uint64_t, kNumEv> TimedCalls{};
    std::array<uint64_t, kNumEv> TimedElems{};
    std::array<uint64_t, kNumEv> TimedNs{};
    std::array<uint32_t, kNumEv> Countdown{};
    std::vector<Span> Spans;
    uint32_t Worker = 0;
  };

  static uint64_t nextId() {
    static std::atomic<uint64_t> Ids{1};
    return Ids.fetch_add(1, std::memory_order_relaxed);
  }

  /// The calling thread's slot. The (tracer id, slot) pair is cached per
  /// thread, so claiming costs one shared increment per thread per tracer.
  Slot &mine() {
    struct Cache {
      uint64_t Owner = 0;
      Slot *S = nullptr;
    };
    thread_local Cache C;
    if (C.Owner != Id) {
      unsigned I = NextSlot.fetch_add(1, std::memory_order_relaxed);
      if (I >= kMaxSlots)
        std::abort();
      C.S = &Slots[I];
      C.S->Worker = I;
      uint64_t H = Id * 0x9e3779b97f4a7c15ULL + I;
      for (size_t K = 0; K < kNumEv; ++K) {
        H ^= H >> 31;
        H *= 0xbf58476d1ce4e5b9ULL;
        C.S->Countdown[K] = static_cast<uint32_t>(H % every(K));
      }
      C.Owner = Id;
    }
    return *C.S;
  }

  unsigned every(size_t K) const {
    return K <= static_cast<size_t>(Ev::WriteRange) ? MemEvery : OtherEvery;
  }

  template <class Fn> void timed(Ev E, uint64_t Elems, Fn &&Forward) {
    Slot &S = mine();
    size_t K = static_cast<size_t>(E);
    ++S.Calls[K];
    S.Elems[K] += Elems;
    bool Sampled = S.Countdown[K] == 0;
    S.Countdown[K] = Sampled ? every(K) - 1 : S.Countdown[K] - 1;
    if (!Sampled && E != Ev::ReadRange && E != Ev::WriteRange) {
      Forward();
      return;
    }
    uint64_t T0 = nowNs();
    Forward();
    uint64_t T1 = nowNs();
    ++S.TimedCalls[K];
    S.TimedElems[K] += Elems;
    S.TimedNs[K] += T1 - T0;
    if (Sampled)
      S.Spans.push_back(Span{T0, T1, Parent.load(std::memory_order_relaxed),
                             Elems, S.Worker, E});
  }

  detector::Tool &Inner;
  const unsigned MemEvery;
  const unsigned OtherEvery;
  const uint64_t Id;
  std::atomic<uint64_t> Parent{0};
  std::atomic<unsigned> NextSlot{0};
  std::unique_ptr<Slot[]> Slots{new Slot[kMaxSlots]};
};

} // namespace spd3::perfbench

#endif // SPD3_PERFBENCH_TRACINGTOOL_H
