#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload dense-scalar --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (the detector library, the auto-instrumented kernel twins and the
spd3_bench binary) into .bench_build/; later calls only re-check the build.
The binary's output passes through, and the last line of stdout is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (its spans go to .bench_build/spans/). Extra spd3_bench flags
(--size tiny, --wrong-verdict) are passed through for the self-test.
Exits non-zero, without a result line, when the sources are missing, the
build fails, an environment override would change the measured program, or
the run does not finish in time.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "spd3_bench")
BUILD_TYPE = "RelWithDebInfo"  # the top-level CMakeLists.txt default
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "--target", "spd3_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["dense-scalar", "dense-range", "service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["tiny", "full"], default="full")
    ap.add_argument("--wrong-verdict", action="store_true")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.tsv" % (args.workload, args.seed))]
    if args.wrong_verdict:
        cmd.append("--wrong-verdict")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("spd3_bench did not finish within %d s" % RUN_TIMEOUT_S, 4)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail("spd3_bench exited with code %d" % r.returncode, r.returncode or 5)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(r.stdout)
        fail("spd3_bench printed no result line", 5)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 5)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
