#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size through run.py and
asserts that
  - with --trace 0 every end_to_end metric prints with its unit, the checks
    pass, and pass_rate is 1;
  - with --trace 1 every per_layer metric prints with its unit;
  - with --wrong-verdict (the harness disbelieves every seeded-race
    verdict) failed > 0, so the fail rate rises above 0;
  - with a program override such as SPD3_SIMD set, the run refuses: non-zero
    exit and no result line.
Exits 0 when all hold; prints each failure and exits 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, trace, extra=(), env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", SECONDS, "--trace",
           str(trace), "--size", "tiny"] + list(extra)
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, env=env)
    lines = r.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return r.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = run(wl, trace)
            expect(code == 0 and res is not None,
                   "%s trace=%d: exit 0 with a result" % (wl, trace))
            if res is None:
                continue
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1,
                   "%s trace=%d: every check passes" % (wl, trace))
            got = res["metrics"]
            for m in spec[key]:
                v = got.get(m["name"])
                expect(v is not None and v.get("unit") == m["unit"]
                       and isinstance(v.get("value"), (int, float)),
                       "%s trace=%d: %s prints in %s"
                       % (wl, trace, m["name"], m["unit"]))
            if trace == 0:
                expect(got.get("pass_rate", {}).get("value") == 1,
                       "%s: pass_rate is 1" % wl)
            else:
                expect(got.get("obs.events.w1", {}).get("value") == 0,
                       "%s: obs.events is 0" % wl)

        code, res = run(wl, 0, ["--wrong-verdict"])
        expect(res is not None and res["failed"] > 0 and not res["correct"]
               and res["metrics"]["pass_rate"]["value"] < 1,
               "%s: a wrong verdict drives the fail rate above 0" % wl)

    env = dict(os.environ, SPD3_SIMD="scalar")
    code, res = run(spec["workloads"][0]["name"], 0, env=env)
    expect(code != 0 and res is None,
           "an override of the measured program refuses the run")

    if problems:
        print("%d self-test failure(s)" % len(problems))
        sys.exit(1)
    print("self-test passed")


if __name__ == "__main__":
    main()
