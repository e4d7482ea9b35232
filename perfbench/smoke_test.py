#!/usr/bin/env python3
"""Smoke test for the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny size through the whole
pipeline (build, generate, check, judge the verdicts, report), untraced
and traced, and checks the result line against the schema: exactly the
keys correct/attempted/failed/metrics, every metric BENCHMARK.json
names with its unit, and no verdict errors. Then checks that star's
seeded thread/lock permutation leaves its status and violation index
unchanged. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402

TINY = 20_000


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run_bench(workload, trace, seed=1):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--events", str(TINY)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        fail("%s trace=%d exited %d" % (workload, trace, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_schema(result, expected, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (label, sorted(result)))
    if result["failed"] != 0 or result["correct"] is not True:
        fail("%s: %d of %d verdicts wrong" % (label, result["failed"],
                                             result["attempted"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s: attempted %r" % (label, result["attempted"]))
    got = result["metrics"]
    if set(got) != set(expected):
        fail("%s: metrics differ: missing %s, extra %s" % (
            label, sorted(set(expected) - set(got)),
            sorted(set(got) - set(expected))))
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected[name]:
            fail("%s: metric %s is %r" % (label, name, m))
        if not isinstance(m["value"], (int, float)):
            fail("%s: metric %s value %r" % (label, name, m["value"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for w in spec["workloads"]:
        for trace, expected in ((0, e2e), (1, layers)):
            label = "%s trace=%d" % (w["name"], trace)
            check_schema(run_bench(w["name"], trace), expected, label)
            print("ok  " + label)

    # Star's seed only permutes thread and lock ids: the verdict, its
    # position and the status must not move.
    seen = set()
    for seed in (1, 2, 3):
        path, truth = run.trace_file("star", seed, TINY)
        rec = run.check(path, traced=False)
        if not run.verdict_ok(rec, truth):
            fail("star seed %d: verdict %r" % (seed, rec))
        seen.add((rec["status"], rec["index"]))
    if len(seen) != 1:
        fail("star permutation moved the verdict: %s" % sorted(seen))
    print("ok  star permutation keeps %s" % (seen.pop(),))


if __name__ == "__main__":
    main()
