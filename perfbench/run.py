#!/usr/bin/env python3
"""File-backed check time and memory of the shipped default checker.

Run from the repository root:

    python3 perfbench/run.py --workload star --seed 1 --seconds 40 --trace 0

Builds perfbench/aerobench (and the checker library, with the
repository's own build flags) under .bench_build/, generates the seeded
workload trace once per (workload, seed, size), then checks it in a
closed loop, one fresh single-threaded process at a time, each followed
by one run of perfbench/hostref to gauge the host's speed, until
--seconds have passed. Times are reported at a reference host speed.
Every check's verdict is compared with the
generator's ground truth. --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced checks and reports the
per-layer split. The last line of stdout is one JSON object; the full
record of the run (host, ground truth, every check) is written to
.bench_build/results/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "cmake", "aerobench")
HOSTREF = os.path.join(BUILD_DIR, "cmake", "hostref")

# Times are reported at the host speed where hostref's fast tail (FAST_PCT)
# is this long, a round figure near it on a 4-vCPU KVM Xeon. See "Host
# speed" in README.md.
REF_S = 0.030
FAST_PCT = 10

# Events per generated trace, fixed so events_per_s is at a stated size.
WORKLOADS = {"star": 2_000_000, "naive": 2_000_000, "rolling": 750_000}

OPS = ("read", "write", "acquire", "release", "fork", "join", "begin", "end")
KINDS = {"access": ("read", "write"), "begin": ("begin",), "end": ("end",),
         "sync": ("acquire", "release"), "forkjoin": ("fork", "join")}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then an incremental build on every run."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmake_dir = os.path.dirname(EXE)
    logfile = os.path.join(BUILD_DIR, "build.log")
    steps = []
    # Only a configure that succeeded leaves a build file behind.
    if not any(os.path.exists(os.path.join(cmake_dir, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                with open(logfile) as f:
                    log(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def run_program(args):
    """Run to completion; return (exit code, stdout, ru_maxrss in KiB)."""
    p = subprocess.Popen(args, stdout=subprocess.PIPE)
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out.decode(), usage.ru_maxrss


def trace_file(workload, seed, events):
    """The cached trace and its ground truth, generated on first use."""
    tdir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(tdir, exist_ok=True)
    stem = os.path.join(tdir, "%s-seed%d-n%d" % (workload, seed, events))
    path, truth_path = stem + ".bin", stem + ".truth.json"
    if not os.path.exists(truth_path):
        tmp = path + ".tmp"
        rc, out, _ = run_program(
            [EXE, "gen", workload, str(seed), str(events), tmp])
        if rc != 0:
            raise BenchError("trace generation failed (exit %d)" % rc)
        os.replace(tmp, path)
        with open(truth_path + ".tmp", "w") as f:
            f.write(out)
        os.replace(truth_path + ".tmp", truth_path)
    with open(truth_path) as f:
        return path, json.load(f)


def check(path, traced):
    """One checking process; check_ns/setup_ns are measured from just
    before the spawn, so they include exec and start-up."""
    spawn_ns = time.monotonic_ns()
    args = [EXE, "check", path, str(spawn_ns)]
    rc, out, rss_kb = run_program(args + (["--trace"] if traced else []))
    try:
        rec = json.loads(out)
    except ValueError:
        rec = {"status": "no-output"}
    # hwm_kb (the check's own VmHWM) is the memory figure. wait4's
    # ru_maxrss is kept only as a cross-check: exec carries the parent's
    # high-water mark into it, so it never reads below this driver's RSS.
    rec.update(exit=rc, wait4_maxrss_kb=rss_kb, traced=traced)
    return rec


def hostref():
    """One run of the fixed reference work, in ns from just before the
    spawn, as a check is timed."""
    rc, out, _ = run_program([HOSTREF, str(time.monotonic_ns())])
    if rc != 0:
        raise BenchError("hostref failed (exit %d)" % rc)
    return json.loads(out)["ref_ns"]


def verdict_ok(rec, truth):
    """Status, verdict and violation position against the ground truth."""
    if rec["exit"] != 0:
        return False
    if truth["expect"] == "ok":
        return rec["status"] == "ok" and rec["events"] == truth["events"]
    return (rec["status"] == "violation"
            and truth["min_index"] <= rec["index"] < truth["events"]
            and rec["events"] == rec["index"] + 1
            and (not truth["violators"] or rec["thread"] in truth["violators"]))


def host_label():
    rc, out, _ = run_program([EXE, "host"])
    if rc != 0:
        raise BenchError("aerobench host failed")
    host = json.loads(out)
    nproc = len(os.sched_getaffinity(0))
    load1 = os.getloadavg()[0]
    host.update(nproc=nproc, load1=round(load1, 2))
    host["flag"] = ("1-core" if nproc == 1 else
                    "oversubscribed" if load1 >= nproc else "ok")
    return host


def pct(xs, p):
    """p-th percentile (linear interpolation between samples)."""
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def metric(value, unit):
    return {"value": value, "unit": unit}


def host_factor(recs):
    """How much slower than the reference speed the host ran over these
    checks: the fast tail of the hostref times around them, over REF_S."""
    return pct([r["ref_ns"] for r in recs], FAST_PCT) / 1e9 / REF_S


def at_ref(recs, field):
    """The fast tail of a time field over these checks, in seconds at the
    reference host speed."""
    return pct([r[field] for r in recs], FAST_PCT) / 1e9 / host_factor(recs)


def end_to_end(untraced):
    check_s = at_ref(untraced, "check_ns")
    events = statistics.median(r["events"] for r in untraced)
    return {
        "check_s": metric(check_s, "s"),
        "events_per_s": metric(events / check_s, "1/s"),
        "setup_s": metric(at_ref(untraced, "setup_ns"), "s"),
        "peak_rss_mb": metric(
            statistics.median(r["hwm_kb"] / 1024.0 for r in untraced), "MB"),
    }


def per_layer(traced, untraced, bytes_per_event):
    """Layer self times from the traced checks (sums over all of them),
    plus the tracing overhead against the interleaved untraced ones.
    Block latencies come from the blocks without per-event spans."""
    events = sum(r["events"] for r in traced)
    timer = statistics.median(r["timer_ns"] for r in traced)

    def timed(field, ops):
        return sum(r[field][op] for r in traced for op in ops)

    def mean_ns(kind):
        # A span carries one timer read; the tracing pays for it.
        n = timed("timed", KINDS[kind])
        return timed("timed_ns", KINDS[kind]) / n - timer if n else 0.0

    # Per event of a timed block: the block's processing time beyond
    # its process() spans, less the one timer read outside each span.
    timed_events = timed("timed", OPS)
    loop_self = (sum(r["timed_block_ns"] - r["timed_process_ns"]
                     for r in traced) - timed_events * timer)
    decode = sum(r["decode_ns"] for r in traced)
    wall = sum(r["check_ns"] for r in traced)
    covered = sum(r["construct_ns"] + r["open_ns"] + r["reserve_ns"]
                  + r["loop_ns"] for r in traced)
    blocks_ns = [b for r in traced for b in r["blocks_ns"]] or [0]
    last = traced[-1]
    counters = last["counters"]
    fast, vec = counters["epoch_fast_ops"], counters["vector_ops"]
    fast_traced = at_ref(traced, "check_ns")
    fast_untraced = at_ref(untraced, "check_ns")

    m = {
        "trace.open_ms": metric(
            statistics.median(r["open_ns"] / 1e6 for r in traced), "ms"),
        "trace.decode_ns_per_event": metric(decode / events, "ns/event"),
        "trace.bytes_per_event": metric(bytes_per_event, "B/event"),
        "analysis.loop_self_ns_per_event": metric(
            loop_self / timed_events if timed_events else 0.0, "ns/event"),
        "analysis.block_p50_us": metric(pct(blocks_ns, 50) / 1e3, "us"),
        "analysis.block_p99_us": metric(pct(blocks_ns, 99) / 1e3, "us"),
        "analysis.block_max_ms": metric(max(blocks_ns) / 1e6, "ms"),
        "aerodrome.reserve_ms": metric(
            statistics.median(r["reserve_ns"] / 1e6 for r in traced), "ms"),
    }
    for kind in KINDS:
        m["aerodrome.%s_ns" % kind] = metric(mean_ns(kind), "ns")
    for op in OPS:
        m["aerodrome.events." + op] = metric(last["ops"][op], "count")
    m["aerodrome.state_bytes"] = metric(last["state_bytes"], "bytes")
    m["vc.epoch_fast_ratio"] = metric(
        fast / (fast + vec) if fast + vec else 0.0, "ratio")
    for key in ("inflations", "joins", "comparisons", "gc_sweeps",
                "gc_reclaimed", "slots_recycled"):
        m["vc." + key] = metric(counters[key], "count")
    m["tracing.overhead_pct"] = metric(
        100.0 * (fast_traced - fast_untraced) / fast_untraced, "%")
    m["tracing.unaccounted_pct"] = metric(100.0 * (wall - covered) / wall,
                                          "%")
    # Layer times, like the end-to-end ones, at the reference host speed.
    scale = 1.0 / host_factor(traced)
    for v in m.values():
        if v["unit"] in ("ms", "us", "ns", "ns/event"):
            v["value"] *= scale
    return m


def report(workload, truth, host, untraced, traced, attempted, failed,
           metrics, elapsed):
    print("host: nproc=%d simd=%s compiler=%s build=%s load1=%.2f flag=%s"
          % (host["nproc"], host["simd"], host["compiler"],
             host["build_type"], host["load1"], host["flag"]))
    print("workload %s: %d events (seed %d), %d untraced + %d traced checks"
          " in %.1f s" % (workload, truth["events"], truth["seed"],
                          len(untraced), len(traced), elapsed))
    wall = [r["check_ns"] / 1e9 for r in untraced]
    print("host speed: hostref p%d %.2f ms = %.3f x REF_S; untraced check"
          " wall time median %.6g s" % (
              FAST_PCT, host_factor(untraced) * REF_S * 1e3,
              host_factor(untraced), statistics.median(wall)))
    for name, m in metrics.items():
        print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    if not traced and len(untraced) >= 20:
        # The slow tail is too noisy on a shared box to gate on
        # (README.md), so it is printed, not part of the JSON result: the
        # highest whole percentile of the wall times that leaves at least
        # ten checks beyond it.
        p = int(100 * (1 - 10 / len(wall)))
        tail = pct(wall, p)
        print("  %-34s %14.6g s (%d checks, %d beyond it)"
              % ("wall_check_s_p%d" % p, tail, len(wall),
                 sum(x > tail for x in wall)))
    print("  %-34s %14.6g share (%d of %d checks)"
          % ("verdict_errors", failed / attempted, failed, attempted))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--events", type=int, default=0,
                    help="trace size override (smoke tests)")
    args = ap.parse_args()

    build()
    host = host_label()
    events = args.events or WORKLOADS[args.workload]
    path, truth = trace_file(args.workload, args.seed, events)
    trace_bytes = os.path.getsize(path)

    # Warm-up: page the trace in and settle the allocator; judged for its
    # verdict, not timed.
    records = [check(path, False)]
    refs = [hostref()]
    start = time.monotonic()
    deadline = start + args.seconds
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        rec = check(path, traced)
        # The host's speed around this check: the hostref runs just
        # before and just after it.
        refs.append(hostref())
        rec["ref_ns"] = (refs[-2] + refs[-1]) / 2
        records.append(rec)
        i += 1
        if time.monotonic() >= deadline and (not args.trace or i >= 2):
            break
    elapsed = time.monotonic() - start

    failed = sum(not verdict_ok(r, truth) for r in records)
    attempted = len(records)
    timed = [r for r in records[1:]
             if r["exit"] == 0 and "check_ns" in r and r.get("hwm_kb")]
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not untraced or (args.trace and not traced):
        raise BenchError("no check completed")
    metrics = (per_layer(traced, untraced, trace_bytes / truth["events"])
               if args.trace
               else end_to_end(untraced))

    report(args.workload, truth, host, untraced, traced, attempted, failed,
           metrics, elapsed)
    rdir = os.path.join(BUILD_DIR, "results")
    os.makedirs(rdir, exist_ok=True)
    with open(os.path.join(rdir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump({"host": host, "truth": truth, "metrics": metrics,
                   "checks": records}, f)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
