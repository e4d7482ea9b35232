/**
 * @file
 * Experiment E7 — microbenchmarks backing Theorem 4's cost model: every
 * non-end event costs O(|Thr|) (one vector-clock comparison + join), and
 * end events cost O(|Thr| + L + V') where V' is the update-set size.
 *
 * Two parts:
 *
 *  1. A standalone kernel comparison, ClockBank arena kernels vs. the
 *     scalar VectorClock baseline, swept over clock dimensions. The sweep
 *     mimics the engines' hot loops (end-event propagation: join/compare
 *     one clock against a whole family), so it exercises the contiguous
 *     layout, not just a single cached pair. It ends with an
 *     engine-start row: each engine constructed, run on 5 events and
 *     destroyed, in ns per round, which is the fixed cost that dominates
 *     short traces and the exhaustive differential suite. Results are
 *     written to BENCH_vc_ops.json (override with --json PATH) for the
 *     perf trajectory.
 *
 *  2. The usual google-benchmark suite; run with --benchmark_filter=...
 *     as usual. Pass --no-gbench to skip it.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/patterns.hpp"
#include "support/stopwatch.hpp"
#include "vc/adaptive_clock.hpp"
#include "vc/clock_bank.hpp"
#include "vc/vector_clock.hpp"
#include "velodrome/velodrome.hpp"

namespace {

using namespace aero;

VectorClock
make_clock(size_t dim, uint32_t salt)
{
    VectorClock v(dim);
    for (size_t i = 0; i < dim; ++i)
        v.set(i, static_cast<ClockValue>((i * 2654435761u + salt) % 97));
    return v;
}

// --- Part 1: kernel comparison, bank vs. scalar ---------------------------

struct KernelResult {
    size_t dim = 0;
    double scalar_ns = 0; ///< ns per clock-pair operation, scalar layout
    double bank_ns = 0;   ///< ns per clock-pair operation, bank layout
    double
    speedup() const
    {
        return bank_ns > 0 ? scalar_ns / bank_ns : 0;
    }
};

/** Clocks per family in the sweep: large enough to stream across rows,
 *  small enough to stay cache-resident so the comparison measures the
 *  kernels (compute + per-clock overheads), not DRAM bandwidth. */
constexpr size_t kFamily = 256;

/** Repeat `body()` until it has consumed ~`min_seconds`, and take the
 *  best of three timed passes (the standard defense against scheduler
 *  noise on shared machines); return ns per inner operation given
 *  `ops_per_call`. */
template <typename F>
double
time_ns_per_op(F&& body, size_t ops_per_call, double min_seconds = 0.1)
{
    // Warm up once, then scale the repeat count to the budget.
    Stopwatch warm;
    body();
    double once = warm.elapsed_seconds();
    size_t reps = once > 0 ? static_cast<size_t>(min_seconds / once) + 1 : 64;
    double best = 0;
    for (int pass = 0; pass < 3; ++pass) {
        Stopwatch watch;
        for (size_t r = 0; r < reps; ++r)
            body();
        double total = watch.elapsed_seconds();
        if (pass == 0 || total < best)
            best = total;
    }
    return best / static_cast<double>(reps) /
           static_cast<double>(ops_per_call) * 1e9;
}

/** A family of kFamily distinct clocks in the scalar layout. */
std::vector<VectorClock>
make_family(size_t dim)
{
    std::vector<VectorClock> family;
    for (size_t i = 0; i < kFamily; ++i)
        family.push_back(make_clock(dim, static_cast<uint32_t>(i)));
    return family;
}

/** A bank with rows 0..kFamily-1 mirroring `family` (row kFamily spare). */
ClockBank
make_bank(const std::vector<VectorClock>& family, size_t dim)
{
    ClockBank bank(kFamily + 1, dim);
    for (size_t i = 0; i < kFamily; ++i) {
        for (size_t d = 0; d < dim; ++d)
            bank[i].set(d, family[i].get(d));
    }
    return bank;
}

/** Join sweep: fold every clock of a family into one accumulator — the
 *  shape of end-event propagation and of R_x/W_x maintenance. */
KernelResult
bench_join(size_t dim)
{
    KernelResult r;
    r.dim = dim;

    std::vector<VectorClock> scalar = make_family(dim);
    VectorClock sacc(dim);
    r.scalar_ns = time_ns_per_op(
        [&] {
            for (const auto& v : scalar)
                sacc.join(v);
            benchmark::DoNotOptimize(sacc);
        },
        kFamily);

    ClockBank bank = make_bank(scalar, dim);
    ClockRef bacc = bank[kFamily];
    r.bank_ns = time_ns_per_op(
        [&] {
            for (size_t i = 0; i < kFamily; ++i)
                bacc.join(bank[i]);
            benchmark::DoNotOptimize(bank);
        },
        kFamily);
    return r;
}

/** Leq sweep: compare one clock against a whole family. The probe clock
 *  is below every family member, so neither implementation can take an
 *  early exit — this measures full-scan comparison throughput. */
KernelResult
bench_leq(size_t dim)
{
    KernelResult r;
    r.dim = dim;

    std::vector<VectorClock> scalar = make_family(dim);
    for (auto& v : scalar) {
        for (size_t d = 0; d < dim; ++d)
            v.set(d, v.get(d) + 100); // keep the probe below the family
    }
    VectorClock sprobe = make_clock(dim, 7);
    bool sink = false;
    r.scalar_ns = time_ns_per_op(
        [&] {
            for (const auto& v : scalar)
                sink ^= sprobe.leq(v);
            benchmark::DoNotOptimize(sink);
        },
        kFamily);

    ClockBank bank = make_bank(scalar, dim);
    ClockRef bprobe = bank[kFamily];
    for (size_t d = 0; d < dim; ++d)
        bprobe.set(d, sprobe.get(d));
    r.bank_ns = time_ns_per_op(
        [&] {
            ConstClockRef probe = bank[kFamily];
            for (size_t i = 0; i < kFamily; ++i)
                sink ^= probe.leq(bank[i]);
            benchmark::DoNotOptimize(sink);
        },
        kFamily);
    return r;
}

/** join_except sweep (the hR_x update kernel). */
KernelResult
bench_join_except(size_t dim)
{
    KernelResult r;
    r.dim = dim;

    std::vector<VectorClock> scalar = make_family(dim);
    VectorClock sacc(dim);
    r.scalar_ns = time_ns_per_op(
        [&] {
            for (const auto& v : scalar)
                sacc.join_except(v, dim / 2);
            benchmark::DoNotOptimize(sacc);
        },
        kFamily);

    ClockBank bank = make_bank(scalar, dim);
    ClockRef bacc = bank[kFamily];
    r.bank_ns = time_ns_per_op(
        [&] {
            for (size_t i = 0; i < kFamily; ++i)
                bacc.join_except(bank[i], dim / 2);
            benchmark::DoNotOptimize(bank);
        },
        kFamily);
    return r;
}

/** The end-event sweep micro-kernel: one completed transaction's
 *  gate-and-join over an AdaptiveClockTable of `entries` entries, as the
 *  full-table pass vs the update-window pass (8 enrolled entries — a
 *  typical transaction footprint). The ratio is the per-end win of the
 *  update sets at that table size. */
struct SweepResult {
    size_t entries;
    size_t enrolled;
    double full_ns;   // ns per full-table end sweep
    double window_ns; // ns per update-window end sweep
    double
    speedup() const
    {
        return window_ns > 0 ? full_ns / window_ns : 0;
    }
};

SweepResult
bench_end_sweep(size_t entries)
{
    constexpr size_t kEnrolled = 8;
    constexpr ClockValue kGate = 5;
    SweepResult r;
    r.entries = entries;
    r.enrolled = kEnrolled;

    AdaptiveClockTable tbl;
    tbl.ensure_dim(8);
    ClockBank clocks(2, 8);
    clocks[0].set(0, kGate); // the ending thread's clock (pure)
    clocks[1].set(1, 3);     // a foreign writer: gates stay closed
    for (size_t i = 0; i < entries; ++i) {
        tbl.add_entry();
        tbl.assign(i, clocks[1], 1, true);
    }

    uint64_t fired = 0;
    r.full_ns = time_ns_per_op(
        [&] {
            for (size_t i = 0; i < entries; ++i)
                fired += tbl.get(i, 0) >= kGate;
            benchmark::DoNotOptimize(fired);
        },
        entries);
    r.full_ns *= static_cast<double>(entries); // per end, not per entry

    tbl.open_update_window(0, kGate);
    for (size_t i = 0; i < kEnrolled && i < entries; ++i)
        tbl.join(i, clocks[0], 0, true); // enrolls: source >= gate
    tbl.seal_update_window(0);
    const auto& set = tbl.update_entries(0);
    r.window_ns = time_ns_per_op(
        [&] {
            for (uint32_t i : set)
                fired += tbl.get(i, 0) >= kGate;
            benchmark::DoNotOptimize(fired);
        },
        1);
    return r;
}

/** A small engine's fixed cost: construct it for 2 threads, 1 variable
 *  and 1 lock, run 5 events, destroy it. The trace inflates an entry of
 *  each clock table, so every bank of the shipped engine holds a row. */
struct StartResult {
    double opt_ns;   // ns per round, AeroDromeOpt
    double basic_ns; // ns per round, AeroDromeBasic
    double velo_ns;  // ns per round, Velodrome
};

constexpr size_t kStartRounds = 20000;
constexpr int kStartRepeats = 3;

/** Median over kStartRepeats passes of kStartRounds rounds, in ns per
 *  round. */
template <typename Checker>
double
time_engine_start()
{
    const Event kTrace[] = {
        {0, 0, Op::kBegin},   {1, 0, Op::kWrite}, {0, 0, Op::kRead},
        {0, 0, Op::kRelease}, {0, 0, Op::kEnd},
    };
    double ns[kStartRepeats];
    for (double& pass : ns) {
        Stopwatch watch;
        for (size_t r = 0; r < kStartRounds; ++r) {
            Checker checker(2, 1, 1);
            for (size_t i = 0; i < 5; ++i)
                benchmark::DoNotOptimize(checker.process(kTrace[i], i));
        }
        pass = static_cast<double>(watch.elapsed_ns()) / kStartRounds;
    }
    std::sort(ns, ns + kStartRepeats);
    return ns[kStartRepeats / 2];
}

StartResult
bench_engine_start()
{
    return {time_engine_start<AeroDromeOpt>(),
            time_engine_start<AeroDromeBasic>(),
            time_engine_start<Velodrome>()};
}

/** Geometric mean of the speedups at dim >= 16 (the acceptance metric:
 *  single-dim points on a shared box are noisy; the geomean across the
 *  swept dims is the stable summary). */
double
geomean_dim16plus(const std::vector<KernelResult>& results)
{
    double log_sum = 0;
    size_t n = 0;
    for (const auto& r : results) {
        if (r.dim >= 16 && r.speedup() > 0) {
            log_sum += std::log(r.speedup());
            ++n;
        }
    }
    return n > 0 ? std::exp(log_sum / static_cast<double>(n)) : 0;
}

void
append_results(std::string& out, const char* kernel,
               const std::vector<KernelResult>& results, bool last)
{
    char buf[256];
    out += "  \"";
    out += kernel;
    out += "\": {\"per_dim\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        std::snprintf(buf, sizeof(buf),
                      "    {\"dim\": %zu, \"scalar_ns_per_op\": %.2f, "
                      "\"bank_ns_per_op\": %.2f, \"speedup\": %.2f}%s\n",
                      r.dim, r.scalar_ns, r.bank_ns, r.speedup(),
                      i + 1 < results.size() ? "," : "");
        out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "  ], \"geomean_speedup_dim16plus\": %.2f}%s\n",
                  geomean_dim16plus(results), last ? "" : ",");
    out += buf;
}

int
run_kernel_comparison(const std::string& json_path)
{
    const size_t dims[] = {4, 8, 16, 32, 64, 256};

    std::vector<KernelResult> join, leq, join_except;
    for (size_t dim : dims) {
        join.push_back(bench_join(dim));
        leq.push_back(bench_leq(dim));
        join_except.push_back(bench_join_except(dim));
    }

    std::vector<SweepResult> sweeps;
    for (size_t entries : {size_t{1000}, size_t{10000}, size_t{100000}})
        sweeps.push_back(bench_end_sweep(entries));
    const StartResult start = bench_engine_start();

    std::printf("%-14s %6s %14s %14s %9s\n", "kernel", "dim", "scalar ns/op",
                "bank ns/op", "speedup");
    auto print = [](const char* name, const std::vector<KernelResult>& rs) {
        for (const auto& r : rs) {
            std::printf("%-14s %6zu %14.2f %14.2f %8.2fx\n", name, r.dim,
                        r.scalar_ns, r.bank_ns, r.speedup());
        }
    };
    print("join", join);
    print("leq", leq);
    print("join_except", join_except);

    std::printf("\n%-14s %8s %10s %14s %14s %9s\n", "kernel", "entries",
                "enrolled", "full ns/end", "window ns/end", "speedup");
    for (const auto& s : sweeps) {
        std::printf("%-14s %8zu %10zu %14.1f %14.1f %8.0fx\n", "end_sweep",
                    s.entries, s.enrolled, s.full_ns, s.window_ns,
                    s.speedup());
    }

    std::printf("\n%-14s %12s %12s %12s %9s\n", "kernel", "opt ns",
                "basic ns", "velodrome ns", "opt/basic");
    std::printf("%-14s %12.0f %12.0f %12.0f %8.2fx\n", "engine_start",
                start.opt_ns, start.basic_ns, start.velo_ns,
                start.opt_ns / start.basic_ns);

    std::string out = "{\n";
    char buf[192];
    std::snprintf(buf, sizeof(buf), "  \"family_size\": %zu,\n", kFamily);
    out += buf;
#ifdef AERO_VC_X86_DISPATCH
    out += vck::detail::kHaveAvx2 ? "  \"simd\": \"avx2\",\n"
                                  : "  \"simd\": \"autovec\",\n";
#else
    out += "  \"simd\": \"autovec\",\n";
#endif
    append_results(out, "join", join, false);
    append_results(out, "leq", leq, false);
    append_results(out, "join_except", join_except, false);
    out += "  \"end_sweep\": {\"per_table\": [\n";
    for (size_t i = 0; i < sweeps.size(); ++i) {
        const auto& s = sweeps[i];
        std::snprintf(buf, sizeof(buf),
                      "    {\"entries\": %zu, \"enrolled\": %zu, "
                      "\"full_ns_per_end\": %.1f, "
                      "\"window_ns_per_end\": %.1f, \"speedup\": %.0f}%s\n",
                      s.entries, s.enrolled, s.full_ns, s.window_ns,
                      s.speedup(), i + 1 < sweeps.size() ? "," : "");
        out += buf;
    }
    out += "  ]},\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"engine_start\": {\"rounds\": %zu, \"repeats\": %d, "
                  "\"opt_ns_per_round\": %.0f, ",
                  kStartRounds, kStartRepeats, start.opt_ns);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"basic_ns_per_round\": %.0f, "
                  "\"velodrome_ns_per_round\": %.0f, "
                  "\"opt_over_basic\": %.2f}\n",
                  start.basic_ns, start.velo_ns,
                  start.opt_ns / start.basic_ns);
    out += buf;
    out += "}\n";

    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}

// --- Part 2: google-benchmark suite ---------------------------------------

void
BM_VcJoin(benchmark::State& state)
{
    size_t dim = static_cast<size_t>(state.range(0));
    VectorClock a = make_clock(dim, 1);
    VectorClock b = make_clock(dim, 2);
    for (auto _ : state) {
        a.join(b);
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VcJoin)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void
BM_BankJoin(benchmark::State& state)
{
    size_t dim = static_cast<size_t>(state.range(0));
    ClockBank bank(2, dim);
    VectorClock a = make_clock(dim, 1);
    VectorClock b = make_clock(dim, 2);
    for (size_t d = 0; d < dim; ++d) {
        bank[0].set(d, a.get(d));
        bank[1].set(d, b.get(d));
    }
    for (auto _ : state) {
        bank[0].join(bank[1]);
        benchmark::DoNotOptimize(bank);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BankJoin)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void
BM_VcLeq(benchmark::State& state)
{
    size_t dim = static_cast<size_t>(state.range(0));
    VectorClock a = make_clock(dim, 1);
    VectorClock b = make_clock(dim, 2);
    bool r = false;
    for (auto _ : state) {
        r ^= a.leq(b);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VcLeq)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void
BM_BankLeq(benchmark::State& state)
{
    size_t dim = static_cast<size_t>(state.range(0));
    ClockBank bank(2, dim);
    VectorClock a = make_clock(dim, 1);
    VectorClock b = make_clock(dim, 2);
    for (size_t d = 0; d < dim; ++d) {
        bank[0].set(d, a.get(d));
        bank[1].set(d, b.get(d));
    }
    bool r = false;
    for (auto _ : state) {
        r ^= ConstClockRef(bank[0]).leq(bank[1]);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BankLeq)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void
BM_VcJoinExcept(benchmark::State& state)
{
    size_t dim = static_cast<size_t>(state.range(0));
    VectorClock a = make_clock(dim, 1);
    VectorClock b = make_clock(dim, 2);
    for (auto _ : state) {
        a.join_except(b, dim / 2);
        benchmark::DoNotOptimize(a);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VcJoinExcept)->Arg(4)->Arg(64);

/** Epoch-adaptive assign: the O(1) fast path (entry stays an epoch)
 *  vs. the inflated O(dim) path, at the same dimension. The gap is the
 *  per-access win the engines see on uncontended variables. */
void
BM_AdaptiveAssignEpoch(benchmark::State& state)
{
    size_t dim = static_cast<size_t>(state.range(0));
    AdaptiveClockTable tbl;
    tbl.ensure_dim(dim);
    uint32_t i = tbl.add_entry();
    ClockBank clock(1, dim);
    clock[0].set(0, 5);
    for (auto _ : state) {
        tbl.assign(i, clock[0], 0, /*c_pure=*/true);
        benchmark::DoNotOptimize(tbl);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptiveAssignEpoch)->Arg(16)->Arg(64)->Arg(256);

void
BM_AdaptiveAssignInflated(benchmark::State& state)
{
    size_t dim = static_cast<size_t>(state.range(0));
    AdaptiveClockTable tbl;
    tbl.ensure_dim(dim);
    uint32_t i = tbl.add_entry();
    ClockBank clock(1, dim);
    VectorClock v = make_clock(dim, 3);
    for (size_t d = 0; d < dim; ++d)
        clock[0].set(d, v.get(d));
    tbl.assign(i, clock[0], 0, /*c_pure=*/false); // impure: inflates
    if (!tbl.is_inflated(i)) {
        state.SkipWithError("impure assign did not inflate the entry");
        return;
    }
    for (auto _ : state) {
        tbl.assign(i, clock[0], 0, /*c_pure=*/false);
        benchmark::DoNotOptimize(tbl);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptiveAssignInflated)->Arg(16)->Arg(64)->Arg(256);

/** join_into (C_t |_|= W_x) with an epoch entry vs. an inflated one. */
void
BM_AdaptiveJoinInto(benchmark::State& state)
{
    size_t dim = static_cast<size_t>(state.range(0));
    bool epoch = state.range(1) != 0;
    AdaptiveClockTable tbl;
    tbl.ensure_dim(dim);
    uint32_t i = tbl.add_entry();
    ClockBank clock(2, dim);
    clock[0].set(1, 7);
    // A pure source keeps epoch 7@1; the same clock passed as impure
    // inflates it into a row.
    tbl.assign(i, clock[0], 1, epoch);
    if (tbl.is_inflated(i) == epoch) {
        state.SkipWithError("entry representation does not match the arg");
        return;
    }
    ClockRef dst = clock[1];
    for (size_t d = 0; d < dim; ++d)
        dst.set(d, 3);
    uint8_t dst_pure = 0;
    for (auto _ : state) {
        tbl.join_into(dst, i, 0, dst_pure);
        benchmark::DoNotOptimize(clock);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptiveJoinInto)
    ->Args({16, 1})
    ->Args({16, 0})
    ->Args({256, 1})
    ->Args({256, 0});

/** Per-event cost of the full engine as thread count grows (Theorem 4's
 *  |Thr| factor on non-end events). */
void
BM_AeroDromePerEventThreads(benchmark::State& state)
{
    uint32_t threads = static_cast<uint32_t>(state.range(0));
    Trace t = gen::make_independent(threads, 2000, 8);
    for (auto _ : state) {
        AeroDromeOpt checker(t.num_threads(), t.num_vars(), t.num_locks());
        RunResult r = run_checker(checker, t);
        benchmark::DoNotOptimize(r.violation);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(t.size()));
}
BENCHMARK(BM_AeroDromePerEventThreads)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

/** End-event cost as the per-transaction variable footprint grows (the
 *  update-set V' factor). */
void
BM_AeroDromeEndEventFootprint(benchmark::State& state)
{
    uint32_t accesses = static_cast<uint32_t>(state.range(0));
    // Few transactions, each touching `accesses` distinct variables; the
    // trace is sized so total events stay constant across args.
    uint32_t txns = 32768 / accesses;
    Trace t = gen::make_independent(4, txns, accesses);
    for (auto _ : state) {
        AeroDromeOpt checker(t.num_threads(), t.num_vars(), t.num_locks());
        RunResult r = run_checker(checker, t);
        benchmark::DoNotOptimize(r.violation);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(t.size()));
}
BENCHMARK(BM_AeroDromeEndEventFootprint)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char** argv)
{
    std::string json_path = "BENCH_vc_ops.json";
    bool run_gbench = true;
    bool json_requested = false;
    bool gbench_flags = false;

    // Strip our flags before handing argv to google-benchmark.
    std::vector<char*> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
            json_requested = true;
        } else if (std::strcmp(argv[i], "--no-gbench") == 0) {
            run_gbench = false;
        } else {
            if (std::strncmp(argv[i], "--benchmark", 11) == 0)
                gbench_flags = true;
            passthrough.push_back(argv[i]);
        }
    }

    // --benchmark_* flags mean the user wants the gbench suite: skip the
    // ~5s kernel sweep so the recorded BENCH_vc_ops.json isn't clobbered
    // as a side effect — unless --json explicitly asked for it.
    if (json_requested || !gbench_flags) {
        int rc = run_kernel_comparison(json_path);
        if (rc != 0)
            return rc;
    }
    if (!run_gbench)
        return 0;

    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
