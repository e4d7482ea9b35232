/**
 * @file
 * Experiment E7 — the vector-clock kernel ledger behind Theorem 4's cost
 * model: every non-end event costs O(|Thr|) (one vector-clock comparison
 * + join), and end events cost O(|Thr| + L + V'), where L is the number
 * of locks released so far and V' the update-set size.
 *
 * One timing helper (measure) times every row: a warm-up that calibrates
 * the pass length, then kPasses equal passes, reported as the median,
 * p25 and p75 of ns per operation. Each row times one job two ways, the
 * two passes interleaved, and reports the ratio of the medians:
 *
 *  - join, leq, join_except: the ClockBank arena kernels vs. the scalar
 *    VectorClock baseline, swept over clock dimensions. Each sweep folds
 *    or compares one clock against a whole family, the shape of the
 *    engines' end-event propagation, so it exercises the contiguous
 *    layout, not just a single cached pair.
 *  - adaptive: AdaptiveClockTable assign and join_into on an entry held
 *    as an epoch vs. one inflated into an arena row, at the same
 *    dimension: the FastTrack-style fast path every access takes.
 *  - end_sweep: one end's gate-and-join over its update window (8
 *    enrolled entries, a typical transaction footprint) vs. over the
 *    full table.
 *
 * The last row, engine_start, is each engine constructed, run on 5
 * events and destroyed: the fixed cost that dominates short traces and
 * the exhaustive differential suite.
 *
 * Results go to stdout and to BENCH_vc_ops.json (override with --json
 * PATH), labelled with the host they were measured on.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "support/stopwatch.hpp"
#include "vc/adaptive_clock.hpp"
#include "vc/clock_bank.hpp"
#include "vc/vector_clock.hpp"
#include "velodrome/velodrome.hpp"

namespace {

using namespace aero;

/** Compiler barrier: the compiler must assume `value` is read and
 *  written here, so the timed work that produced it is not dropped. */
template <typename T>
void
escape(T& value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

/** Quartiles of one row's passes, in ns per operation. */
struct Spread {
    double p25 = 0;
    double median = 0;
    double p75 = 0;
};

/** Passes per row: odd, so the median and quartiles are passes. A pass
 *  spans several scheduler ticks; the whole ledger runs in ~6 s. */
constexpr int kPasses = 9;
constexpr double kPassSeconds = 0.015;
constexpr double kWarmSeconds = 0.002;

/** Call `body()` for kWarmSeconds to warm caches; return the calls that
 *  make one pass of ~kPassSeconds. */
template <typename F>
size_t
calibrate(F& body)
{
    size_t calls = 0;
    Stopwatch warm;
    do {
        body();
        ++calls;
    } while (warm.elapsed_seconds() < kWarmSeconds);
    return static_cast<size_t>(static_cast<double>(calls) * kPassSeconds /
                               warm.elapsed_seconds()) + 1;
}

/** One pass of `reps` calls, in ns per call. */
template <typename F>
double
time_pass(F& body, size_t reps)
{
    Stopwatch watch;
    for (size_t r = 0; r < reps; ++r)
        body();
    return static_cast<double>(watch.elapsed_ns()) / static_cast<double>(reps);
}

/** Time each of `bodies` over kPasses passes, interleaved so that every
 *  body of a row sees the same load on a shared box; return each one's
 *  quartiles of ns per inner operation, given `ops_per_call`. */
template <typename... F>
std::array<Spread, sizeof...(F)>
measure(size_t ops_per_call, F&&... bodies)
{
    constexpr size_t n = sizeof...(F);
    const size_t reps[n] = {calibrate(bodies)...};
    double ns[n][kPasses];
    for (int p = 0; p < kPasses; ++p) {
        size_t k = 0;
        ((ns[k][p] = time_pass(bodies, reps[k]), ++k), ...);
    }
    const double per_op = 1.0 / static_cast<double>(ops_per_call);
    std::array<Spread, n> out;
    for (size_t k = 0; k < n; ++k) {
        std::sort(ns[k], ns[k] + kPasses);
        out[k] = {ns[k][kPasses / 4] * per_op, ns[k][kPasses / 2] * per_op,
                  ns[k][kPasses - 1 - kPasses / 4] * per_op};
    }
    return out;
}

/** One job timed the baseline way and the shipped way. */
struct Row {
    const char* op; ///< adaptive rows: the table operation; else null
    size_t key;     ///< clock dimension, or end_sweep's table entries
    Spread base;    ///< scalar clocks / inflated entry / full table
    Spread fast;    ///< bank rows / epoch entry / update window
    double
    speedup() const
    {
        return fast.median > 0 ? base.median / fast.median : 0;
    }
};

/** Rows of one kind; JSON fields are "<base>_ns_per_<unit>" and
 *  "<fast>_ns_per_<unit>". */
struct Family {
    const char* name;
    const char* key;
    const char* base;
    const char* fast;
    const char* unit;
    std::vector<Row> rows;
};

// --- Kernel comparison, bank vs. scalar -----------------------------------

/** Clocks per family in the sweep: large enough to stream across rows,
 *  small enough to stay cache-resident so the comparison measures the
 *  kernels (compute + per-clock overheads), not DRAM bandwidth. */
constexpr size_t kFamily = 256;

VectorClock
make_clock(size_t dim, uint32_t salt)
{
    VectorClock v(dim);
    for (size_t i = 0; i < dim; ++i)
        v.set(i, static_cast<ClockValue>((i * 2654435761u + salt) % 97));
    return v;
}

/** Sweep `op(acc, clock)` over a family of kFamily distinct clocks,
 *  lifted by `lift` in every component, in the scalar layout and in a
 *  bank (rows 0..kFamily-1, the accumulator in row kFamily). `op`
 *  returns a bool the sweep folds into a sink, so comparisons stay
 *  live. */
template <typename Op>
Row
bench_sweep(size_t dim, ClockValue lift, Op op)
{
    std::vector<VectorClock> scalar;
    ClockBank bank(kFamily + 1, dim);
    for (size_t i = 0; i < kFamily; ++i) {
        scalar.push_back(make_clock(dim, static_cast<uint32_t>(i)));
        for (size_t d = 0; d < dim; ++d) {
            scalar[i].set(d, scalar[i].get(d) + lift);
            bank[i].set(d, scalar[i].get(d));
        }
    }
    VectorClock sacc = make_clock(dim, 7);
    ClockRef bacc = bank[kFamily];
    for (size_t d = 0; d < dim; ++d)
        bacc.set(d, sacc.get(d));

    bool sink = false;
    const auto [base, fast] = measure(
        kFamily,
        [&] {
            for (const auto& v : scalar)
                sink ^= op(sacc, v);
            escape(sacc);
            escape(sink);
        },
        [&] {
            for (size_t i = 0; i < kFamily; ++i)
                sink ^= op(bacc, bank[i]);
            escape(bank);
            escape(sink);
        });
    return {nullptr, dim, base, fast};
}

/** Geometric mean of the speedups at dim >= 16 (the acceptance metric:
 *  single-dim points on a shared box are noisy; the geomean across the
 *  swept dims is the stable summary). */
double
geomean_dim16plus(const Family& f)
{
    double log_sum = 0;
    size_t n = 0;
    for (const Row& r : f.rows) {
        if (r.key >= 16 && r.speedup() > 0) {
            log_sum += std::log(r.speedup());
            ++n;
        }
    }
    return n > 0 ? std::exp(log_sum / static_cast<double>(n)) : 0;
}

// --- Adaptive entries, epoch vs. inflated ---------------------------------

/** An AdaptiveClockTable whose entry 0 is set from clock[0] = 7@1
 *  (its only non-zero component) and clock[1], another thread's clock,
 *  at 3 in every component. Passed as pure, the source keeps the entry
 *  the epoch 7@1; passed as impure, it inflates the entry into an arena
 *  row. Exits 1 if the entry is not the representation asked. */
struct AdaptiveSetup {
    AdaptiveClockTable tbl;
    ClockBank clock;
    bool epoch;
    uint8_t dst_pure = 0;
    AdaptiveSetup(size_t dim, bool as_epoch) : clock(2, dim), epoch(as_epoch)
    {
        tbl.ensure_dim(dim);
        tbl.add_entry();
        clock[0].set(1, 7);
        for (size_t d = 0; d < dim; ++d)
            clock[1].set(d, 3);
        tbl.assign(0, clock[0], 1, epoch);
        if (tbl.is_inflated(0) == epoch) {
            std::fprintf(stderr, "bench_vc_ops: adaptive dim %zu: entry is "
                                 "not %s\n",
                         dim, epoch ? "an epoch" : "inflated");
            std::exit(1);
        }
    }
};

/** `op(setup)` on an inflated entry vs. on an epoch entry. */
template <typename Op>
Row
bench_adaptive(const char* name, size_t dim, Op op)
{
    AdaptiveSetup inflated(dim, false), epoch(dim, true);
    const auto [base, fast] =
        measure(1, [&] { op(inflated); }, [&] { op(epoch); });
    return {name, dim, base, fast};
}

// --- End sweep and engine start -------------------------------------------

/** The end-event sweep micro-kernel: one completed transaction's
 *  gate-and-join over an AdaptiveClockTable of `entries` entries, as the
 *  full-table pass vs the update-window pass. The ratio is the per-end
 *  win of the update sets at that table size. */
Row
bench_end_sweep(size_t entries)
{
    constexpr size_t kEnrolled = 8;
    constexpr ClockValue kGate = 5;

    AdaptiveClockTable tbl;
    tbl.ensure_dim(8);
    ClockBank clocks(2, 8);
    clocks[0].set(0, kGate); // the ending thread's clock (pure)
    clocks[1].set(1, 3);     // a foreign writer: gates stay closed
    for (size_t i = 0; i < entries; ++i) {
        tbl.add_entry();
        tbl.assign(i, clocks[1], 1, true);
    }

    tbl.open_update_window(0, kGate);
    for (size_t i = 0; i < kEnrolled && i < entries; ++i)
        tbl.join(i, clocks[0], 0, true); // enrolls: source >= gate
    tbl.seal_update_window(0);
    const auto& set = tbl.update_entries(0);

    uint64_t fired = 0;
    const auto [full, window] = measure(
        1,
        [&] {
            for (size_t i = 0; i < entries; ++i)
                fired += tbl.get(i, 0) >= kGate;
            escape(fired);
        },
        [&] {
            for (uint32_t i : set)
                fired += tbl.get(i, 0) >= kGate;
            escape(fired);
        });
    return {nullptr, entries, full, window};
}

/** One round of a small engine's fixed cost: construct it for 2
 *  threads, 1 variable and 1 lock, run 5 events, destroy it. The trace
 *  inflates an entry of each clock table, so every bank of the shipped
 *  engine holds a row. */
template <typename Checker>
void
engine_start_round()
{
    static const Event kTrace[] = {
        {0, 0, Op::kBegin},   {1, 0, Op::kWrite}, {0, 0, Op::kRead},
        {0, 0, Op::kRelease}, {0, 0, Op::kEnd},
    };
    Checker checker(2, 1, 1);
    bool violation = false;
    for (size_t i = 0; i < 5; ++i)
        violation |= checker.process(kTrace[i], i);
    escape(violation);
}

// --- Report ---------------------------------------------------------------

/** The value after ": " on the first line of `path` that starts with
 *  `prefix` (the whole line if it has no ": "), without characters that
 *  would need escaping in JSON; "unknown" if there is no such line. */
std::string
proc_line(const char* path, const char* prefix)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, std::strlen(prefix), prefix) != 0)
            continue;
        const size_t colon = line.find(": ");
        if (colon != std::string::npos)
            line.erase(0, colon + 2);
        line.erase(std::remove_if(line.begin(), line.end(),
                                  [](char c) { return c == '"' || c == '\\'; }),
                   line.end());
        return line;
    }
    return "unknown";
}

/** "median [p25, p75]", right-aligned in `width` columns. */
std::string
cell(const Spread& s, int width)
{
    char text[96], out[128];
    std::snprintf(text, sizeof(text), "%.2f [%.2f, %.2f]", s.median, s.p25,
                  s.p75);
    std::snprintf(out, sizeof(out), "%*s", width, text);
    return out;
}

/** `"<prefix>_ns_per_<unit>": {"median": ..., "p25": ..., "p75": ...}` */
std::string
json(const char* prefix, const char* unit, const Spread& s)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "\"%s_ns_per_%s\": {\"median\": %.2f, \"p25\": %.2f, "
                  "\"p75\": %.2f}",
                  prefix, unit, s.median, s.p25, s.p75);
    return buf;
}

void
report(const Family& f, std::string& out)
{
    char buf[128];
    std::string base = std::string(f.base) + " ns/" + f.unit;
    std::string fast = std::string(f.fast) + " ns/" + f.unit;
    std::printf("\n%-22s %7s %28s %28s %9s\n", f.name, f.key, base.c_str(),
                fast.c_str(), "speedup");
    out += std::string("  \"") + f.name + "\": {\"rows\": [\n";
    for (size_t i = 0; i < f.rows.size(); ++i) {
        const Row& r = f.rows[i];
        std::string label = f.name;
        if (r.op)
            label = label + " " + r.op;
        std::printf("%-22s %7zu %s %s %8.2fx\n", label.c_str(), r.key,
                    cell(r.base, 28).c_str(), cell(r.fast, 28).c_str(),
                    r.speedup());
        out += "    {";
        if (r.op)
            out += std::string("\"op\": \"") + r.op + "\", ";
        std::snprintf(buf, sizeof(buf), "\"%s\": %zu, ", f.key, r.key);
        out += buf + json(f.base, f.unit, r.base) + ", " +
               json(f.fast, f.unit, r.fast);
        std::snprintf(buf, sizeof(buf), ", \"speedup\": %.2f}%s\n",
                      r.speedup(), i + 1 < f.rows.size() ? "," : "");
        out += buf;
    }
    out += "  ]";
    if (std::strcmp(f.base, "scalar") == 0) { // the bank kernel families
        std::snprintf(buf, sizeof(buf), ", \"geomean_speedup_dim16plus\": %.2f",
                      geomean_dim16plus(f));
        out += buf;
    }
    out += "},\n";
}

int
run_ledger(const std::string& json_path)
{
    const unsigned hw_threads = std::thread::hardware_concurrency();
    const std::string cpu = proc_line("/proc/cpuinfo", "model name");
    const std::string loadavg = proc_line("/proc/loadavg", "");
#ifdef AERO_VC_X86_DISPATCH
    const char* simd = vck::detail::kHaveAvx2 ? "avx2" : "autovec";
#else
    const char* simd = "autovec";
#endif
    std::printf("host: %u hardware threads, %s, loadavg %s, simd %s\n"
                "each cell: median [p25, p75] of %d passes\n",
                hw_threads, cpu.c_str(), loadavg.c_str(), simd, kPasses);

    auto join = [](auto& acc, const auto& v) {
        acc.join(v);
        return false;
    };
    auto leq = [](auto& probe, const auto& v) { return probe.leq(v); };
    std::vector<Family> families = {
        {"join", "dim", "scalar", "bank", "op", {}},
        {"leq", "dim", "scalar", "bank", "op", {}},
        {"join_except", "dim", "scalar", "bank", "op", {}},
        {"adaptive", "dim", "inflated", "epoch", "op", {}},
        {"end_sweep", "entries", "full", "window", "end", {}},
    };
    for (size_t dim : {4, 8, 16, 32, 64, 256}) {
        auto join_except = [dim](auto& acc, const auto& v) {
            acc.join_except(v, dim / 2);
            return false;
        };
        families[0].rows.push_back(bench_sweep(dim, 0, join));
        // The probe stays below the family: no early exit, full scans.
        families[1].rows.push_back(bench_sweep(dim, 100, leq));
        families[2].rows.push_back(bench_sweep(dim, 0, join_except));
    }
    for (size_t dim : {16, 64, 256}) {
        families[3].rows.push_back(
            bench_adaptive("assign", dim, [](AdaptiveSetup& s) {
                s.tbl.assign(0, s.clock[0], 1, s.epoch);
                escape(s.tbl);
            }));
        families[3].rows.push_back(
            bench_adaptive("join_into", dim, [](AdaptiveSetup& s) {
                s.tbl.join_into(s.clock[1], 0, 0, s.dst_pure);
                escape(s.clock);
            }));
    }
    for (size_t entries : {1000, 10000, 100000})
        families[4].rows.push_back(bench_end_sweep(entries));
    const auto [opt, basic, velo] =
        measure(1, engine_start_round<AeroDromeOpt>,
                engine_start_round<AeroDromeBasic>,
                engine_start_round<Velodrome>);

    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\n  \"host\": {\"hardware_concurrency\": %u, "
                  "\"cpu_model\": \"%s\", \"loadavg_at_start\": \"%s\", "
                  "\"simd\": \"%s\"},\n"
                  "  \"passes\": %d, \"family_size\": %zu,\n",
                  hw_threads, cpu.c_str(), loadavg.c_str(), simd, kPasses,
                  kFamily);
    std::string out = buf;
    for (const Family& f : families)
        report(f, out);

    std::printf("\n%-14s %28s %28s %28s %9s\n", "", "opt ns/round",
                "basic ns/round", "velodrome ns/round", "opt/basic");
    std::printf("%-14s %s %s %s %8.2fx\n", "engine_start",
                cell(opt, 28).c_str(), cell(basic, 28).c_str(),
                cell(velo, 28).c_str(), opt.median / basic.median);
    std::snprintf(buf, sizeof(buf), ", \"opt_over_basic\": %.2f}\n}\n",
                  opt.median / basic.median);
    out += "  \"engine_start\": {" + json("opt", "round", opt) + ",\n    " +
           json("basic", "round", basic) + ",\n    " +
           json("velodrome", "round", velo) + buf;

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

} // namespace

int
main(int argc, char** argv)
{
    std::string json_path = "BENCH_vc_ops.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "bench_vc_ops: unknown argument '%s'\n"
                         "usage: bench_vc_ops [--json PATH]\n",
                         argv[i]);
            return 2;
        }
    }
    return run_ledger(json_path);
}
