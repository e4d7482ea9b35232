/**
 * @file
 * Experiment E5 — ablation of the AeroDrome variants across the paper's
 * optimization ladder (Section 4.3 and Appendix C):
 *
 *   Algorithm 1 (basic):    O(|Thr| * V) read clocks, full-vector
 *                           comparisons, every end event scans all
 *                           variables and locks;
 *   Algorithm 2 (readopt):  two clocks per variable (R_x, hR_x),
 *                           one-component comparisons;
 *   Algorithm 3 (opt):      + lazy clock updates, per-thread update sets,
 *                           GC of edge-free transactions.
 *
 * Workloads chosen to stress each optimization:
 *   - reader mesh: many repeated reads of one variable (read clocks);
 *   - many-vars:   end events vs. per-variable scans (update sets);
 *   - independent: GC fast path;
 *   - star:        mixed regime of Table 1.
 *
 * Usage: bench_ablation [--repeat N]
 */

#include <cstdio>
#include <string>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "aerodrome/aerodrome_readopt.hpp"
#include "analysis/runner.hpp"
#include "gen/patterns.hpp"
#include "support/str.hpp"

namespace {

using namespace aero;

template <typename Checker>
double
time_checker(const Trace& t, int repeat, bool& violation)
{
    double best = 1e300;
    for (int i = 0; i < repeat; ++i) {
        Checker checker(t.num_threads(), t.num_vars(), t.num_locks());
        RunResult r = run_checker(checker, t);
        violation = r.violation;
        best = std::min(best, r.seconds);
    }
    return best;
}

void
run_workload(const char* name, const Trace& t, int repeat)
{
    bool v1 = false, v2 = false, v3 = false;
    double basic = time_checker<AeroDromeBasic>(t, repeat, v1);
    double readopt = time_checker<AeroDromeReadOpt>(t, repeat, v2);
    double opt = time_checker<AeroDromeOpt>(t, repeat, v3);
    if (v1 != v2 || v2 != v3)
        std::printf("!! verdict mismatch on %s\n", name);
    std::printf("%-22s %10s  basic %9.4fs  readopt %9.4fs (%4.1fx)  "
                "opt %9.4fs (%6.1fx)\n",
                name, with_commas(t.size()).c_str(), basic, readopt,
                readopt > 0 ? basic / readopt : 0, opt,
                opt > 0 ? basic / opt : 0);
}

int
run_classic_ablation(int repeat)
{
    std::printf("AeroDrome ablation: Algorithm 1 -> 2 -> 3 "
                "(best of %d runs; speedups vs Algorithm 1)\n\n",
                repeat);

    run_workload("reader-mesh 8x30000", gen::make_reader_mesh(8, 30000),
                 repeat);
    run_workload("independent 8x8000", gen::make_independent(8, 8000, 8),
                 repeat);
    run_workload("pipeline 6x3000", gen::make_pipeline(6, 3000), repeat);
    {
        gen::StarOptions opts;
        opts.producers = 3;
        opts.consumers = 3;
        opts.rounds = 2500;
        run_workload("star p3/c3 r2500", gen::make_star(opts), repeat);
    }
    {
        gen::NaiveSpecOptions opts;
        opts.threads = 8;
        opts.events_per_thread = 40000;
        opts.conflict_position = 2.0; // never: throughput-only run
        run_workload("naive 8x40000 no-confl", gen::make_naive_spec(opts),
                     repeat);
    }
    std::printf("\nExpected shape: readopt >= basic on read-heavy "
                "workloads; opt adds the\nlargest gains where end events "
                "dominate or transactions are independent.\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    // Algorithm 1's per-end scans over all variables make it ~1000x
    // slower than Algorithm 3 on the end-heavy workloads, so the default
    // sizes are kept modest; scale up with --repeat / larger sources for
    // precision.
    int repeat = 1;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--repeat" && i + 1 < argc)
            repeat = std::stoi(argv[++i]);
    }
    return run_classic_ablation(repeat);
}
