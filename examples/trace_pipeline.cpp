/**
 * @file
 * End-to-end trace pipeline, mirroring the paper's artifact workflow
 * (Appendix D): generate or load an execution log, print its MetaInfo,
 * then analyze it with both AeroDrome and Velodrome and compare.
 *
 * Usage:
 *   trace_pipeline gen <star|pipeline|ring|naive> <out.trace[.bin]>
 *       generate a workload and write it as a text (or, with .bin,
 *       binary) trace log;
 *   trace_pipeline analyze <in.trace[.bin]> [--budget SECONDS]
 *       load a trace log, print MetaInfo, and run both checkers —
 *       the equivalent of the paper's metainfo.py / aerodrome.py /
 *       velodrome.py scripts in one binary.
 *
 * Example session:
 *   $ ./trace_pipeline gen star /tmp/star.trace.bin
 *   $ ./trace_pipeline analyze /tmp/star.trace.bin --budget 5
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/report.hpp"
#include "analysis/runner.hpp"
#include "gen/patterns.hpp"
#include "support/assert.hpp"
#include "support/str.hpp"
#include "trace/binary_io.hpp"
#include "trace/metainfo.hpp"
#include "trace/text_io.hpp"
#include "trace/validator.hpp"
#include "velodrome/velodrome.hpp"

namespace {

using namespace aero;

bool
is_binary_path(const std::string& path)
{
    return path.size() > 4 &&
           path.compare(path.size() - 4, 4, ".bin") == 0;
}

int
cmd_gen(const std::string& kind, const std::string& path)
{
    Trace trace;
    if (kind == "star") {
        gen::StarOptions opts;
        opts.producers = 3;
        opts.consumers = 3;
        opts.rounds = 20000;
        trace = gen::make_star(opts);
    } else if (kind == "pipeline") {
        trace = gen::make_pipeline(4, 50000);
    } else if (kind == "ring") {
        trace = gen::make_ring(4);
    } else if (kind == "naive") {
        gen::NaiveSpecOptions opts;
        opts.threads = 6;
        opts.events_per_thread = 100000;
        opts.conflict_position = 0.9;
        trace = gen::make_naive_spec(opts);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n", kind.c_str());
        return 2;
    }
    if (is_binary_path(path))
        write_binary_file(path, trace);
    else
        write_text_file(path, trace);
    std::printf("wrote %s events to %s\n",
                with_commas(trace.size()).c_str(), path.c_str());
    return 0;
}

int
cmd_analyze(const std::string& path, double budget)
{
    Trace trace = is_binary_path(path) ? read_binary_file(path)
                                       : read_text_file(path);

    auto wf = validate(trace);
    std::printf("== %s ==\n", path.c_str());
    std::printf("well-formed: %s\n", wf.ok ? "yes" : wf.message.c_str());

    std::printf("\n-- metainfo --\n");
    print_metainfo(std::cout, compute_metainfo(trace));

    RunBudget rb;
    rb.max_seconds = budget;

    std::printf("\n-- analyses --\n");
    AeroDromeOpt aero(trace.num_threads(), trace.num_vars(),
                      trace.num_locks());
    RunResult ar = run_checker(aero, trace, rb);
    std::printf("AeroDrome: %-3s in %s (%s events)\n", ar.verdict(),
                format_duration(ar.seconds).c_str(),
                with_commas(ar.events_processed).c_str());
    if (ar.violation) {
        std::printf("  violation at event %zu (%s): %s\n",
                    ar.details->event_index,
                    trace.format_event(trace[ar.details->event_index])
                        .c_str(),
                    ar.details->reason.c_str());
    }

    Velodrome velo(trace.num_threads(), trace.num_vars(),
                   trace.num_locks());
    RunResult vr = run_checker(velo, trace, rb);
    std::printf("Velodrome: %-3s in %s (%s events, peak graph %s nodes)\n",
                vr.verdict(), format_duration(vr.seconds).c_str(),
                with_commas(vr.events_processed).c_str(),
                with_commas(velo.stats().max_live_nodes).c_str());

    if (!vr.timed_out && !ar.timed_out && vr.violation != ar.violation) {
        std::printf("NOTE: verdicts differ — possible open-transaction "
                    "witness (Theorem 3)\n");
    }
    if (ar.seconds > 0 && !ar.timed_out) {
        std::printf("speed-up (Velodrome/AeroDrome): %s\n",
                    format_speedup(vr.seconds / ar.seconds,
                                   vr.timed_out).c_str());
    }
    return 0;
}

int
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s gen <star|pipeline|ring|naive> <out>\n"
                 "       %s analyze <in> [--budget SECONDS]\n",
                 argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 3)
        return usage(argv[0]);
    std::string cmd = argv[1];
    try {
        if (cmd == "gen" && argc >= 4)
            return cmd_gen(argv[2], argv[3]);
        if (cmd == "analyze") {
            double budget = 10.0;
            for (int i = 3; i < argc; ++i) {
                if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc &&
                    !parse_seconds(argv[++i], budget))
                    return usage(argv[0]);
            }
            return cmd_analyze(argv[2], budget);
        }
    } catch (const aero::FatalError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
}
