/**
 * @file
 * aerocheck — command-line atomicity checker over trace logs.
 *
 * The "production" front end: pick an engine, stream a trace file in
 * constant memory, get a violation report with evidence and engine
 * statistics. Complements trace_pipeline (which demonstrates the
 * generate-then-analyze workflow) by exposing every engine by name.
 *
 * Usage:
 *   aerocheck <trace[.bin]> [--engine NAME] [--budget SECONDS]
 *             [--resync] [--validate] [--stats] [--witness]
 *
 * The trace format is sniffed from the AEROTRC1 magic, not the file
 * extension (the ".bin" suffix only breaks ties for files too short to
 * sniff); a ".bin" file without the magic is rejected as corrupt rather
 * than mis-parsed as text.
 *
 *   --engine: aerodrome (default) | aerodrome-basic | velodrome
 *             aerodrome is Algorithm 3, the shipped engine.
 *             aerodrome-basic is Algorithm 1 on plain vector clocks, the
 *             reference the tests hold aerodrome to; every outermost end
 *             sweeps all lock, write and read clocks, so it runs
 *             quadratic on var-heavy traces (the trace_pipeline star and
 *             pipeline traces outrun a 20 s budget). velodrome is the
 *             fast, independent engine for cross-checking large traces.
 *   --budget: wall-clock limit in seconds (finite, >= 0; 0 = unlimited)
 *   --resync: skip corrupt records and keep checking (the verdict
 *             degrades to "no violation found", exit 5, when records
 *             were skipped) instead of stopping at the first one
 *   --validate: run the well-formedness validator first (loads the
 *               trace into memory)
 *   --stats: print the ingest line (reader kind, block size, whether
 *            blocks were decoded ahead on a worker thread, decode busy
 *            time and the checker's wait for blocks), the engine's
 *            statistics, then the process's peak resident set
 *            (peak_rss_kb, VmHWM)
 *   --witness: on a violation, reconstruct and print a witness cycle
 *              (one offending SCC of the transaction graph over the
 *              prefix up to the violating event; loads that prefix)
 *
 * Both loads read the trace through the run's own reader and --resync
 * setting, so they accept and reject exactly what the run does.
 *
 * Exit code: 0 = serializable, 1 = violation, 2 = usage/input error,
 * 3 = budget exceeded, 4 = corrupt input stream (strict mode),
 * 5 = completed degraded (resync skipped records: a reported violation
 * would still be real, but "no violation" is not a proof),
 * 6 = internal error (contained panic / resource cap).
 *
 * Fault injection (robustness drill): AERO_FAULT_PLAN=alloc:alloc-cap:N
 * in the environment breaches the allocation cap from the run's N-th
 * budget poll on, which ends it as an internal error (exit 6). A set but
 * unparseable plan is a usage error (exit 2). To drill corrupt input,
 * damage the trace file itself.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "oracle/serializability_oracle.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/str.hpp"
#include "trace/stream.hpp"
#include "trace/validator.hpp"
#include "velodrome/velodrome.hpp"

namespace {

using namespace aero;

struct Args {
    std::string path;
    std::string engine = "aerodrome";
    double budget = 0;
    bool resync = false;
    bool validate_first = false;
    bool stats = false;
    bool witness = false;
};

/** Drain up to `max_events` events of the trace through the run's
 *  reader (open_event_source) and --resync setting. */
Trace
load_trace(const Args& args, uint64_t max_events = UINT64_MAX)
{
    std::unique_ptr<std::istream> storage;
    auto source = open_event_source(args.path, storage);
    source->set_resync(args.resync);
    return drain_trace(*source, max_events);
}

/** Reconstruct and print one witness cycle over `prefix`, the events up
 *  to and including the violating one. */
void
print_witness(const Trace& prefix)
{
    OracleOptions oopts;
    oopts.collect_txn_info = true;
    OracleResult oracle = check_serializability(prefix, oopts);
    if (oracle.serializable) {
        // Possible when the engine reports at an end event whose witness
        // needs the full <=E machinery; fall back to the full trace.
        std::printf("  (no cycle in the strict prefix; witness spans "
                    "later events)\n");
        return;
    }
    std::printf("  witness cycle (%zu transactions):\n",
                oracle.witness_scc.size());
    for (uint32_t node : oracle.witness_scc) {
        if (node >= oracle.txn_info.size())
            continue;
        const TxnInfo& info = oracle.txn_info[node];
        std::printf("    %s txn of thread %s: events [%zu..%zu]%s\n",
                    info.unary ? "unary" : "block",
                    prefix.threads().name_of(info.thread, "t").c_str(),
                    info.first_event, info.last_event,
                    info.completed ? "" : " (still open)");
    }
}

int
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s <trace[.bin]> [--engine NAME] [--budget S] "
                 "[--resync] [--validate] [--stats] [--witness]\n"
                 "engines:\n"
                 "  aerodrome        Algorithm 3, the shipped engine "
                 "(default)\n"
                 "  aerodrome-basic  Algorithm 1, the test reference; "
                 "quadratic on var-heavy traces\n"
                 "  velodrome        fast and independent: cross-check "
                 "large traces with it\n",
                 argv0);
    return 2;
}

std::unique_ptr<AtomicityChecker>
make_engine(const std::string& name)
{
    // Engines start empty and grow their state with the ids the events
    // use; a binary header's dimensions size nothing.
    if (name == "aerodrome")
        return std::make_unique<AeroDromeOpt>(0, 0, 0);
    if (name == "aerodrome-basic")
        return std::make_unique<AeroDromeBasic>(0, 0, 0);
    if (name == "velodrome")
        return std::make_unique<Velodrome>(0, 0, 0);
    return nullptr;
}

/** The process's peak resident set (VmHWM, mapped trace pages
 *  included); silent where /proc/self/status cannot be read. */
void
print_peak_rss()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return;
    char line[256];
    unsigned long long kb = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f))
        found = std::sscanf(line, "VmHWM: %llu kB", &kb) == 1;
    std::fclose(f);
    if (found)
        std::printf("  peak_rss_kb: %s\n", with_commas(kb).c_str());
}

void
print_counters(const StatList& counters)
{
    if (counters.empty()) {
        std::printf("  (no statistics exposed by this engine)\n");
        return;
    }
    size_t width = 0;
    for (const auto& [name, value] : counters)
        width = std::max(width, name.size());
    for (const auto& [name, value] : counters) {
        std::printf("  %-*s %s\n", static_cast<int>(width + 1),
                    (name + ":").c_str(), with_commas(value).c_str());
    }
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--engine" && i + 1 < argc) {
            args.engine = argv[++i];
        } else if (a == "--budget" && i + 1 < argc) {
            if (!parse_seconds(argv[++i], args.budget))
                return usage(argv[0]);
        } else if (a == "--resync") {
            args.resync = true;
        } else if (a == "--validate") {
            args.validate_first = true;
        } else if (a == "--stats") {
            args.stats = true;
        } else if (a == "--witness") {
            args.witness = true;
        } else if (a == "--help") {
            return usage(argv[0]);
        } else if (args.path.empty()) {
            args.path = a;
        } else {
            return usage(argv[0]);
        }
    }
    if (args.path.empty())
        return usage(argv[0]);

    auto checker = make_engine(args.engine);
    if (!checker) {
        std::fprintf(stderr, "unknown engine '%s'\n", args.engine.c_str());
        return usage(argv[0]);
    }

    // Contain engine panics as a structured internal-error outcome (exit
    // 6 with context) instead of an abort, and arm any AERO_FAULT_PLAN
    // robustness drill requested by the environment.
    set_panic_handler(&throwing_panic_handler);
    if (const char* plan = std::getenv("AERO_FAULT_PLAN");
        plan != nullptr && !FaultInjector::instance().arm_from_env()) {
        std::fprintf(stderr,
                     "AERO_FAULT_PLAN '%s' is not a fault plan "
                     "(want alloc:alloc-cap:TRIGGER)\n",
                     plan);
        return 2;
    }

    try {
        if (args.validate_first) {
            Trace t = load_trace(args);
            auto v = validate(t);
            if (!v.ok) {
                std::fprintf(stderr,
                             "trace is ill-formed at event %zu: %s\n",
                             v.event_index, v.message.c_str());
                return 2;
            }
            std::printf("trace is well-formed (%s events)\n",
                        with_commas(t.size()).c_str());
        }

        std::unique_ptr<std::istream> storage;
        auto source = open_event_source(args.path, storage);
        source->set_resync(args.resync);

        RunBudget budget;
        budget.max_seconds = args.budget;

        const RunResult r = run_checker_stream(*checker, *source, budget);

        const RunStatus status = r.status();
        const char* verdict = "serializable";
        switch (status) {
          case RunStatus::kOk:
            break;
          case RunStatus::kViolation:
            verdict = "VIOLATION";
            break;
          case RunStatus::kTimeout:
            verdict = "BUDGET EXCEEDED";
            break;
          case RunStatus::kDegraded:
            verdict = "no violation found (DEGRADED)";
            break;
          case RunStatus::kStreamError:
            verdict = "ABORTED ON CORRUPT INPUT";
            break;
          case RunStatus::kInternalError:
            verdict = "INTERNAL ERROR";
            break;
        }
        std::printf("%s: %s after %s events in %s\n",
                    std::string(checker->name()).c_str(), verdict,
                    with_commas(r.events_processed).c_str(),
                    format_duration(r.seconds).c_str());
        if (r.stream_error) {
            std::printf("  input error [%s] at event %s, byte offset %s: "
                        "%s\n",
                        stream_error_cause_name(r.stream_error->cause),
                        with_commas(r.stream_error->event_index).c_str(),
                        with_commas(r.stream_error->byte_offset).c_str(),
                        r.stream_error->message.c_str());
        }
        if (r.stream_errors_recovered > 0) {
            std::printf("  resync: skipped %s corrupt record(s):\n",
                        with_commas(r.stream_errors_recovered).c_str());
            // The list can run past the blocks the run checked (decode
            // ahead); the count stops at them.
            const std::vector<StreamError>& errors =
                source->recovered_errors();
            const size_t shown = static_cast<size_t>(std::min<uint64_t>(
                errors.size(), r.stream_errors_recovered));
            for (size_t k = 0; k < shown; ++k) {
                const StreamError& err = errors[k];
                std::printf("    [%s] event %s, byte offset %s: %s\n",
                            stream_error_cause_name(err.cause),
                            with_commas(err.event_index).c_str(),
                            with_commas(err.byte_offset).c_str(),
                            err.message.c_str());
            }
        }
        if (!r.internal_error.empty())
            std::printf("  internal error: %s\n", r.internal_error.c_str());
        if (r.violation) {
            std::printf("  at event index %zu, thread id %u: %s\n",
                        r.details->event_index, r.details->thread,
                        r.details->reason.c_str());
            if (args.witness)
                print_witness(load_trace(args, r.details->event_index + 1));
        }
        if (args.stats) {
            std::printf("  ingest: %s source, block %s, decode %s, "
                        "decode_busy %s, engine_wait %s\n",
                        source->source_kind(),
                        with_commas(kDefaultIngestBlock).c_str(),
                        r.decoded_ahead ? "ahead" : "inline",
                        format_duration(r.decode_seconds).c_str(),
                        format_duration(r.wait_seconds).c_str());
            print_counters(checker->counters());
            print_peak_rss();
        }
        switch (status) {
          case RunStatus::kOk:
            return 0;
          case RunStatus::kViolation:
            return 1;
          case RunStatus::kTimeout:
            return 3;
          case RunStatus::kStreamError:
            return 4;
          case RunStatus::kDegraded:
            return 5;
          case RunStatus::kInternalError:
            return 6;
        }
        return 6; // unreachable
    } catch (const StreamCorruption& e) {
        // Corruption detected outside the runner loop (e.g. a bad binary
        // header rejected while opening the source).
        const StreamError& err = e.error();
        std::fprintf(stderr,
                     "corrupt input [%s] at event %llu, byte offset %llu: "
                     "%s\n",
                     stream_error_cause_name(err.cause),
                     static_cast<unsigned long long>(err.event_index),
                     static_cast<unsigned long long>(err.byte_offset),
                     err.message.c_str());
        return 4;
    } catch (const FatalError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
