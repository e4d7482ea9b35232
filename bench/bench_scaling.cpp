/**
 * @file
 * Experiment E4 — the paper's headline complexity claim, as a scaling
 * series: AeroDrome's time per event stays flat as the trace (and the
 * number of live transactions) grows, while Velodrome's grows roughly
 * linearly in the number of transactions (quadratic total time) on
 * workloads whose graph survives garbage collection.
 *
 * Three series are printed (events, total time, ns/event for both
 * checkers):
 *   - star:        Velodrome's pathological regime (graph + successor
 *                  sets grow);
 *   - pipeline:    fully GC-collectible graph — both linear, constant
 *                  gap;
 *   - independent: no cross-thread conflicts at all — pure per-event
 *                  overhead of each analysis.
 *
 * A second mode, --updsets, is the update-set smoke gate: it measures the
 * basic/readopt end-event path (update sets on vs the set_update_sets(false)
 * full sweep) on the var-heavy workloads and *fails* if readopt's
 * throughput falls below a floor derived from the pre-update-set
 * baselines — the CI tripwire for the quadratic end sweep sneaking back
 * in.
 *
 * A third mode, --faults, is the fault-injection overhead gate: it times
 * the streaming path with the FaultInjector disarmed vs armed-but-idle
 * (a trigger that never fires) and fails if the armed-idle hooks cost
 * more than the floor — the tripwire for a fault hook growing beyond its
 * one-relaxed-load budget.
 *
 * Usage: bench_scaling [--budget SECONDS] [--points N]
 *        bench_scaling --updsets [--quick]
 *        bench_scaling --faults [--quick]
 *        bench_scaling --ingest [--quick] [--json PATH]
 *
 * A fourth mode, --ingest, is the block-ingestion gate: it writes a
 * ~10M-event binary trace (~1M under --quick) to a temp file and
 * records, best of three each, decode-only rows (istream per-event
 * next(), istream batched next_n, read()-buffered batched, mmap batched)
 * and end-to-end check rows (in-memory TraceSource vs the mmap
 * file-backed source, both through run_checker_stream). BENCH_ingest.json
 * gets every row plus the two gates, and the run *fails* if mmap
 * batched decode is under 5x the per-event istream path or the
 * file-backed check is more than 1.3x slower than the in-memory rate.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "aerodrome/aerodrome_readopt.hpp"
#include "analysis/runner.hpp"
#include "gen/patterns.hpp"
#include "support/fault.hpp"
#include "support/stopwatch.hpp"
#include "support/str.hpp"
#include "trace/binary_io.hpp"
#include "trace/mapped_reader.hpp"
#include "trace/stream.hpp"
#include "velodrome/velodrome.hpp"
#include "velodrome/velodrome_pk.hpp"

namespace {

using namespace aero;

struct Args {
    double budget = 10.0;
    int points = 5;
    bool updsets_mode = false;
    bool faults_mode = false;
    bool ingest_mode = false;
    bool quick = false;
    std::string json_path; // BENCH_ingest.json unless --json is given
};

void
run_series(const char* name, const std::vector<Trace>& traces,
           double budget)
{
    std::printf("\n-- %s --\n", name);
    std::printf("%12s  %12s  %10s  %12s  %10s  %12s  %10s  %8s\n",
                "events", "velo(s)", "velo ns/ev", "pk(s)", "pk ns/ev",
                "aero(s)", "aero ns/ev", "velo/aero");
    for (const Trace& t : traces) {
        RunBudget rb;
        rb.max_seconds = budget;

        Velodrome velo(t.num_threads(), t.num_vars(), t.num_locks());
        RunResult vr = run_checker(velo, t, rb);

        VelodromePK pk(t.num_threads(), t.num_vars(), t.num_locks());
        RunResult pr = run_checker(pk, t, rb);

        AeroDromeOpt aero(t.num_threads(), t.num_vars(), t.num_locks());
        RunResult ar = run_checker(aero, t, rb);

        auto per_event = [](const RunResult& r) {
            return r.events_processed
                       ? r.seconds * 1e9 /
                             static_cast<double>(r.events_processed)
                       : 0;
        };
        auto cell = [](const RunResult& r, char* buf, size_t n) {
            if (r.timed_out)
                std::snprintf(buf, n, "TO(%.1fs)", r.seconds);
            else
                std::snprintf(buf, n, "%.4f", r.seconds);
        };
        char velo_cell[32], pk_cell[32];
        cell(vr, velo_cell, sizeof(velo_cell));
        cell(pr, pk_cell, sizeof(pk_cell));
        std::printf("%12s  %12s  %10.1f  %12s  %10.1f  %12.4f  %10.1f  "
                    "%8.1f\n",
                    with_commas(t.size()).c_str(), velo_cell,
                    per_event(vr), pk_cell, per_event(pr), ar.seconds,
                    per_event(ar),
                    ar.seconds > 0 ? vr.seconds / ar.seconds : 0);
    }
}

// --- Update-set smoke gate (--updsets) --------------------------------------

template <typename Engine, bool kSets>
RunResult
run_end_sweep(const Trace& t)
{
    Engine engine(t.num_threads(), t.num_vars(), t.num_locks());
    if (!kSets)
        engine.set_update_sets(false);
    return run_checker(engine, t);
}

/**
 * Measure the basic/readopt end-event path on the var-heavy workloads
 * with update sets on vs off, and fail loudly when readopt's throughput
 * drops below 10x the pre-update-set baseline (readopt with the full
 * end sweep ran at 12,207 events/s on pipeline and 42,332 on star) —
 * the regression tripwire for the quadratic end sweep.
 */
int
run_updsets_smoke(const Args& args)
{
    const uint32_t scale = args.quick ? 1 : 4;
    struct Workload {
        const char* name;
        Trace trace;
        double readopt_floor; // events/s, 10x the recorded baseline
    };
    std::vector<Workload> workloads;
    workloads.push_back(
        {"pipeline", gen::make_pipeline(8, 2500 * scale), 122070.0});
    {
        gen::StarOptions star;
        star.producers = 4;
        star.consumers = 4;
        star.rounds = 1250 * scale;
        workloads.push_back({"star", gen::make_star(star), 423320.0});
    }

    std::printf("Update-set smoke gate (end-event sweep: sets vs full "
                "table)\n");
    std::printf("%10s  %20s  %14s  %14s  %8s\n", "workload", "engine",
                "sets on ev/s", "sets off ev/s", "win");
    bool ok = true;
    for (const Workload& wl : workloads) {
        struct Row {
            const char* name;
            RunResult (*on)(const Trace&);
            RunResult (*off)(const Trace&);
            bool gated;
        };
        const Row rows[] = {
            {"aerodrome-readopt", &run_end_sweep<AeroDromeReadOpt, true>,
             &run_end_sweep<AeroDromeReadOpt, false>, true},
            {"aerodrome-basic", &run_end_sweep<AeroDromeBasic, true>,
             &run_end_sweep<AeroDromeBasic, false>, false},
        };
        for (const Row& row : rows) {
            RunResult on = row.on(wl.trace);
            RunResult off = row.off(wl.trace);
            auto evs = [&](const RunResult& r) {
                return r.seconds > 0
                           ? static_cast<double>(wl.trace.size()) /
                                 r.seconds
                           : 0.0;
            };
            const double evs_on = evs(on);
            const double evs_off = evs(off);
            std::printf("%10s  %20s  %14.0f  %14.0f  %7.1fx\n", wl.name,
                        row.name, evs_on, evs_off,
                        evs_off > 0 ? evs_on / evs_off : 0.0);
            if (row.gated && evs_on < wl.readopt_floor) {
                std::fprintf(stderr,
                             "FAIL: %s on %s ran at %.0f events/s, below "
                             "the %.0f events/s floor (10x the recorded "
                             "pre-update-set baseline)\n",
                             row.name, wl.name, evs_on, wl.readopt_floor);
                ok = false;
            }
        }
    }
    if (ok)
        std::printf("update-set smoke gate passed\n");
    return ok ? 0 : 1;
}

// --- Block-ingestion gate (--ingest) ----------------------------------------

struct IngestRow {
    const char* name;
    double seconds = 0;
    double events_per_s = 0;
};

/** Best wall-clock of three runs of `fn` (which returns seconds). */
double
ingest_best_of3(const std::function<double()>& fn)
{
    double best = fn();
    for (int i = 0; i < 2; ++i) {
        const double s = fn();
        if (s < best)
            best = s;
    }
    return best;
}

/**
 * The block-ingestion gate: decode-only and decode+check rates over one
 * large binary trace on disk, with the two floors from the change that
 * introduced MappedBinaryEventSource.
 */
int
run_ingest_bench(const Args& args)
{
    const uint64_t target = args.quick ? 1000000 : 10000000;

    // Size a pipeline workload to ~target events: probe the events-per-
    // round rate on a small instance, then scale the round count.
    const Trace probe = gen::make_pipeline(8, 100);
    const double per_round = static_cast<double>(probe.size()) / 100.0;
    const uint32_t rounds =
        static_cast<uint32_t>(static_cast<double>(target) / per_round);
    const Trace trace = gen::make_pipeline(8, rounds);
    const uint64_t events = trace.size();

    const std::string path = "/tmp/aero_bench_ingest_" +
                             std::to_string(::getpid()) + ".bin";
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        write_binary(f, trace);
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
    }

    std::printf("Block-ingestion gate: %s events, %s on disk\n",
                with_commas(events).c_str(), path.c_str());

    auto drain_events = [&events](EventSource& src, size_t block) {
        std::vector<Event> buf(block);
        Stopwatch watch;
        uint64_t n = 0;
        for (;;) {
            const size_t got = src.next_n(buf.data(), block);
            if (got == 0)
                break;
            n += got;
        }
        if (n != events) {
            std::fprintf(stderr, "BUG: decoded %llu of %llu events\n",
                         static_cast<unsigned long long>(n),
                         static_cast<unsigned long long>(events));
            std::exit(1);
        }
        return watch.elapsed_seconds();
    };

    std::vector<IngestRow> rows;
    auto add_row = [&](const char* name,
                       const std::function<double()>& fn) {
        IngestRow row;
        row.name = name;
        row.seconds = ingest_best_of3(fn);
        row.events_per_s = row.seconds > 0
                               ? static_cast<double>(events) / row.seconds
                               : 0;
        rows.push_back(row);
        std::printf("%24s  %10s  %14s ev/s\n", row.name,
                    format_duration(row.seconds).c_str(),
                    with_commas(static_cast<uint64_t>(row.events_per_s))
                        .c_str());
        return row.events_per_s;
    };

    // Decode-only: per-event reference, then the batched paths.
    const double evs_per_event = add_row("decode-istream-next", [&] {
        std::ifstream in(path, std::ios::binary);
        BinaryEventSource src(in);
        Stopwatch watch;
        Event e;
        uint64_t n = 0;
        while (src.next(e))
            ++n;
        if (n != events)
            std::exit(1);
        return watch.elapsed_seconds();
    });
    add_row("decode-istream-batched", [&] {
        std::ifstream in(path, std::ios::binary);
        BinaryEventSource src(in);
        return drain_events(src, kDefaultIngestBlock);
    });
    add_row("decode-buffered-batched", [&] {
        std::ifstream in(path, std::ios::binary);
        MappedBinaryEventSource src(in);
        return drain_events(src, kDefaultIngestBlock);
    });
    const double evs_mmap = add_row("decode-mmap-batched", [&] {
        MappedBinaryEventSource src(path);
        if (!src.is_mapped())
            std::fprintf(stderr, "note: mmap unavailable, buffered run\n");
        return drain_events(src, kDefaultIngestBlock);
    });

    // End-to-end: the same checker fed from memory vs from the file.
    auto checked_seconds = [&events](EventSource& src) {
        AeroDromeOpt engine(0, 0, 0);
        RunResult r = run_checker_stream(engine, src);
        if (r.violation || r.events_processed != events) {
            std::fprintf(stderr, "BUG: check run ended early (%llu)\n",
                         static_cast<unsigned long long>(
                             r.events_processed));
            std::exit(1);
        }
        return r.seconds;
    };
    const double evs_check_mem = add_row("check-in-memory", [&] {
        TraceSource src(trace);
        return checked_seconds(src);
    });
    const double evs_check_file = add_row("check-file-mmap", [&] {
        MappedBinaryEventSource src(path);
        return checked_seconds(src);
    });

    // The two gates.
    bool ok = true;
    const double decode_ratio =
        evs_per_event > 0 ? evs_mmap / evs_per_event : 0;
    if (decode_ratio < 5.0) {
        std::fprintf(stderr,
                     "FAIL: mmap batched decode is %.2fx the per-event "
                     "istream path (< 5x floor)\n",
                     decode_ratio);
        ok = false;
    }
    const double check_ratio =
        evs_check_file > 0 ? evs_check_mem / evs_check_file : 0;
    if (check_ratio > 1.3) {
        std::fprintf(stderr,
                     "FAIL: file-backed check runs %.2fx slower than "
                     "in-memory (> 1.3x floor)\n",
                     check_ratio);
        ok = false;
    }
    std::printf("gates: mmap/per-event decode %.2fx (floor 5x), "
                "in-memory/file check %.2fx (ceiling 1.3x)\n",
                decode_ratio, check_ratio);

    std::string json = "{\n  \"events\": " + std::to_string(events) +
                       ",\n  \"block\": " +
                       std::to_string(kDefaultIngestBlock) +
                       ",\n  \"rows\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "    {\"name\": \"%s\", \"seconds\": %.4f, "
                      "\"events_per_s\": %.0f}%s\n",
                      rows[i].name, rows[i].seconds, rows[i].events_per_s,
                      i + 1 < rows.size() ? "," : "");
        json += buf;
    }
    char tail[256];
    std::snprintf(tail, sizeof(tail),
                  "  ],\n  \"gates\": {\"mmap_vs_per_event_decode\": "
                  "%.3f, \"decode_floor\": 5.0, "
                  "\"in_memory_vs_file_check\": %.3f, "
                  "\"check_ceiling\": 1.3, \"passed\": %s}\n}\n",
                  decode_ratio, check_ratio, ok ? "true" : "false");
    json += tail;

    const std::string out =
        args.json_path.empty() ? "BENCH_ingest.json" : args.json_path;
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        std::remove(path.c_str());
        return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
    std::remove(path.c_str());
    if (ok)
        std::printf("ingest gate passed\n");
    return ok ? 0 : 1;
}

// --- Fault-overhead smoke (--faults) ----------------------------------------

/**
 * Measure what the fault-injection hooks cost on the instrumented hot
 * path — single-engine binary streaming (the per-byte kTraceByte hooks,
 * compile-gated behind -DAERO_FAULTS) — in two states: injector disarmed
 * and armed-idle (a plan whose trigger of UINT64_MAX never fires, so
 * every hook runs its full check-and-skip path). Best-of-3 each; the
 * armed-idle : disarmed ratio is the per-hook overhead. The floor is 10%
 * (the disarmed design target is <=1% — one relaxed load — so 10%
 * absorbs CI timer noise), 25% when the per-byte hooks are compiled in,
 * since armed trigger accounting then runs per input byte.
 */
int
run_faults_smoke(const Args& args)
{
    const uint32_t scale = args.quick ? 2 : 8;
    const Trace trace = gen::make_pipeline(8, 2500 * scale);
    std::ostringstream blob;
    write_binary(blob, trace);
    const std::string bytes = blob.str();

    auto stream_once = [&bytes]() {
        std::istringstream in(bytes, std::ios::binary);
        BinaryEventSource src(in);
        AeroDromeOpt engine(0, 0, 0);
        return run_checker_stream(engine, src).seconds;
    };
    auto best_of3 = [](const std::function<double()>& run) {
        double best = run();
        for (int i = 0; i < 2; ++i) {
            const double s = run();
            if (s < best)
                best = s;
        }
        return best;
    };

    FaultInjector& inj = FaultInjector::instance();
    inj.disarm();

    std::printf("Fault-overhead smoke (per-byte hooks compiled: %s)\n",
                fault_points_compiled() ? "yes" : "no");
    std::printf("%10s  %14s  %14s  %8s\n", "path", "disarmed ev/s",
                "armed-idle ev/s", "delta");

    struct PathRow {
        const char* name;
        std::function<double()> run;
        FaultPlan idle; // trigger UINT64_MAX: checked every hit, never fires
        double floor;   // max tolerated armed-idle throughput drop
    };
    std::vector<PathRow> paths;
    {
        FaultPlan p;
        p.site = FaultSite::kTraceByte;
        p.kind = FaultKind::kBitFlip;
        p.trigger = UINT64_MAX;
        // Without the compiled per-byte hooks the armed plan touches
        // nothing on this path and the delta is pure timer noise; with
        // them, armed trigger accounting is a fetch_add per input byte
        // (~3 bytes/event), worth ~10% while a drill is armed.
        paths.push_back({"stream", stream_once, p,
                         fault_points_compiled() ? 0.25 : 0.10});
    }

    bool ok = true;
    for (const PathRow& path : paths) {
        const double disarmed = best_of3(path.run);
        inj.arm(path.idle);
        const double armed = best_of3(path.run);
        inj.disarm();
        if (inj.fires() != 0) {
            std::fprintf(stderr,
                         "FAIL: armed-idle plan fired %llu time(s) on "
                         "%s — trigger accounting is broken\n",
                         static_cast<unsigned long long>(inj.fires()),
                         path.name);
            ok = false;
        }
        auto evs = [&trace](double s) {
            return s > 0 ? static_cast<double>(trace.size()) / s : 0.0;
        };
        const double evs_off = evs(disarmed);
        const double evs_idle = evs(armed);
        const double delta =
            evs_off > 0 ? (evs_off - evs_idle) / evs_off : 0.0;
        std::printf("%10s  %14.0f  %14.0f  %+7.1f%%\n", path.name, evs_off,
                    evs_idle, -delta * 100.0);
        if (delta > path.floor) {
            std::fprintf(stderr,
                         "FAIL: armed-idle throughput on the %s path "
                         "dropped %.1f%% (>%.0f%% floor) — a fault hook "
                         "got expensive\n",
                         path.name, delta * 100.0, path.floor * 100.0);
            ok = false;
        }
    }
    if (ok)
        std::printf("fault-overhead smoke passed\n");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--budget" && i + 1 < argc)
            args.budget = std::stod(argv[++i]);
        else if (a == "--points" && i + 1 < argc)
            args.points = std::stoi(argv[++i]);
        else if (a == "--updsets")
            args.updsets_mode = true;
        else if (a == "--faults")
            args.faults_mode = true;
        else if (a == "--ingest")
            args.ingest_mode = true;
        else if (a == "--quick")
            args.quick = true;
        else if (a == "--json" && i + 1 < argc)
            args.json_path = argv[++i];
    }
    if (args.ingest_mode)
        return run_ingest_bench(args);
    if (args.faults_mode)
        return run_faults_smoke(args);
    if (args.updsets_mode)
        return run_updsets_smoke(args);

    std::printf("Scaling series: linear-time AeroDrome vs graph-based "
                "Velodrome\n(per-series Velodrome budget: %.3gs)\n",
                args.budget);

    {
        std::vector<Trace> traces;
        uint32_t rounds = 500;
        for (int i = 0; i < args.points; ++i, rounds *= 2) {
            gen::StarOptions opts;
            opts.producers = 2;
            opts.consumers = 2;
            opts.rounds = rounds;
            traces.push_back(gen::make_star(opts));
        }
        run_series("star (graph grows; Velodrome superlinear)", traces,
                   args.budget);
    }
    {
        std::vector<Trace> traces;
        uint32_t rounds = 12500;
        for (int i = 0; i < args.points; ++i, rounds *= 2)
            traces.push_back(gen::make_pipeline(4, rounds));
        run_series("pipeline (GC collects everything; both linear)",
                   traces, args.budget);
    }
    {
        std::vector<Trace> traces;
        uint32_t txns = 5000;
        for (int i = 0; i < args.points; ++i, txns *= 2)
            traces.push_back(gen::make_independent(4, txns, 8));
        run_series("independent (no conflicts; pure per-event overhead)",
                   traces, args.budget);
    }
    std::printf("\nExpected shape: 'aero ns/ev' stays roughly flat in "
                "every series;\n'velo ns/ev' grows with trace size in the "
                "star series only.\n");
    return 0;
}
