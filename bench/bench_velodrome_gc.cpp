/**
 * @file
 * Experiment E6 — effect of Velodrome's garbage-collection optimization
 * (Section 5.1 credits it for the small graphs on Table 2 / GC-friendly
 * rows: "13 nodes in the graph for pmd, 4 nodes in sor").
 *
 * For each workload the harness runs Velodrome with GC on and off and
 * writes one row per run (engine, gc, seconds, events/s, end footprint,
 * reclamation counters) to BENCH_velodrome_gc.json.
 *
 * The run is also a gate: on the GC-friendly workloads (independent,
 * pipeline, naive — every transaction's predecessors complete) the
 * gc-on peak live graph must stay under the floor of a few dozen nodes
 * the paper describes, and GC must actually have deleted nodes. On the
 * star workload live hub transactions pin the whole graph, so the gate
 * instead checks GC *doesn't* pretend to collect it. A violated floor
 * exits non-zero.
 *
 * Usage: bench_velodrome_gc [--budget SECONDS] [--json PATH]
 */

#include <cstdio>
#include <string>

#include "analysis/runner.hpp"
#include "gen/patterns.hpp"
#include "support/str.hpp"
#include "velodrome/velodrome.hpp"

namespace {

using namespace aero;

struct Row {
    std::string workload;
    bool gc = false;
    RunResult result;
    VelodromeStats stats;
    size_t mem_end = 0;
};

/** Peak nodes the paper-scale GC-friendly workloads may keep live. */
constexpr uint64_t kGcFloorNodes = 64;

Row
run_one(const char* name, const Trace& t, bool gc, double budget)
{
    VelodromeOptions opts;
    opts.garbage_collect = gc;
    Velodrome v(t.num_threads(), t.num_vars(), t.num_locks(), opts);
    RunBudget rb;
    rb.max_seconds = budget;
    Row row;
    row.workload = name;
    row.gc = gc;
    row.result = run_checker(v, t, rb);
    row.stats = v.stats();
    row.mem_end = v.memory_bytes();
    return row;
}

void
append_row(std::string& json, const Row& r, bool last)
{
    const double evs =
        r.result.seconds > 0
            ? static_cast<double>(r.result.events_processed) /
                  r.result.seconds
            : 0.0;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"workload\": \"%s\", \"engine\": \"velodrome\", "
        "\"gc\": %s, \"events\": %llu, \"seconds\": %.4f, "
        "\"events_per_s\": %.0f, \"memory_end_bytes\": %zu, "
        "\"timed_out\": %s, \"max_live_nodes\": %llu, "
        "\"gc_deleted\": %llu, \"dfs_visits\": %llu}%s\n",
        r.workload.c_str(), r.gc ? "true" : "false",
        static_cast<unsigned long long>(r.result.events_processed),
        r.result.seconds, evs, r.mem_end,
        r.result.timed_out ? "true" : "false",
        static_cast<unsigned long long>(r.stats.max_live_nodes),
        static_cast<unsigned long long>(r.stats.gc_deleted),
        static_cast<unsigned long long>(r.stats.dfs_visits),
        last ? "" : ",");
    json += buf;
}

bool
run_workload(std::string& json, const char* name, const Trace& t,
             bool collectible, double budget, bool last)
{
    std::printf("%-24s %10s events\n", name,
                with_commas(t.size()).c_str());
    Row on = run_one(name, t, true, budget);
    Row off = run_one(name, t, false, budget);
    for (const Row* r : {&on, &off}) {
        std::printf("  gc=%-3s  %-3s  time %10s  peak nodes %10s  "
                    "dfs visits %14s  collected %10s  mem %12s B\n",
                    r->gc ? "on" : "off", r->result.verdict(),
                    r->result.timed_out
                        ? "TO"
                        : format_duration(r->result.seconds).c_str(),
                    with_commas(r->stats.max_live_nodes).c_str(),
                    with_commas(r->stats.dfs_visits).c_str(),
                    with_commas(r->stats.gc_deleted).c_str(),
                    with_commas(r->mem_end).c_str());
    }
    append_row(json, on, false);
    append_row(json, off, last);

    bool ok = true;
    if (collectible) {
        if (!on.result.timed_out &&
            on.stats.max_live_nodes > kGcFloorNodes) {
            std::fprintf(stderr,
                         "FAIL: %s with gc kept %llu live nodes "
                         "(floor %llu) — Velodrome GC regressed\n",
                         name,
                         static_cast<unsigned long long>(
                             on.stats.max_live_nodes),
                         static_cast<unsigned long long>(kGcFloorNodes));
            ok = false;
        }
        // A run that stops at a violation (or the budget) may not have
        // reached a collection point; only a full serializable pass
        // must show the mechanism actually deleting.
        if (!on.result.violation && !on.result.timed_out &&
            on.stats.gc_deleted == 0) {
            std::fprintf(stderr,
                         "FAIL: %s with gc deleted nothing — the floor "
                         "above measured an empty mechanism\n",
                         name);
            ok = false;
        }
    } else if (on.stats.max_live_nodes <= kGcFloorNodes &&
               !on.result.violation) {
        std::fprintf(stderr,
                     "FAIL: %s (uncollectible hub) reported a tiny live "
                     "graph — GC deleted nodes it must keep\n",
                     name);
        ok = false;
    }
    return ok;
}

} // namespace

int
main(int argc, char** argv)
{
    double budget = 5.0;
    std::string json_path = "BENCH_velodrome_gc.json";
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--budget" && i + 1 < argc)
            budget = std::stod(argv[++i]);
        else if (std::string(argv[i]) == "--json" && i + 1 < argc)
            json_path = argv[++i];
    }
    std::printf("Velodrome garbage-collection ablation "
                "(budget %.3gs per run)\n\n", budget);

    std::string json = "{\n  \"rows\": [\n";
    bool ok = true;
    ok &= run_workload(json, "independent 8x20000",
                       gen::make_independent(8, 20000, 8), true, budget,
                       false);
    ok &= run_workload(json, "pipeline 4x50000",
                       gen::make_pipeline(4, 50000), true, budget, false);
    {
        gen::NaiveSpecOptions n;
        n.threads = 6;
        n.events_per_thread = 100000;
        n.conflict_position = 0.9;
        ok &= run_workload(json, "naive 6x100000", gen::make_naive_spec(n),
                           true, budget, false);
    }
    {
        gen::StarOptions s;
        s.producers = 2;
        s.consumers = 2;
        s.rounds = 4000;
        ok &= run_workload(json, "star p2/c2 r4000", gen::make_star(s),
                           false, budget, true);
    }
    json += "  ]\n}\n";

    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());

    std::printf("Expected shape: GC keeps peak nodes tiny everywhere "
                "except the star,\nwhere live hub transactions pin the "
                "whole graph and GC does not help.\n");
    if (ok)
        std::printf("velodrome gc floor passed\n");
    return ok ? 0 : 1;
}
