/**
 * @file
 * Golden-verdict regression corpus.
 *
 * Locks the exact verdict (serializable / violation, violating index and
 * thread) of every engine — both AeroDrome engines (Algorithm 1 and
 * Algorithm 3) with the epoch-adaptive storage on and off, plus the
 * Velodrome baseline —
 * over a deterministic corpus: the fuzz-program seeds the differential
 * suites use, directed cycles, and the open-transaction carrier chains
 * (gen/adversarial.hpp). Any future engine
 * change that silently shifts a verdict (a check reordered, a gate
 * loosened, a generator drifting) fails this test loudly with the exact
 * corpus line that moved.
 *
 * The expected file is checked in at tests/golden/verdicts.txt. To
 * regenerate after an *intentional* verdict change:
 *
 *     AERO_REGEN_GOLDEN=1 ./build/golden_verdicts_test
 *
 * then review the diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/adversarial.hpp"
#include "gen/random_program.hpp"
#include "sim/scheduler.hpp"
#include "trace/builder.hpp"
#include "velodrome/velodrome.hpp"

#ifndef AERO_SOURCE_DIR
#define AERO_SOURCE_DIR "."
#endif

namespace aero {
namespace {

struct Workload {
    std::string name;
    Trace trace;
};

Trace
fuzz_trace(uint64_t seed, uint32_t threads, uint32_t vars, uint32_t locks,
           double txnp)
{
    gen::RandomProgramOptions opts;
    opts.seed = seed;
    opts.threads = threads;
    opts.shared_vars = vars;
    opts.locks = locks;
    opts.txn_probability = txnp;
    opts.steps_per_thread = 50;
    sim::Program prog = gen::make_random_program(opts);
    sim::SchedulerOptions sched;
    sched.seed = seed * 7919 + 13;
    sim::SimResult sim = sim::run_program(prog, sched);
    EXPECT_FALSE(sim.deadlocked);
    return std::move(sim.trace);
}

/** t1: [w(x) ... r(y)] vs t2: [r(x) w(y)] — the closing read of y sees
 *  t1's own transaction through t2's write. */
Trace
two_var_cycle()
{
    TraceBuilder b;
    b.begin("t1").write("t1", "x");
    b.begin("t2").read("t2", "x");
    b.write("t2", "y");
    b.read("t1", "y");
    b.end("t1").end("t2");
    return b.take();
}

/** Same cycle, but the t1 -> t2 edge is carried by a lock handoff: t1
 *  releases l inside its open transaction and t2 acquires it. */
Trace
lock_carried_cycle()
{
    TraceBuilder b;
    b.begin("t1").write("t1", "x");
    b.acquire("t1", "l").release("t1", "l");
    b.acquire("t2", "l");
    b.begin("t2").write("t2", "y");
    b.read("t1", "y");
    b.end("t1").end("t2");
    return b.take();
}

/** t1 -> t2 via x, t2 -> t3 via y, t3 -> t1 via z. */
Trace
three_thread_cycle()
{
    TraceBuilder b;
    b.begin("t1").write("t1", "x");
    b.begin("t2").read("t2", "x").write("t2", "y");
    b.begin("t3").read("t3", "y").write("t3", "z");
    b.read("t1", "z");
    b.end("t1").end("t2").end("t3");
    return b.take();
}

/** Serializable ping-pong: ordered handoffs only. */
Trace
ping_pong()
{
    TraceBuilder b;
    for (int round = 0; round < 8; ++round) {
        b.begin("t1").write("t1", "x").write("t1", "y").end("t1");
        b.begin("t2").read("t2", "x").read("t2", "y").end("t2");
    }
    return b.take();
}

/** The corpus: same shapes the differential suites sweep, named so a
 *  golden mismatch identifies its input immediately. */
std::vector<Workload>
make_corpus()
{
    std::vector<Workload> out;
    uint64_t seed = 9000;
    for (uint32_t threads : {2u, 4u, 8u}) {
        for (uint32_t vars : {2u, 6u, 24u}) {
            for (double txnp : {0.3, 0.8}) {
                char name[64];
                std::snprintf(name, sizeof(name),
                              "fuzz(seed=%llu,thr=%u,vars=%u,txnp=%.1f)",
                              static_cast<unsigned long long>(seed),
                              threads, vars, txnp);
                out.push_back({name, fuzz_trace(seed, threads, vars,
                                                1 + threads / 2, txnp)});
                ++seed;
            }
        }
    }
    for (uint64_t s = 9100; s < 9110; ++s) {
        char name[64];
        std::snprintf(name, sizeof(name), "fuzz-varheavy(seed=%llu)",
                      static_cast<unsigned long long>(s));
        out.push_back({name, fuzz_trace(s, 4, 16, 1, 0.9)});
    }
    for (uint32_t hops : {1u, 2u, 3u}) {
        for (int variant = 0; variant < 4; ++variant) {
            gen::CarrierChainOptions o;
            o.hops = hops;
            o.open_carriers = (variant != 1);
            o.close_by_write = (variant == 2);
            o.serializable = (variant == 3);
            char name[64];
            std::snprintf(name, sizeof(name), "adversary(hops=%u,v=%d)",
                          hops, variant);
            out.push_back({name, gen::make_carrier_chain(o)});
        }
    }
    // Entries below were appended after the ones above; keep appending so
    // existing fixture lines never move.
    out.push_back({"directed(two-var-cycle)", two_var_cycle()});
    out.push_back({"directed(lock-carried-cycle)", lock_carried_cycle()});
    out.push_back({"directed(three-thread-cycle)", three_thread_cycle()});
    out.push_back({"directed(ping-pong)", ping_pong()});
    for (uint32_t hops : {1u, 2u, 3u, 7u}) {
        for (uint32_t offset : {0u, 1u, 2u, 3u, 5u}) {
            for (bool open_carriers : {true, false}) {
                for (bool close_by_write : {false, true}) {
                    // Already covered by the v=0..2 entries above.
                    if (offset == 0 && hops <= 3 &&
                        (open_carriers || !close_by_write))
                        continue;
                    gen::CarrierChainOptions o;
                    o.hops = hops;
                    o.offset = offset;
                    o.open_carriers = open_carriers;
                    o.close_by_write = close_by_write;
                    char name[80];
                    std::snprintf(name, sizeof(name),
                                  "adversary(hops=%u,off=%u,open=%d,"
                                  "write=%d)",
                                  hops, offset, open_carriers ? 1 : 0,
                                  close_by_write ? 1 : 0);
                    out.push_back({name, gen::make_carrier_chain(o)});
                }
            }
        }
    }
    for (uint32_t hops : {2u, 3u}) {
        gen::CarrierChainOptions o;
        o.hops = hops;
        o.retouch = true;
        char name[64];
        std::snprintf(name, sizeof(name), "adversary(hops=%u,retouch)", hops);
        out.push_back({name, gen::make_carrier_chain(o)});
        o.retouch = false;
        o.lock_carrier = true;
        std::snprintf(name, sizeof(name), "adversary(hops=%u,lock)", hops);
        out.push_back({name, gen::make_carrier_chain(o)});
    }
    return out;
}

void
append_line(std::string& golden, const std::string& workload,
            const char* engine, int epochs, const RunResult& r)
{
    char line[160];
    if (r.violation) {
        std::snprintf(line, sizeof(line),
                      "%s %s epochs=%d verdict=x index=%zu thread=%u\n",
                      workload.c_str(), engine, epochs,
                      r.details->event_index, r.details->thread);
    } else {
        std::snprintf(line, sizeof(line),
                      "%s %s epochs=%d verdict=ok events=%llu\n",
                      workload.c_str(), engine, epochs,
                      static_cast<unsigned long long>(r.events_processed));
    }
    golden += line;
}

template <typename Engine>
void
run_engine(std::string& golden, const Workload& w, const char* name,
           bool epochs, bool gc)
{
    Engine engine(w.trace.num_threads(), w.trace.num_vars(),
                  w.trace.num_locks());
    engine.set_epochs(epochs);
    engine.set_gc(gc);
    if (gc)
        engine.set_gc_sweep_every(1);
    RunResult r = run_checker(engine, w.trace);
    append_line(golden, w.name, name, epochs ? 1 : 0, r);
}

/** The full corpus fixture; with gc on, reclamation sweeps run at every
 *  transaction end and the output must still be byte-identical. */
std::string
generate_golden(bool gc)
{
    std::string golden;
    golden += "# engine x corpus verdict fixture; regenerate with "
              "AERO_REGEN_GOLDEN=1 ./golden_verdicts_test\n";
    for (const Workload& w : make_corpus()) {
        for (bool epochs : {true, false}) {
            run_engine<AeroDromeBasic>(golden, w, "aerodrome-basic",
                                       epochs, gc);
            run_engine<AeroDromeOpt>(golden, w, "aerodrome", epochs, gc);
        }
        {
            Velodrome velo(w.trace.num_threads(), w.trace.num_vars(),
                           w.trace.num_locks());
            velo.set_gc(gc);
            append_line(golden, w.name, "velodrome", 0,
                        run_checker(velo, w.trace));
        }
    }
    return golden;
}

void
expect_matches_fixture(const std::string& golden, bool allow_regen)
{
    const std::string path =
        std::string(AERO_SOURCE_DIR) + "/tests/golden/verdicts.txt";

    if (allow_regen && std::getenv("AERO_REGEN_GOLDEN")) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << golden;
        GTEST_SKIP() << "regenerated " << path << " — review the diff";
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing fixture " << path
        << " (regenerate with AERO_REGEN_GOLDEN=1)";
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string expected = buf.str();

    if (expected == golden) {
        SUCCEED();
        return;
    }
    // Report the first diverging line, not a wall of text.
    std::istringstream a(expected), b(golden);
    std::string la, lb;
    size_t line = 0;
    while (true) {
        const bool ga = static_cast<bool>(std::getline(a, la));
        const bool gb = static_cast<bool>(std::getline(b, lb));
        ++line;
        if (!ga && !gb)
            break;
        ASSERT_TRUE(ga && gb) << "fixture length changed at line " << line;
        ASSERT_EQ(la, lb) << "verdict drifted at line " << line;
    }
    FAIL() << "fixture mismatch"; // unreachable: loop asserts first
}

TEST(GoldenVerdicts, CorpusVerdictsMatchTheCheckedInFixture)
{
    expect_matches_fixture(generate_golden(false), true);
}

TEST(GoldenVerdicts, GcOnReproducesTheFixtureByteForByte)
{
    // Reclamation must not move a single verdict, index, or thread on
    // the whole corpus — the gc-on regeneration hits the same fixture.
    // The gc-on pass never regenerates: the fixture is defined by the
    // gc-off run, and gc must reproduce it.
    expect_matches_fixture(generate_golden(true), false);
}

} // namespace
} // namespace aero
