/**
 * @file
 * Tests for the extension engine VelodromePK: Velodrome with Pearce-Kelly
 * incremental topological ordering (a stronger graph baseline). It must
 * agree with the oracle on the fuzz corpus.
 */

#include <gtest/gtest.h>

#include "analysis/runner.hpp"
#include "gen/patterns.hpp"
#include "gen/random_program.hpp"
#include "oracle/serializability_oracle.hpp"
#include "sim/scheduler.hpp"
#include "trace/builder.hpp"
#include "velodrome/velodrome_pk.hpp"

namespace aero {
namespace {

template <typename Checker>
RunResult
run(const Trace& trace)
{
    Checker checker(trace.num_threads(), trace.num_vars(),
                    trace.num_locks());
    return run_checker(checker, trace);
}

// --- Paper traces through the extension engine ----------------------------

Trace
rho2()
{
    TraceBuilder b;
    b.begin("t1").begin("t2");
    b.write("t1", "x").read("t2", "x");
    b.write("t2", "y").read("t1", "y");
    b.end("t2").end("t1");
    return b.take();
}

TEST(Extensions, Rho2Verdicts)
{
    EXPECT_TRUE(run<VelodromePK>(rho2()).violation);
}

TEST(Extensions, RingAndPipelineVerdicts)
{
    for (uint32_t k = 2; k <= 5; ++k) {
        Trace ring = gen::make_ring(k);
        EXPECT_TRUE(run<VelodromePK>(ring).violation);
    }
    Trace pipe = gen::make_pipeline(4, 200);
    EXPECT_FALSE(run<VelodromePK>(pipe).violation);
}

// --- VelodromePK specifics -------------------------------------------------

TEST(VelodromePk, FastPathDominatesOnForwardFlowingGraphs)
{
    // Pipeline edges always point from lower to higher topological order:
    // every insertion should take the O(1) fast path. GC is disabled so
    // the edges actually get inserted (with GC the cascade deletes the
    // sources first and no edges materialize at all).
    Trace t = gen::make_pipeline(4, 500);
    VelodromeOptions opts;
    opts.garbage_collect = false;
    VelodromePK v(t.num_threads(), t.num_vars(), t.num_locks(), opts);
    EXPECT_FALSE(run_checker(v, t).violation);
    EXPECT_GT(v.fast_edges(), 0u);
    EXPECT_EQ(v.reordered_edges(), 0u);
}

TEST(VelodromePk, ReordersOnBackEdges)
{
    // The star's hub is created first (lowest order); producer
    // transactions created later point *into* it, forcing reorders.
    gen::StarOptions opts;
    opts.producers = 2;
    opts.consumers = 2;
    opts.rounds = 50;
    Trace t = gen::make_star(opts);
    VelodromePK v(t.num_threads(), t.num_vars(), t.num_locks());
    EXPECT_FALSE(run_checker(v, t).violation);
    EXPECT_GT(v.reordered_edges(), 0u);
}

TEST(VelodromePk, GcStillCollects)
{
    Trace t = gen::make_independent(4, 100, 6);
    VelodromePK v(t.num_threads(), t.num_vars(), t.num_locks());
    EXPECT_FALSE(run_checker(v, t).violation);
    EXPECT_LE(v.stats().max_live_nodes, 8u);
}

TEST(VelodromePk, DetectsOpenTransactionCycles)
{
    TraceBuilder b;
    b.begin("t1").begin("t2");
    b.write("t1", "x").write("t2", "y");
    b.read("t1", "y").read("t2", "x");
    EXPECT_TRUE(run<VelodromePK>(b.trace()).violation);
}

// --- Differential sweep ----------------------------------------------------

class ExtensionDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExtensionDifferential, AgreeWithOracle)
{
    gen::RandomProgramOptions opts;
    opts.seed = GetParam();
    opts.threads = 2 + GetParam() % 5;
    opts.shared_vars = 2 + GetParam() % 9;
    opts.locks = 1 + GetParam() % 3;
    opts.steps_per_thread = 50;
    sim::Program prog = gen::make_random_program(opts);

    sim::SchedulerOptions sched;
    sched.seed = GetParam() * 31 + 7;
    sched.policy = (GetParam() % 2) ? sim::Policy::kRandom
                                    : sim::Policy::kSticky;
    sim::SimResult sim = sim::run_program(prog, sched);
    ASSERT_FALSE(sim.deadlocked);
    const Trace& trace = sim.trace;

    bool expected = !check_serializability(trace).serializable;
    EXPECT_EQ(run<VelodromePK>(trace).violation, expected)
        << "Velodrome-PK vs oracle, seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtensionDifferential,
                         ::testing::Range<uint64_t>(2000, 2150));

} // namespace
} // namespace aero
