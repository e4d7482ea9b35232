/**
 * @file
 * Reclamation-safety tests for clock-entry GC and thread-slot recycling
 * (src/vc/gc.hpp, AdaptiveClockTable's gc_* block, the engines'
 * retire_slot; src/vc/README.md, "Reclamation").
 *
 * Directed cases pin the two boundaries the design note calls out:
 *  - strictness: an entry exactly AT the frontier can equal the gate of
 *    a live transaction and must survive a sweep; one tick below is
 *    provably unreachable and must be reclaimed;
 *  - continuation: a reissued thread slot must not alias the dead
 *    thread's stale epochs — the retire path continues the slot's own
 *    component past every value the dead thread minted.
 *
 * The fuzz layer then enforces the global claim the tentpole rests on:
 * reclamation is *invisible* — verdict, firing event and charged thread
 * are bit-identical with gc on (sweeping at every end, the most hostile
 * schedule) and off, for every engine, with epochs on and off and with
 * update-set tracking on and off.
 */

#include <gtest/gtest.h>

#include <memory>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/random_program.hpp"
#include "gen/rolling_stream.hpp"
#include "sim/scheduler.hpp"
#include "trace/builder.hpp"
#include "vc/adaptive_clock.hpp"
#include "vc/gc.hpp"
#include "velodrome/velodrome.hpp"

namespace aero {
namespace {

// ---------------------------------------------------------------------
// Frontier semantics.

TEST(GcFrontier, PointwiseMinOverLiveClocks)
{
    ClockBank bank;
    bank.ensure_dim(3);
    bank.ensure_rows(2);
    bank[0].set(0, 7);
    bank[0].set(1, 4);
    bank[1].set(0, 5);
    bank[1].set(1, 9);
    // Component 2 is bottom in both clocks.

    GcFrontier f;
    f.reset(3);
    f.accumulate(bank[0]);
    f.accumulate(bank[1]);
    EXPECT_EQ(f.get(0), 5u);
    EXPECT_EQ(f.get(1), 4u);
    EXPECT_EQ(f.get(2), 0u);
}

TEST(GcFrontier, DeadnessIsAtOrBelowUnlessTheGateIsActive)
{
    ClockBank bank;
    bank.ensure_dim(2);
    bank.ensure_rows(1);
    bank[0].set(1, 5);

    GcFrontier f;
    f.reset(2);
    f.accumulate(bank[0]);

    // AT the frontier with no active transaction at thread 1: the next
    // gate is minted by a begin tick (> 5), so the value is settled.
    EXPECT_TRUE(f.dead_component(1, 5));
    EXPECT_TRUE(f.dead_component(1, 4));
    // Bottom components are trivially dead.
    EXPECT_TRUE(f.dead_component(1, 0));
    EXPECT_TRUE(f.dead_component(0, 0));

    // Thread 1 mid-transaction: its gate equals its own component, so
    // an entry exactly at the gate must survive; one below still dies.
    f.cap_active(1, 5);
    EXPECT_FALSE(f.dead_component(1, 5));
    EXPECT_TRUE(f.dead_component(1, 4));
}

// ---------------------------------------------------------------------
// Table-level reclamation.

class TableGcTest : public ::testing::Test {
protected:
    static constexpr size_t kDim = 4;

    void
    SetUp() override
    {
        scratch_.ensure_dim(kDim);
        scratch_.ensure_rows(1);
        tbl_.ensure_dim(kDim);
        tbl_.set_epochs_enabled(true);
    }

    ConstClockRef
    ref(const VectorClock& v)
    {
        ClockRef r = scratch_[0];
        r.clear();
        for (size_t i = 0; i < kDim && i < v.dim(); ++i)
            r.set(i, v.get(i));
        return scratch_[0];
    }

    /** Frontier with F[u] = f_u for the provided components. */
    GcFrontier
    frontier(const VectorClock& v)
    {
        live_.ensure_dim(kDim);
        live_.ensure_rows(1);
        ClockRef r = live_[0];
        r.clear();
        for (size_t i = 0; i < kDim && i < v.dim(); ++i)
            r.set(i, v.get(i));
        GcFrontier f;
        f.reset(kDim);
        f.accumulate(live_[0]);
        return f;
    }

    ClockBank scratch_;
    ClockBank live_;
    AdaptiveClockTable tbl_;
};

TEST_F(TableGcTest, EntryAtActiveGateSurvivesOneBelowIsReclaimed)
{
    uint32_t at = tbl_.add_entry();
    uint32_t below = tbl_.add_entry();
    tbl_.assign(at, ref(VectorClock{0, 5}), 1, true);    // epoch 5@1
    tbl_.assign(below, ref(VectorClock{0, 4}), 1, true); // epoch 4@1

    // Thread 1 is mid-transaction with gate 5@1: the entry exactly at
    // the gate must survive the sweep; one below must not.
    GcFrontier f = frontier(VectorClock{9, 5, 9, 9});
    f.cap_active(1, 5);
    EXPECT_FALSE(tbl_.gc_dead(at, f));
    EXPECT_TRUE(tbl_.gc_dead(below, f));

    size_t live = tbl_.gc_sweep(f);
    EXPECT_EQ(live, 1u);
    EXPECT_EQ(tbl_.to_vector_clock(at), (VectorClock{0, 5}));
    EXPECT_TRUE(tbl_.is_bottom(below));
    EXPECT_EQ(tbl_.stats().gc_reclaimed.load(), 1u);
}

TEST_F(TableGcTest, SettledEntryAtFrontierIsReclaimed)
{
    // Same entry, but thread 1 is between transactions: 5@1 can never
    // gate again (future gates are minted by begin ticks, > 5).
    uint32_t i = tbl_.add_entry();
    tbl_.assign(i, ref(VectorClock{0, 5}), 1, true);
    GcFrontier f = frontier(VectorClock{9, 5, 9, 9});
    EXPECT_TRUE(tbl_.gc_dead(i, f));
    EXPECT_EQ(tbl_.gc_sweep(f), 0u);
    EXPECT_TRUE(tbl_.is_bottom(i));
}

TEST_F(TableGcTest, DeadInflatedRowReturnsToTheArenaFreeList)
{
    uint32_t i = tbl_.add_entry();
    tbl_.assign(i, ref(VectorClock{3}), 0, true);
    tbl_.join(i, ref(VectorClock{0, 2}), 1, true); // inflates: {3,2}
    ASSERT_EQ(tbl_.arena_rows_live(), 1u);

    // Every component strictly below the frontier: the row is dead.
    size_t live = tbl_.gc_sweep(frontier(VectorClock{4, 3, 1, 1}));
    EXPECT_EQ(live, 0u);
    EXPECT_EQ(tbl_.arena_rows_live(), 0u);
    EXPECT_TRUE(tbl_.is_bottom(i));
    EXPECT_EQ(tbl_.stats().gc_rows_freed.load(), 1u);

    // The freed row is reused before the arena grows.
    size_t rows_before = tbl_.arena_rows();
    uint32_t j = tbl_.add_entry();
    tbl_.assign(j, ref(VectorClock{5}), 0, true);
    tbl_.join(j, ref(VectorClock{0, 6}), 1, true); // inflates again
    EXPECT_EQ(tbl_.arena_rows(), rows_before);
    EXPECT_EQ(tbl_.arena_rows_live(), 1u);
}

TEST_F(TableGcTest, InflatedRowAtActiveGateSurvives)
{
    uint32_t i = tbl_.add_entry();
    tbl_.assign(i, ref(VectorClock{3}), 0, true);
    tbl_.join(i, ref(VectorClock{0, 2}), 1, true); // {3,2}

    // Component 0 equals thread 0's active gate: not dead.
    GcFrontier f = frontier(VectorClock{3, 3, 1, 1});
    f.cap_active(0, 3);
    size_t live = tbl_.gc_sweep(f);
    EXPECT_EQ(live, 1u);
    EXPECT_EQ(tbl_.to_vector_clock(i), (VectorClock{3, 2}));
}

TEST_F(TableGcTest, RecycledIndexIsHandedOutAgain)
{
    uint32_t a = tbl_.add_entry_reusable();
    tbl_.assign(a, ref(VectorClock{0, 4}), 1, true);
    tbl_.gc_sweep(frontier(VectorClock{9, 5, 9, 9})); // 4@1 dies
    ASSERT_TRUE(tbl_.is_bottom(a));

    tbl_.gc_recycle_index(a);
    EXPECT_EQ(tbl_.free_entry_count(), 1u);
    EXPECT_EQ(tbl_.add_entry_reusable(), a);
    EXPECT_EQ(tbl_.free_entry_count(), 0u);

    // add_entry (the triple-contiguity path) must never reuse.
    tbl_.gc_recycle_index(a);
    uint32_t fresh = tbl_.add_entry();
    EXPECT_NE(fresh, a);
}

TEST_F(TableGcTest, SweepWorksWithEpochsDisabled)
{
    tbl_.set_epochs_enabled(false);
    uint32_t i = tbl_.add_entry();
    tbl_.assign(i, ref(VectorClock{0, 4}), 1, false); // inflated form
    size_t live = tbl_.gc_sweep(frontier(VectorClock{9, 5, 9, 9}));
    EXPECT_EQ(live, 0u);
    EXPECT_TRUE(tbl_.is_bottom(i));
}

// ---------------------------------------------------------------------
// Engine-level directed cases.

/** fork a; a writes x in a txn; join a; fork b (reuses a's slot); b runs
 *  a txn reading x. Ordered through the join: no violation — unless a
 *  reissued slot aliases the dead thread's epochs, in which case b's
 *  fresh begin gate could match a's stale W_x and fire spuriously. */
Trace
churn_trace()
{
    TraceBuilder b;
    b.fork("m", "a");
    b.begin("a").write("a", "x").end("a");
    b.join("m", "a");
    b.fork("m", "b");
    b.begin("b").read("b", "x").write("b", "x").end("b");
    b.join("m", "b");
    return b.take();
}

template <typename Engine>
void
expect_no_alias()
{
    Trace tr = churn_trace();
    Engine e(tr.num_threads(), tr.num_vars(), tr.num_locks());
    e.set_gc(true);
    e.set_gc_sweep_every(1);
    RunResult r = run_checker(e, tr);
    EXPECT_FALSE(r.violation) << e.name()
                              << ": reissued slot aliased stale state";
    EXPECT_GE(e.thread_slots().retired(), 1u) << e.name();
    EXPECT_GE(e.thread_slots().recycled(), 1u) << e.name();
}

TEST(EngineGc, RecycledSlotDoesNotAliasStaleEpochs)
{
    expect_no_alias<AeroDromeBasic>();
    expect_no_alias<AeroDromeOpt>();
}

TEST(EngineGc, RecyclingKeepsTheRowCountAtTheLivePopulation)
{
    // 1 main + 1 live worker at any time, across 8 generations: the slot
    // map must stay at 2 slots however many external ids appear.
    TraceBuilder b;
    std::string prev = "w0";
    b.fork("m", prev);
    for (int g = 1; g <= 8; ++g) {
        std::string cur = "w" + std::to_string(g);
        b.begin(prev).write(prev, "x").end(prev);
        b.join("m", prev);
        b.fork("m", cur);
        prev = cur;
    }
    b.join("m", prev);
    Trace tr = b.take();

    AeroDromeOpt e(0, 0, 0);
    e.set_gc(true);
    RunResult r = run_checker(e, tr);
    EXPECT_FALSE(r.violation);
    EXPECT_LE(e.thread_slots().slots(), 2u);
    EXPECT_EQ(e.thread_slots().retired(), 9u); // w0..w8
    EXPECT_EQ(e.thread_slots().recycled(), 8u); // w1..w8 reuse w(i-1)'s
}

// ---------------------------------------------------------------------
// Fuzz parity: gc on (sweeping at every end) == gc off, for every
// engine, on verdict, firing event and charged thread.

Trace
fuzz_trace(uint64_t seed)
{
    gen::RandomProgramOptions opts;
    opts.seed = seed;
    opts.threads = 4;
    opts.shared_vars = 5;
    opts.locks = 2;
    opts.txn_probability = 0.8;
    opts.steps_per_thread = 50;
    opts.fork_join = true; // joins make slots retire mid-trace
    sim::Program prog = gen::make_random_program(opts);

    sim::SchedulerOptions sched;
    sched.seed = seed * 7919 + 13;
    sched.policy = sim::Policy::kRandom;
    sim::SimResult sim = sim::run_program(prog, sched);
    EXPECT_FALSE(sim.deadlocked);
    return std::move(sim.trace);
}

void
expect_same_outcome(const char* tag, const RunResult& off,
                    const RunResult& on)
{
    ASSERT_EQ(off.violation, on.violation) << tag;
    if (off.violation) {
        EXPECT_EQ(off.details->event_index, on.details->event_index) << tag;
        EXPECT_EQ(off.details->thread, on.details->thread) << tag;
    }
}

template <typename Engine>
RunResult
run_aero(const Trace& tr, bool gc, bool epochs, bool upd_sets)
{
    Engine e(tr.num_threads(), tr.num_vars(), tr.num_locks());
    e.set_epochs(epochs);
    e.set_gc(gc);
    if (gc)
        e.set_gc_sweep_every(1); // most hostile sweep schedule
    e.set_update_sets(upd_sets);
    return run_checker(e, tr);
}

class GcParityFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GcParityFuzz, ReclamationIsInvisible)
{
    Trace tr = fuzz_trace(GetParam());
    for (bool epochs : {true, false}) {
        for (bool upd : {true, false}) {
            expect_same_outcome(
                "basic",
                run_aero<AeroDromeBasic>(tr, false, epochs, upd),
                run_aero<AeroDromeBasic>(tr, true, epochs, upd));
            expect_same_outcome(
                "opt",
                run_aero<AeroDromeOpt>(tr, false, epochs, upd),
                run_aero<AeroDromeOpt>(tr, true, epochs, upd));
        }
    }

    // The graph engines map set_gc onto their node GC; the reclamation
    // rule (no incoming edges => never on a cycle) is verdict-preserving.
    auto run_graph = [&](auto make, bool gc) {
        auto e = make();
        e->set_gc(gc);
        return run_checker(*e, tr);
    };
    auto mk_velo = [&] {
        return std::make_unique<Velodrome>(tr.num_threads(), tr.num_vars(),
                                           tr.num_locks());
    };
    expect_same_outcome("velodrome", run_graph(mk_velo, false),
                        run_graph(mk_velo, true));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcParityFuzz,
                         ::testing::Range<uint64_t>(2000, 2040));

// ---------------------------------------------------------------------
// Rolling-stream sanity: the churn workload is violation-free by
// construction; with gc on and heavy churn, every engine must still say
// "no violation", slots must actually recycle, and entries must
// actually be reclaimed.

template <typename Engine>
void
expect_clean_stream()
{
    gen::RollingStreamOptions opts;
    opts.workers = 4;
    opts.churn_every = 256;
    opts.vars = 64;
    opts.hot_window = 32;
    opts.drift_every = 512;
    opts.locks = 4;
    opts.max_events = 20000;
    gen::RollingStreamSource src(opts);

    Engine e(0, 0, 0);
    e.set_gc(true);
    e.set_gc_sweep_every(8);
    RunResult r = run_checker_stream(e, src);
    EXPECT_FALSE(r.violation) << e.name();
    EXPECT_EQ(r.events_processed, opts.max_events) << e.name();
    EXPECT_GT(e.thread_slots().recycled(), 0u) << e.name();
    EXPECT_GT(e.gc_sweeps(), 0u) << e.name();
    // Live population: 1 main + workers (+1 transiently during churn).
    EXPECT_LE(e.thread_slots().slots(), opts.workers + 2u) << e.name();
}

TEST(RollingStream, AllEnginesCleanUnderChurnWithGc)
{
    expect_clean_stream<AeroDromeBasic>();
    expect_clean_stream<AeroDromeOpt>();
}

} // namespace
} // namespace aero
