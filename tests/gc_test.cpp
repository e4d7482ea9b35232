/**
 * @file
 * Reclamation-safety tests for clock-entry GC and thread-slot recycling
 * (src/vc/gc.hpp, AdaptiveClockTable's gc_* block,
 * AeroDromeOpt::retire_slot; src/vc/README.md, "Reclamation"). The
 * Algorithm 1 reference keeps all state: it supplies the verdicts.
 *
 * Directed cases pin the two boundaries the design note calls out:
 *  - strictness: an entry exactly AT the frontier can equal the gate of
 *    a live transaction and must survive a sweep; one tick below is
 *    provably unreachable and must be reclaimed;
 *  - continuation: a reissued thread slot must not alias the dead
 *    thread's stale epochs — the retire path continues the slot's own
 *    component past every value the dead thread minted.
 *
 * The fuzz layer then enforces the global claim reclamation rests on:
 * it is *invisible*. The shipped engine's verdict, firing event and
 * charged thread are bit-identical under the arena-growth sweep trigger
 * and under a sweep at every end (the most hostile schedule), and its
 * verdict equals Algorithm 1's (aerodrome-basic, which keeps all
 * state); Velodrome, which always collects its incoming-edge-free
 * nodes, agrees with the offline oracle.
 *
 * The GcSkip cases pin when the growth trigger skips a sweep's table
 * scans: on star, whose frontier cannot move, sweeps skip and lose no
 * reclamation against a scan at every end; on the rolling stream every
 * sweep reclaims, so none skips. GcSweep pins that a sweep walks the
 * ids a trace uses, whatever its header declares.
 */

#include <gtest/gtest.h>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/patterns.hpp"
#include "gen/random_program.hpp"
#include "gen/rolling_stream.hpp"
#include "oracle/serializability_oracle.hpp"
#include "sim/scheduler.hpp"
#include "trace/builder.hpp"
#include "trace/stream.hpp"
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

TEST_F(TableGcTest, SweepReclaimsAnInflatedEntry)
{
    uint32_t i = tbl_.add_entry();
    tbl_.assign(i, ref(VectorClock{0, 4}), 1, false); // impure: inflates
    ASSERT_TRUE(tbl_.is_inflated(i));
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

TEST(EngineGc, RecycledSlotDoesNotAliasStaleEpochs)
{
    Trace tr = churn_trace();
    // Algorithm 1 keeps every thread's state: the verdict is the reference.
    AeroDromeBasic basic(tr.num_threads(), tr.num_vars(), tr.num_locks());
    EXPECT_FALSE(run_checker(basic, tr).violation) << basic.name();

    AeroDromeOpt e(tr.num_threads(), tr.num_vars(), tr.num_locks());
    e.set_gc_sweep_every(1);
    RunResult r = run_checker(e, tr);
    EXPECT_FALSE(r.violation) << "reissued slot aliased stale state";
    EXPECT_GE(e.thread_slots().retired(), 1u);
    EXPECT_GE(e.thread_slots().recycled(), 1u);
}

TEST(EngineGc, ReissuedSlotDoesNotInheritTheDeadThreadsRelease)
{
    // a reads u's open write and releases l, then is joined; b, a fresh
    // thread nobody forked, takes a's slot and acquires l inside its own
    // transaction, so u's transaction precedes b's through l. b's write
    // read back by u closes the cycle. If retire_slot left l's last
    // releaser naming the slot, b's acquire would take the same-releaser
    // fast path, skip the join, and the cycle would go unreported.
    TraceBuilder b;
    b.begin("u").write("u", "x");
    b.fork("m", "a");
    b.acquire("a", "l").read("a", "x").release("a", "l");
    b.join("m", "a");
    b.begin("b").acquire("b", "l").write("b", "y");
    b.read("u", "y");
    b.release("b", "l").end("b").end("u");
    Trace tr = b.take();

    AeroDromeBasic basic(tr.num_threads(), tr.num_vars(), tr.num_locks());
    ASSERT_TRUE(run_checker(basic, tr).violation) << basic.name();

    AeroDromeOpt e(0, 0, 0);
    RunResult r = run_checker(e, tr);
    ASSERT_TRUE(r.violation) << "the reissued slot inherited a's release";
    EXPECT_EQ(e.thread_slots().recycled(), 1u);
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
    RunResult r = run_checker(e, tr);
    EXPECT_FALSE(r.violation);
    EXPECT_LE(e.thread_slots().slots(), 2u);
    EXPECT_EQ(e.thread_slots().retired(), 9u); // w0..w8
    EXPECT_EQ(e.thread_slots().recycled(), 8u); // w1..w8 reuse w(i-1)'s
}

// ---------------------------------------------------------------------
// Fuzz parity: the shipped engine sweeping at every end == sweeping on
// arena growth, on verdict, firing event and charged thread; both agree
// with Algorithm 1, and Velodrome with the oracle.

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

RunResult
run_opt(const Trace& tr, uint32_t sweep_every)
{
    AeroDromeOpt e(tr.num_threads(), tr.num_vars(), tr.num_locks());
    e.set_gc_sweep_every(sweep_every);
    return run_checker(e, tr);
}

class GcParityFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GcParityFuzz, ReclamationIsInvisible)
{
    Trace tr = fuzz_trace(GetParam());
    const RunResult grown = run_opt(tr, 0); // the shipped trigger
    const RunResult swept = run_opt(tr, 1); // most hostile schedule
    ASSERT_EQ(grown.violation, swept.violation);
    if (grown.violation) {
        EXPECT_EQ(grown.details->event_index, swept.details->event_index);
        EXPECT_EQ(grown.details->thread, swept.details->thread);
    }

    // Algorithm 1 keeps all state: the engine may fire a few events
    // earlier (lazy writes check against the live clock), never on a
    // different verdict.
    AeroDromeBasic basic(tr.num_threads(), tr.num_vars(), tr.num_locks());
    EXPECT_EQ(run_checker(basic, tr).violation, grown.violation);

    // Velodrome's node GC (no incoming edge => never on a cycle) must
    // keep it exact on these closed traces.
    Velodrome velo(tr.num_threads(), tr.num_vars(), tr.num_locks());
    EXPECT_EQ(run_checker(velo, tr).violation,
              !check_serializability(tr).serializable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcParityFuzz,
                         ::testing::Range<uint64_t>(2000, 2040));

// ---------------------------------------------------------------------
// Skipped sweeps: the growth trigger skips a sweep whose frontier equals
// that of the last scan, when that scan reclaimed nothing.

TEST(GcSkip, StarSkipsSweepsThatCannotReclaim)
{
    // The hub's and the feeder's transactions stay open for the whole
    // star phase, and the feeder's clock is 0 in every producer and
    // consumer component, so the frontier cannot move until the feeder
    // ends; after that a ring closes a cycle.
    gen::StarOptions opts;
    opts.rounds = 1000;
    opts.violation_at_end = true;
    const Trace tr = gen::make_star(opts);
    const ThreadId feeder = 1;

    AeroDromeOpt grown(tr.num_threads(), tr.num_vars(), tr.num_locks());
    AeroDromeOpt swept(tr.num_threads(), tr.num_vars(), tr.num_locks());
    swept.set_gc_sweep_every(1); // scans at every end, never skips
    size_t i = 0;
    for (; !(tr[i].op == Op::kEnd && tr[i].tid == feeder); ++i) {
        ASSERT_FALSE(grown.process(tr[i], i));
        ASSERT_FALSE(swept.process(tr[i], i));
    }
    // Skipping lost nothing: over the star phase the sweeps that scan
    // reclaim as much as a scan at every end. (From the feeder's end on,
    // a sweep at every end reclaims entries the growth trigger has no
    // cause to sweep for.)
    EXPECT_GE(grown.gc_sweeps_skipped(), 1u);
    EXPECT_LT(grown.gc_sweeps_skipped(), grown.gc_sweeps());
    EXPECT_EQ(swept.gc_sweeps_skipped(), 0u);
    EXPECT_EQ(grown.epoch_stats().gc_reclaimed,
              swept.epoch_stats().gc_reclaimed);

    for (AeroDromeOpt* e : {&grown, &swept}) {
        for (size_t j = i; j < tr.size(); ++j) {
            if (e->process(tr[j], j))
                break;
        }
    }
    ASSERT_TRUE(grown.has_violation());
    ASSERT_TRUE(swept.has_violation());
    EXPECT_EQ(grown.violation()->event_index, swept.violation()->event_index);
    EXPECT_EQ(grown.violation()->thread, swept.violation()->thread);
}

TEST(GcSkip, RollingSweepsAllScan)
{
    // Every growth-triggered sweep of the rolling stream reclaims, so
    // none may be skipped, and the totals equal those of a scan at every
    // growth trigger. Skipping after a sweep that did reclaim would
    // skip 13 of these 49 sweeps (and 32 of the 182 of perfbench's
    // 750k-event run) yet reclaim the same total, later.
    gen::RollingStreamOptions opts;
    opts.max_events = 200000;
    gen::RollingStreamSource src(opts);
    AeroDromeOpt e(0, 0, 0);
    const RunResult r = run_checker_stream(e, src);
    EXPECT_FALSE(r.violation);
    EXPECT_EQ(e.gc_sweeps(), 49u);
    EXPECT_EQ(e.gc_sweeps_skipped(), 0u);
    EXPECT_EQ(e.epoch_stats().gc_reclaimed, 5079u);
    EXPECT_EQ(e.thread_slots().recycled(), 48u);
}

// ---------------------------------------------------------------------
// The header sizes nothing: a sweep walks the ids the trace uses.

/** A source that streams `inner` under a header declaring the given
 *  dimensions. */
class DeclaredSource : public EventSource {
public:
    DeclaredSource(EventSource& inner, uint32_t threads, uint32_t vars,
                   uint32_t locks)
        : inner_(inner), threads_(threads), vars_(vars), locks_(locks)
    {}

    bool next(Event& out) override { return inner_.next(out); }

    bool
    dimensions(uint32_t& threads, uint32_t& vars,
               uint32_t& locks) const override
    {
        threads = threads_;
        vars = vars_;
        locks = locks_;
        return true;
    }

private:
    EventSource& inner_;
    uint32_t threads_, vars_, locks_;
};

TEST(GcSweep, DeclaredVariableCountMovesNoCounter)
{
    // The rolling stream's variable ring has 4,096 ids. Declaring 2^20
    // variables must not change what the engine does: a pre-size from
    // the header would make every sweep walk 3 x 2^20 entries
    // (gc_scanned_words).
    gen::RollingStreamOptions opts;
    opts.max_events = 200000;
    uint32_t threads = 0;
    {
        gen::RollingStreamSource count(opts);
        Event e;
        while (count.next(e)) {}
        threads = count.threads_issued();
    }
    StatList stats[2];
    const uint32_t declared[2] = {1u << 20, opts.vars};
    for (int k = 0; k < 2; ++k) {
        gen::RollingStreamSource inner(opts);
        DeclaredSource src(inner, threads, declared[k], opts.locks);
        AeroDromeOpt e(0, 0, 0);
        const RunResult r = run_checker_stream(e, src);
        EXPECT_FALSE(r.violation);
        EXPECT_EQ(r.events_processed, opts.max_events);
        stats[k] = e.counters();
    }
    EXPECT_EQ(stats[0], stats[1]);
    uint64_t scanned = 0;
    for (const auto& [name, value] : stats[0]) {
        if (name == "gc_scanned_words")
            scanned = value;
    }
    EXPECT_GT(scanned, 0u);
}

// ---------------------------------------------------------------------
// Rolling-stream sanity: the churn workload is violation-free by
// construction; under heavy churn every engine must still say
// "no violation", and the shipped engine's slots must actually recycle
// and its entries must actually be reclaimed.

gen::RollingStreamOptions
churn_opts()
{
    gen::RollingStreamOptions opts;
    opts.workers = 4;
    opts.churn_every = 256;
    opts.vars = 64;
    opts.hot_window = 32;
    opts.drift_every = 512;
    opts.locks = 4;
    opts.max_events = 20000;
    return opts;
}

TEST(RollingStream, AllEnginesCleanUnderChurnWithGc)
{
    const gen::RollingStreamOptions opts = churn_opts();
    {
        gen::RollingStreamSource src(opts);
        AeroDromeBasic basic(0, 0, 0);
        RunResult r = run_checker_stream(basic, src);
        EXPECT_FALSE(r.violation) << basic.name();
        EXPECT_EQ(r.events_processed, opts.max_events) << basic.name();
    }
    gen::RollingStreamSource src(opts);
    AeroDromeOpt e(0, 0, 0);
    e.set_gc_sweep_every(8);
    RunResult r = run_checker_stream(e, src);
    EXPECT_FALSE(r.violation);
    EXPECT_EQ(r.events_processed, opts.max_events);
    EXPECT_GT(e.thread_slots().recycled(), 0u);
    EXPECT_GT(e.gc_sweeps(), 0u);
    // Live population: 1 main + workers (+1 transiently during churn).
    EXPECT_LE(e.thread_slots().slots(), opts.workers + 2u);
}

} // namespace
} // namespace aero
