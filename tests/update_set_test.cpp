/**
 * @file
 * End-event update sets (the table's update windows; see
 * vc/adaptive_clock.hpp and src/vc/README.md "End-event complexity").
 *
 * Two properties:
 *  1. Complexity guard — an end event's sweep visits O(|update set|)
 *     entries, not O(|table|): a cold transaction ending against a table
 *     of 10k+ touched variables must sweep a handful of entries (the
 *     counters expose the visit count), while the set_update_sets(false)
 *     full sweep visits everything.
 *  2. Fuzz parity — for every engine, verdicts (and spot-checked clock
 *     state) are bit-for-bit identical with update sets on and off, over
 *     the random-program corpus. The sets only *skip* entries whose gate
 *     provably cannot fire.
 *  3. Lazy enrollment — the optimized engine's stale reads and writes
 *     enter only the accessing thread's window (enroll_pending); directed
 *     traces pin the cases where another thread's ordering must still
 *     reach the deferred entry, against the oracle and Algorithm 1.
 */

#include <gtest/gtest.h>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/random_program.hpp"
#include "oracle/serializability_oracle.hpp"
#include "sim/scheduler.hpp"
#include "trace/builder.hpp"
#include "trace/trace.hpp"

namespace aero {
namespace {

/** 10k single-write transactions of thread 0 (one fresh var each), with
 *  one "cold" transaction of thread 1 — nothing ordered into it — split
 *  around them. */
Trace
cold_end_trace(uint32_t touched_vars)
{
    Trace t;
    const uint32_t half = touched_vars / 2;
    for (uint32_t x = 0; x < half; ++x) {
        t.begin(0);
        t.write(0, x);
        t.end(0);
    }
    t.begin(1);
    t.write(1, touched_vars);
    for (uint32_t x = half; x < touched_vars; ++x) {
        t.begin(0);
        t.write(0, x);
        t.end(0);
    }
    t.end(1);
    return t;
}

template <typename Engine>
void
expect_cold_end_sweep_is_small(bool update_sets, uint64_t touched_vars)
{
    Trace t = cold_end_trace(static_cast<uint32_t>(touched_vars));
    Engine engine(t.num_threads(), t.num_vars(), t.num_locks());
    engine.set_update_sets(update_sets);

    // Feed everything but the final end (thread 1's), then isolate the
    // entries swept by that one cold end event.
    for (size_t i = 0; i + 1 < t.size(); ++i)
        ASSERT_FALSE(engine.process(t[i], i));
    const uint64_t swept_before = engine.stats().end_swept_entries;
    ASSERT_FALSE(engine.process(t[t.size() - 1], t.size() - 1));
    const uint64_t swept = engine.stats().end_swept_entries - swept_before;

    if (update_sets) {
        // Thread 1's transaction wrote one variable; only entries its own
        // accesses (or clocks ordered after its begin — none here) fed
        // can be enrolled. The table itself holds >= touched_vars entries.
        EXPECT_LE(swept, 8u);
    } else {
        // The escape hatch restores the full-table sweep.
        EXPECT_GE(swept, touched_vars);
    }
}

TEST(UpdateSetComplexity, BasicColdEndSweepsSetNotTable)
{
    expect_cold_end_sweep_is_small<AeroDromeBasic>(true, 10000);
}

TEST(UpdateSetComplexity, OptColdEndSweepsSetNotTable)
{
    expect_cold_end_sweep_is_small<AeroDromeOpt>(true, 10000);
}

TEST(UpdateSetComplexity, BasicFullSweepWithoutSets)
{
    expect_cold_end_sweep_is_small<AeroDromeBasic>(false, 10000);
}

TEST(UpdateSetComplexity, OptFullSweepWithoutSets)
{
    expect_cold_end_sweep_is_small<AeroDromeOpt>(false, 10000);
}

/** A warm end — the transaction that touched every variable — must still
 *  propagate into all of them through the set-driven sweep. Its writes
 *  are lazy, so only their own-window enrollment brings them to the end;
 *  the read of another thread's write gives the transaction an incoming
 *  edge, so the end propagates instead of taking the GC skip. */
TEST(UpdateSetComplexity, WarmEndStillSweepsItsOwnAccesses)
{
    const uint32_t vars = 1000;
    Trace t;
    t.write(1, vars);
    t.begin(0);
    t.read(0, vars);
    for (uint32_t x = 0; x < vars; ++x)
        t.write(0, x);
    t.end(0);

    AeroDromeOpt engine(t.num_threads(), t.num_vars(), t.num_locks());
    engine.set_update_sets(true);
    for (size_t i = 0; i < t.size(); ++i)
        ASSERT_FALSE(engine.process(t[i], i));
    EXPECT_EQ(engine.opt_stats().propagated_ends.load(), 1u);
    EXPECT_GE(engine.stats().end_swept_entries.load(), uint64_t{vars});
}

// --- Fuzz parity: update sets on vs off, both AeroDrome engines -----------

Trace
fuzz_trace(uint64_t seed)
{
    gen::RandomProgramOptions opts;
    opts.seed = seed;
    opts.threads = 4;
    opts.shared_vars = 6;
    opts.locks = 2;
    opts.txn_probability = 0.8;
    opts.steps_per_thread = 50;
    sim::Program prog = gen::make_random_program(opts);
    sim::SchedulerOptions sched;
    sched.seed = seed * 7919 + 13;
    sim::SimResult sim = sim::run_program(prog, sched);
    EXPECT_FALSE(sim.deadlocked);
    return std::move(sim.trace);
}

template <typename Engine>
RunResult
run_with_sets(const Trace& t, bool on)
{
    Engine engine(t.num_threads(), t.num_vars(), t.num_locks());
    engine.set_update_sets(on);
    return run_checker(engine, t);
}

void
expect_same_verdict(const RunResult& a, const RunResult& b,
                    const char* what)
{
    ASSERT_EQ(a.violation, b.violation) << what;
    if (a.violation) {
        EXPECT_EQ(a.details->event_index, b.details->event_index) << what;
        EXPECT_EQ(a.details->thread, b.details->thread) << what;
    }
}

TEST(UpdateSetParity, FuzzOnOffAllEngines)
{
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        Trace t = fuzz_trace(seed);

        RunResult basic_on = run_with_sets<AeroDromeBasic>(t, true);
        RunResult basic_off = run_with_sets<AeroDromeBasic>(t, false);
        expect_same_verdict(basic_on, basic_off, "basic on/off");

        RunResult opt_on = run_with_sets<AeroDromeOpt>(t, true);
        RunResult opt_off = run_with_sets<AeroDromeOpt>(t, false);
        expect_same_verdict(opt_on, opt_off, "opt on/off");

        // opt may fire earlier than Algorithm 1 (lazy writes check
        // against the live clock), but its verdict presence must match
        // (Theorem 3 — the fuzz corpus closes every transaction it opens).
        EXPECT_EQ(basic_on.violation, opt_on.violation) << "seed " << seed;
    }
}

/** Clock state, not just verdicts: the final W_x clocks of the basic
 *  engine must be identical on serializable traces. */
TEST(UpdateSetParity, FuzzFinalWriteClocksMatch)
{
    for (uint64_t seed = 100; seed < 120; ++seed) {
        Trace t = fuzz_trace(seed);
        AeroDromeBasic on(t.num_threads(), t.num_vars(), t.num_locks());
        on.set_update_sets(true);
        AeroDromeBasic off(t.num_threads(), t.num_vars(), t.num_locks());
        off.set_update_sets(false);
        RunResult r_on = run_checker(on, t);
        RunResult r_off = run_checker(off, t);
        expect_same_verdict(r_on, r_off, "basic on/off");
        if (r_on.violation)
            continue; // engines stop at the violation; state diverges
        for (uint32_t x = 0; x < t.num_vars(); ++x)
            EXPECT_EQ(on.write_clock_of(x), off.write_clock_of(x))
                << "seed " << seed << " var " << x;
        for (uint32_t u = 0; u < t.num_threads(); ++u)
            EXPECT_EQ(on.clock_of(u), off.clock_of(u))
                << "seed " << seed << " thread " << u;
    }
}

// --- Lazy enrollment (optimized engine) ------------------------------------

/** The directed trace's verdict must match the oracle and Algorithm 1,
 *  and the optimized engine must be bit-identical with update sets on
 *  and off. */
void
expect_lazy_case_agrees(const Trace& t, bool violating)
{
    ASSERT_EQ(!check_serializability(t).serializable, violating);
    RunResult basic_on = run_with_sets<AeroDromeBasic>(t, true);
    RunResult basic_off = run_with_sets<AeroDromeBasic>(t, false);
    RunResult opt_on = run_with_sets<AeroDromeOpt>(t, true);
    RunResult opt_off = run_with_sets<AeroDromeOpt>(t, false);
    EXPECT_EQ(basic_on.violation, violating);
    expect_same_verdict(basic_on, basic_off, "basic on/off");
    EXPECT_EQ(opt_on.violation, violating);
    expect_same_verdict(opt_on, opt_off, "opt on/off");
}

/** (a) u's transaction is ordered before t's lazy read of y, and u is
 *  ordered after w only after that read; u ends first, then w writes y.
 *  The ordering w -> u reaches R_y only through C_t: u's end joins C_u
 *  into C_t, and w's write flushes t's stale read. */
Trace
lazy_read_after_ended_peer(bool close_cycle)
{
    TraceBuilder b;
    b.begin("w");
    if (close_cycle)
        b.write("w", "z");
    b.begin("u").write("u", "v");
    b.begin("t").read("t", "v"); // t ordered after u
    b.read("t", "y");            // lazy: only t's window holds R_y
    b.read("u", "z");            // u ordered after w (if w wrote z)
    b.end("u");
    b.write("w", "y"); // flushes t's stale read
    b.end("t").end("w");
    return b.take();
}

TEST(LazyEnrollment, ReadOrderedAfterEndedPeer)
{
    expect_lazy_case_agrees(lazy_read_after_ended_peer(true), true);
    expect_lazy_case_agrees(lazy_read_after_ended_peer(false), false);
}

/** (b) As (a), but t's lazy write of y is superseded by s's stale write
 *  (s ordered after t) before u ends, t ends with its write superseded,
 *  and w then reads y against s's live clock or, once s has ended, W_y. */
Trace
lazy_write_superseded(bool close_cycle, bool s_ends_first)
{
    TraceBuilder b;
    b.begin("w");
    if (close_cycle)
        b.write("w", "z");
    b.begin("u").write("u", "v");
    b.begin("t").read("t", "v"); // t ordered after u
    b.write("t", "y");           // t becomes the stale writer of y
    b.begin("s").write("s", "y"); // s ordered after t, supersedes it
    b.read("u", "z");             // u ordered after w (if w wrote z)
    b.end("u").end("t");
    if (s_ends_first)
        b.end("s");
    b.read("w", "y");
    if (!s_ends_first)
        b.end("s");
    b.end("w");
    return b.take();
}

TEST(LazyEnrollment, WriteSupersededByStaleWrite)
{
    for (bool s_first : {false, true}) {
        SCOPED_TRACE(s_first ? "s ends before w reads" : "s still open");
        expect_lazy_case_agrees(lazy_write_superseded(true, s_first), true);
        expect_lazy_case_agrees(lazy_write_superseded(false, s_first),
                                false);
    }
}

/** (c) The naive pattern: whole-thread transactions that read, then
 *  write, the same few variables over and over. Each window must stay
 *  bounded by the entries those variables own, and the engine's state
 *  must not grow with the number of cycles. */
TEST(LazyEnrollment, ReadWriteCyclesStayBoundedPerVariable)
{
    const uint32_t kVars = 4;
    const uint32_t kCycles = 500;
    TraceBuilder b;
    b.begin("t0").begin("t1");
    for (uint32_t c = 0; c < kCycles; ++c) {
        const std::string x = "x" + std::to_string(c % kVars);
        const std::string y = "y" + std::to_string(c % kVars);
        b.read("t0", x).write("t0", x);
        b.read("t1", y).write("t1", y);
    }
    Trace open = b.trace();
    b.end("t0").end("t1");
    Trace t = b.take();
    expect_lazy_case_agrees(t, false);

    // Both transactions still open: each window holds at most the three
    // entries of each of its thread's kVars variables.
    AeroDromeOpt opt(open.num_threads(), open.num_vars(), open.num_locks());
    size_t half_bytes = 0;
    for (size_t i = 0; i < open.size(); ++i) {
        ASSERT_FALSE(opt.process(open[i], i));
        if (i == open.size() / 2)
            half_bytes = opt.memory_bytes();
    }
    EXPECT_EQ(opt.memory_bytes(), half_bytes);
    EXPECT_GT(opt.opt_stats().lazy_reads, uint64_t{kCycles});
    EXPECT_LE(opt.epoch_stats().upd_enrolled, uint64_t{2 * 3 * kVars});
}

/** (d) A garbage-collected end (no incoming edge) holding its own stale
 *  read of x and stale write of y must drop both: otherwise u's later
 *  write of x / read of y would check against t's *next* transaction,
 *  which is ordered after u, and report a false violation. */
TEST(LazyEnrollment, GcSkippedEndDropsOwnLazyState)
{
    TraceBuilder b;
    b.begin("t").read("t", "x").write("t", "y").end("t");
    b.begin("u").write("u", "q");
    b.begin("t").read("t", "q"); // t's second transaction follows u
    b.write("u", "x");
    b.read("u", "y");
    b.end("u").end("t");
    Trace t = b.take();
    expect_lazy_case_agrees(t, false);

    AeroDromeOpt opt(t.num_threads(), t.num_vars(), t.num_locks());
    EXPECT_FALSE(run_checker(opt, t).violation);
    EXPECT_GE(opt.opt_stats().gc_skipped_ends, 1u);
}

// --- staleReaders_x pool ------------------------------------------------
//
// The optimized engine keeps every variable's stale readers as a chain in
// one shared node pool with a free list (StaleReaderPool). Each case runs
// against the oracle and Algorithm 1 (expect_lazy_case_agrees).

/** (a) One whole-thread transaction reads then writes 8 variables 10^5
 *  times: every write flushes the read before it, so the pool must reuse
 *  one node per variable and the engine's footprint must stay flat. A
 *  second thread's short transactions read a variable of their own, and
 *  each end unlinks that stale read: erase must free its node too. */
TEST(StaleReaderPool, ReadWriteCyclesReuseNodes)
{
    const uint32_t kVars = 8;
    const uint32_t kCycles = 100000;
    Trace open;
    open.begin(0);
    open.begin(1);
    open.write(1, kVars); // a third thread, disjoint from the others
    for (uint32_t c = 0; c < kCycles; ++c) {
        open.read(0, c % kVars);
        open.write(0, c % kVars);
        if (c % 8 == 0) {
            open.begin(2);
            open.read(2, kVars + 1);
            open.end(2);
        }
    }
    Trace t = open;
    t.end(0);
    t.end(1);
    expect_lazy_case_agrees(t, false);

    AeroDromeOpt opt(open.num_threads(), open.num_vars(), open.num_locks());
    size_t early_bytes = 0;
    for (size_t i = 0; i < open.size(); ++i) {
        ASSERT_FALSE(opt.process(open[i], i));
        if (i == open.size() / 100) // every variable cycled many times
            early_bytes = opt.memory_bytes();
    }
    EXPECT_EQ(opt.memory_bytes(), early_bytes);
    EXPECT_EQ(opt.opt_stats().lazy_reads, uint64_t{kCycles + kCycles / 8});
    EXPECT_EQ(opt.opt_stats().gc_skipped_ends, uint64_t{kCycles / 8});
}

/** (b) Three open transactions read x and sit in its chain; one write
 *  flushes them all. The cycle closes through the reader at `closer`
 *  (first, middle or last in the chain), so the write must see every
 *  node of the chain. */
Trace
stale_readers_flushed_by_one_write(int closer)
{
    const char* readers[] = {"r0", "r1", "r2"};
    TraceBuilder b;
    b.begin("w").write("w", "z");
    for (const char* r : readers)
        b.begin(r).read(r, "x");
    if (closer >= 0)
        b.read(readers[closer], "z"); // w -> closer
    b.write("w", "x");                // flushes all three: readers -> w
    for (const char* r : readers)
        b.end(r);
    b.end("w");
    // The flushed nodes are free again: a second round reuses them.
    b.begin("r1").read("r1", "x").begin("r0").read("r0", "x");
    b.write("w", "x");
    b.end("r0").end("r1");
    return b.take();
}

TEST(StaleReaderPool, OneWriteFlushesEveryStaleReader)
{
    for (int closer : {-1, 0, 1, 2}) {
        SCOPED_TRACE("closer " + std::to_string(closer));
        expect_lazy_case_agrees(stale_readers_flushed_by_one_write(closer),
                                closer >= 0);
    }
}

/** (c) A garbage-collected end (no incoming edge) whose stale read of x
 *  sits in the middle of x's chain, between two open readers, must
 *  unlink only its own node. If it stayed, u's write of x would flush
 *  t's *next* transaction (ordered after u) and report a false
 *  violation; if a neighbour were lost, the genuine cycle through b would
 *  go unseen. */
Trace
gc_skipped_end_in_mid_chain(bool close_cycle)
{
    TraceBuilder b;
    b.begin("a").read("a", "x");
    b.begin("t").read("t", "x");
    b.begin("b").read("b", "x"); // x's chain: a, t, b
    b.end("t");                  // no incoming edge: skipped
    b.begin("u").write("u", "q");
    b.begin("t").read("t", "q"); // t's second transaction follows u
    if (close_cycle)
        b.read("b", "q"); // u -> b
    b.write("u", "x");    // flushes a and b: a -> u, b -> u
    b.end("u").end("t").end("b").end("a");
    return b.take();
}

TEST(StaleReaderPool, GcSkippedEndUnlinksOnlyItsOwnNode)
{
    expect_lazy_case_agrees(gc_skipped_end_in_mid_chain(false), false);
    expect_lazy_case_agrees(gc_skipped_end_in_mid_chain(true), true);

    Trace t = gc_skipped_end_in_mid_chain(false);
    AeroDromeOpt opt(t.num_threads(), t.num_vars(), t.num_locks());
    EXPECT_FALSE(run_checker(opt, t).violation);
    EXPECT_GE(opt.opt_stats().gc_skipped_ends, 1u);
}

/** (d) The gc path: a joined thread's slot is retired while other
 *  threads still hold stale reads of x on both sides of where its own
 *  read sat in the chain, and the slot is reissued to a fresh thread
 *  that reads x again. c1's end has already unlinked its own node, which
 *  `retire_slot` asserts (debug builds); the other readers' nodes must
 *  stay in place and the reissued slot must start with no stale read. */
Trace
retired_slot_in_stale_chain(bool close_cycle)
{
    TraceBuilder b;
    b.begin("w").write("w", "z");
    b.fork("m", "c1");
    b.begin("a").read("a", "x");
    b.begin("c1").read("c1", "x");
    b.begin("b").read("b", "x"); // x's chain: a, c1, b
    b.end("c1");
    b.join("m", "c1"); // c1's slot retires
    b.fork("m", "c2"); // and is reissued to c2
    b.begin("c2").read("c2", "x");
    if (close_cycle)
        b.read("b", "z"); // w -> b
    b.write("w", "x");    // flushes a, b and c2: readers -> w
    b.end("c2").end("b").end("a").end("w");
    b.join("m", "c2");
    return b.take();
}

TEST(StaleReaderPool, RetiredSlotHoldsNoStaleReadAndReissuesClean)
{
    expect_lazy_case_agrees(retired_slot_in_stale_chain(false), false);
    expect_lazy_case_agrees(retired_slot_in_stale_chain(true), true);

    Trace t = retired_slot_in_stale_chain(false);
    AeroDromeOpt opt(t.num_threads(), t.num_vars(), t.num_locks());
    EXPECT_FALSE(run_checker(opt, t).violation);
    EXPECT_GE(opt.thread_slots().retired(), 1u);
    EXPECT_GE(opt.thread_slots().recycled(), 1u);
}

} // namespace
} // namespace aero
