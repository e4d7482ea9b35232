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
 */

#include <gtest/gtest.h>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "aerodrome/aerodrome_readopt.hpp"
#include "analysis/runner.hpp"
#include "gen/random_program.hpp"
#include "sim/scheduler.hpp"
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

TEST(UpdateSetComplexity, ReadOptColdEndSweepsSetNotTable)
{
    expect_cold_end_sweep_is_small<AeroDromeReadOpt>(true, 10000);
}

TEST(UpdateSetComplexity, BasicFullSweepWithoutSets)
{
    expect_cold_end_sweep_is_small<AeroDromeBasic>(false, 10000);
}

TEST(UpdateSetComplexity, ReadOptFullSweepWithoutSets)
{
    expect_cold_end_sweep_is_small<AeroDromeReadOpt>(false, 10000);
}

/** A warm end — the transaction that touched every variable — must still
 *  propagate into all of them through the set-driven sweep. */
TEST(UpdateSetComplexity, WarmEndStillSweepsItsOwnAccesses)
{
    const uint32_t vars = 1000;
    Trace t;
    t.begin(0);
    for (uint32_t x = 0; x < vars; ++x)
        t.write(0, x);
    t.end(0);

    AeroDromeReadOpt engine(t.num_threads(), t.num_vars(), t.num_locks());
    engine.set_update_sets(true);
    for (size_t i = 0; i < t.size(); ++i)
        ASSERT_FALSE(engine.process(t[i], i));
    EXPECT_GE(engine.stats().end_swept_entries.load(), uint64_t{vars});
}

// --- Fuzz parity: update sets on vs off, all three engines -----------------

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

        RunResult ro_on = run_with_sets<AeroDromeReadOpt>(t, true);
        RunResult ro_off = run_with_sets<AeroDromeReadOpt>(t, false);
        expect_same_verdict(ro_on, ro_off, "readopt on/off");

        // Algorithms 1 and 2 fire at the same event; the sets must not
        // perturb that cross-engine agreement either.
        expect_same_verdict(basic_on, ro_on, "basic vs readopt");

        // opt carries Algorithm 3's structural update sets (no toggle);
        // its verdict presence must keep matching (Theorem 3 — the fuzz
        // corpus closes every transaction it opens).
        AeroDromeOpt opt(t.num_threads(), t.num_vars(), t.num_locks());
        RunResult opt_r = run_checker(opt, t);
        EXPECT_EQ(basic_on.violation, opt_r.violation) << "seed " << seed;
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

} // namespace
} // namespace aero
