/**
 * @file
 * Semantic property tests derived straight from the definitions in
 * Section 2 of the paper.
 *
 * 1. Conflict equivalence: swapping two *adjacent, non-conflicting*
 *    events of different threads yields a conflict-equivalent trace, so
 *    the serializability verdict (and in fact the whole <Txn relation)
 *    must be unchanged. We apply thousands of random adjacent swaps to
 *    traces of both verdicts and re-check with the oracle and AeroDrome.
 *
 * 2. Serial traces are serializable: any trace in which each
 *    transaction's events are contiguous (no interleaving inside
 *    transactions) is trivially conflict serializable.
 */

#include <gtest/gtest.h>

#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/random_program.hpp"
#include "oracle/serializability_oracle.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"

namespace aero {
namespace {

/** Do e and f conflict per the paper's five clauses? */
bool
conflicting(const Event& e, const Event& f)
{
    if (e.tid == f.tid)
        return true;
    if (e.op == Op::kFork && f.tid == e.target)
        return true;
    if (f.op == Op::kFork && e.tid == f.target)
        return true;
    if (e.op == Op::kJoin && f.tid == e.target)
        return true;
    if (f.op == Op::kJoin && e.tid == f.target)
        return true;
    if (op_targets_var(e.op) && op_targets_var(f.op) &&
        e.target == f.target &&
        (e.op == Op::kWrite || f.op == Op::kWrite)) {
        return true;
    }
    // rel -> acq in either order (adjacent swap must also preserve lock
    // well-formedness, so treat any same-lock pair as conflicting).
    if (op_targets_lock(e.op) && op_targets_lock(f.op) &&
        e.target == f.target) {
        return true;
    }
    return false;
}

/** Apply up to `attempts` random adjacent non-conflicting swaps. */
Trace
shuffled_equivalent(const Trace& trace, uint64_t seed, int attempts)
{
    std::vector<Event> ev(trace.events());
    Rng rng(seed);
    for (int i = 0; i < attempts && ev.size() > 1; ++i) {
        size_t p = static_cast<size_t>(rng.next_below(ev.size() - 1));
        if (!conflicting(ev[p], ev[p + 1]))
            std::swap(ev[p], ev[p + 1]);
    }
    Trace out;
    for (const Event& e : ev)
        out.push(e);
    return out;
}

Trace
fuzz_trace(uint64_t seed)
{
    gen::RandomProgramOptions opts;
    opts.seed = seed;
    opts.threads = 3 + seed % 4;
    opts.shared_vars = 3 + seed % 6;
    opts.locks = 1 + seed % 2;
    opts.steps_per_thread = 40;
    sim::Program prog = gen::make_random_program(opts);
    sim::SchedulerOptions sched;
    sched.seed = seed * 101 + 3;
    sim::SimResult sim = sim::run_program(prog, sched);
    EXPECT_FALSE(sim.deadlocked);
    return std::move(sim.trace);
}

class CommutationSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CommutationSweep, VerdictInvariantUnderNonConflictingSwaps)
{
    Trace original = fuzz_trace(GetParam());
    bool verdict = !check_serializability(original).serializable;
    for (uint64_t round = 0; round < 3; ++round) {
        Trace shuffled = shuffled_equivalent(
            original, GetParam() * 13 + round, 500);
        EXPECT_EQ(!check_serializability(shuffled).serializable, verdict)
            << "oracle verdict changed, seed " << GetParam() << " round "
            << round;
        AeroDromeOpt checker(shuffled.num_threads(), shuffled.num_vars(),
                             shuffled.num_locks());
        EXPECT_EQ(run_checker(checker, shuffled).violation, verdict)
            << "AeroDrome verdict changed, seed " << GetParam()
            << " round " << round;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommutationSweep,
                         ::testing::Range<uint64_t>(3000, 3040));

// --- Serial traces -----------------------------------------------------------

class SerialSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerialSweep, SerialTracesAreSerializable)
{
    // Schedule the random program with an "infinitely sticky" scheduler
    // plus transaction-aligned programs: emulate seriality by sorting the
    // trace's events transaction-block-wise. Simpler and airtight: run
    // each thread to completion before the next (round robin with a
    // quantum larger than any thread program).
    gen::RandomProgramOptions opts;
    opts.seed = GetParam();
    opts.threads = 3 + GetParam() % 4;
    opts.shared_vars = 3;
    opts.locks = 1;
    opts.steps_per_thread = 40;
    opts.fork_join = false; // all threads runnable from the start
    sim::Program prog = gen::make_random_program(opts);

    sim::SchedulerOptions sched;
    sched.policy = sim::Policy::kRoundRobin;
    sched.quantum = 1u << 30; // whole thread runs in one turn
    sim::SimResult sim = sim::run_program(prog, sched);
    ASSERT_FALSE(sim.deadlocked);

    EXPECT_TRUE(check_serializability(sim.trace).serializable);
    AeroDromeOpt checker(sim.trace.num_threads(), sim.trace.num_vars(),
                         sim.trace.num_locks());
    EXPECT_FALSE(run_checker(checker, sim.trace).violation);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialSweep,
                         ::testing::Range<uint64_t>(3100, 3130));

// --- Prefix monotonicity -------------------------------------------------------

class PrefixSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrefixSweep, ViolationsAreMonotoneInPrefixes)
{
    // Once a trace prefix is non-serializable, every extension is too
    // (edges only accumulate); conversely a serializable full trace has
    // only serializable prefixes. Check the oracle at several cut
    // points, and that AeroDrome's violating prefix matches: the checker
    // must flag exactly the prefixes that contain its detection point.
    Trace trace = fuzz_trace(GetParam() + 40000);
    AeroDromeOpt checker(trace.num_threads(), trace.num_vars(),
                         trace.num_locks());
    RunResult full = run_checker(checker, trace);

    bool seen_violation = false;
    for (size_t cut = trace.size() / 4; cut <= trace.size();
         cut += trace.size() / 4) {
        Trace prefix;
        for (size_t i = 0; i < cut && i < trace.size(); ++i)
            prefix.push(trace[i]);
        bool v = !check_serializability(prefix).serializable;
        EXPECT_TRUE(!seen_violation || v)
            << "violation vanished as the trace grew, seed "
            << GetParam() << " cut " << cut;
        seen_violation = v;

        if (full.violation) {
            AeroDromeOpt pc(prefix.num_threads(), prefix.num_vars(),
                            prefix.num_locks());
            bool expect_flag = full.details->event_index < cut;
            EXPECT_EQ(run_checker(pc, prefix).violation, expect_flag)
                << "seed " << GetParam() << " cut " << cut;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixSweep,
                         ::testing::Range<uint64_t>(3300, 3330));

} // namespace
} // namespace aero
