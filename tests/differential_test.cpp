/**
 * @file
 * Differential testing: every checker must agree with the offline oracle
 * on randomly generated, well-formed programs under randomized schedules.
 *
 * Ground truth is the oracle's Definition-1 decision. Because the random
 * programs close every transaction they open, every witness consists of
 * completed transactions, so Theorem 3 guarantees AeroDrome reports a
 * violation exactly when the oracle finds one; Velodrome likewise.
 * Velodrome and the optimized engine (Algorithm 3) may fire earlier than
 * the basic one (Algorithm 1), never later. Beyond the random fuzz, every
 * closed trace up to a small bound is enumerated and checked the same way
 * (ExhaustiveDifferential at the bottom), and renaming the threads,
 * variables and locks of a trace must not move any engine's verdict
 * (RenamingInvariance).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/patterns.hpp"
#include "gen/random_program.hpp"
#include "oracle/serializability_oracle.hpp"
#include "sim/scheduler.hpp"
#include "support/rng.hpp"
#include "trace/builder.hpp"
#include "trace/validator.hpp"
#include "velodrome/velodrome.hpp"

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

struct DiffParams {
    uint64_t seed;
    uint32_t threads;
    uint32_t vars;
    uint32_t locks;
    double txn_probability;
    sim::Policy policy;
};

void
PrintTo(const DiffParams& p, std::ostream* os)
{
    *os << "seed=" << p.seed << " threads=" << p.threads
        << " vars=" << p.vars << " locks=" << p.locks
        << " txnp=" << p.txn_probability
        << " policy=" << static_cast<int>(p.policy);
}

class DifferentialTest : public ::testing::TestWithParam<DiffParams> {};

Trace
generate(const DiffParams& p, uint32_t steps_per_thread = 50)
{
    gen::RandomProgramOptions opts;
    opts.seed = p.seed;
    opts.threads = p.threads;
    opts.shared_vars = p.vars;
    opts.locks = p.locks;
    opts.txn_probability = p.txn_probability;
    opts.steps_per_thread = steps_per_thread;
    sim::Program prog = gen::make_random_program(opts);

    sim::SchedulerOptions sched;
    sched.seed = p.seed * 7919 + 13;
    sched.policy = p.policy;
    sim::SimResult sim = sim::run_program(prog, sched);
    EXPECT_FALSE(sim.deadlocked);
    return std::move(sim.trace);
}

TEST_P(DifferentialTest, SimulatedTraceIsWellFormed)
{
    Trace trace = generate(GetParam());
    ValidatorOptions vopts;
    vopts.require_closed_transactions = true;
    vopts.require_released_locks = true;
    auto v = validate(trace, vopts);
    EXPECT_TRUE(v.ok) << v.message << " at event " << v.event_index;
}

TEST_P(DifferentialTest, AllEnginesAgreeWithOracle)
{
    Trace trace = generate(GetParam());
    bool expected = !check_serializability(trace).serializable;

    auto basic = run<AeroDromeBasic>(trace);
    auto opt = run<AeroDromeOpt>(trace);
    auto velo = run<Velodrome>(trace);

    EXPECT_EQ(basic.violation, expected) << "AeroDrome-basic vs oracle";
    EXPECT_EQ(opt.violation, expected) << "AeroDrome-opt vs oracle";
    EXPECT_EQ(velo.violation, expected) << "Velodrome vs oracle";

    if (expected) {
        // Velodrome can only detect at or before AeroDrome's point (it
        // finds cycles as soon as the closing edge appears; AeroDrome may
        // need a later end event per Theorem 3).
        EXPECT_LE(velo.details->event_index, basic.details->event_index);
    }
}

std::vector<DiffParams>
make_params()
{
    std::vector<DiffParams> out;
    uint64_t seed = 1;
    for (uint32_t threads : {2u, 3u, 5u, 8u}) {
        for (uint32_t vars : {2u, 6u, 24u}) {
            for (double txnp : {0.25, 0.7, 1.0}) {
                for (sim::Policy pol :
                     {sim::Policy::kRandom, sim::Policy::kSticky,
                      sim::Policy::kRoundRobin}) {
                    out.push_back({seed++, threads, vars,
                                   1 + threads / 2, txnp, pol});
                }
            }
        }
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, DifferentialTest,
                         ::testing::ValuesIn(make_params()));

/** Seeds [first, last) of 4 threads, 2 locks, transaction probability
 *  0.8 and `vars` variables. */
std::vector<DiffParams>
seed_sweep(uint64_t first, uint64_t last, uint32_t vars)
{
    std::vector<DiffParams> out;
    for (uint64_t seed = first; seed < last; ++seed)
        out.push_back({seed, 4, vars, 2, 0.8, sim::Policy::kRandom});
    return out;
}

/** Deeper sweeps with many seeds: 5 variables, and a contended shape
 *  of 3 whose few variables and locks across several threads inflate
 *  most table entries, exercising the slow paths and the promotion
 *  boundary. */
class DifferentialSeedSweep : public ::testing::TestWithParam<DiffParams> {};

TEST_P(DifferentialSeedSweep, AllEnginesAgreeWithOracle)
{
    Trace trace = generate(GetParam());
    bool expected = !check_serializability(trace).serializable;
    EXPECT_EQ(run<AeroDromeBasic>(trace).violation, expected);
    EXPECT_EQ(run<AeroDromeOpt>(trace).violation, expected);
    EXPECT_EQ(run<Velodrome>(trace).violation, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSeedSweep,
                         ::testing::ValuesIn(seed_sweep(1000, 1100, 5)));
INSTANTIATE_TEST_SUITE_P(Contended, DifferentialSeedSweep,
                         ::testing::ValuesIn(seed_sweep(500, 640, 3)));

/**
 * Agreement of the two AeroDrome engines, processing each fuzz trace in
 * lockstep: opt may fire at-or-before basic (the lazy-write live-clock
 * proxy only ever *adds* orderings the end event would have propagated),
 * and their final verdicts must coincide.
 */
void
expect_lockstep(const Trace& trace)
{
    AeroDromeBasic basic(trace.num_threads(), trace.num_vars(),
                         trace.num_locks());
    AeroDromeOpt opt(trace.num_threads(), trace.num_vars(),
                     trace.num_locks());

    const auto& events = trace.events();
    bool basic_fired = false, opt_fired = false;
    for (size_t i = 0; i < events.size(); ++i) {
        if (!basic_fired)
            basic_fired = basic.process(events[i], i);
        if (!opt_fired)
            opt_fired = opt.process(events[i], i);
    }
    ASSERT_EQ(basic_fired, opt_fired) << "final verdicts diverged";
    if (basic_fired) {
        EXPECT_LE(opt.violation()->event_index,
                  basic.violation()->event_index)
            << "lazy engine fired after the eager one";
    }
}

class EngineLockstep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineLockstep, OptFiresNoLaterThanBasic)
{
    DiffParams p{GetParam(), 4, 5, 2, 0.8, sim::Policy::kRandom};
    expect_lockstep(generate(p));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineLockstep,
                         ::testing::Range<uint64_t>(1, 200));

/**
 * The same lockstep over generator shapes that each stress one rung of
 * the optimization ladder (Section 4.3): repeated reads of one variable
 * (read clocks), disjoint transactions (the GC fast path), end-heavy
 * pipelines and Table 1's star (update sets), and whole-thread
 * transactions with no shared access (lazy updates at scale).
 */
TEST(EngineLockstepShapes, OptFiresNoLaterThanBasicOnAblationWorkloads)
{
    gen::StarOptions star;
    star.producers = 3;
    star.consumers = 3;
    star.rounds = 250;
    gen::NaiveSpecOptions naive;
    naive.threads = 8;
    naive.events_per_thread = 4000;
    naive.conflict_position = 2.0; // past the end: no shared access
    const std::pair<const char*, Trace> shapes[] = {
        {"reader-mesh 8x3000", gen::make_reader_mesh(8, 3000)},
        {"independent 8x800x8", gen::make_independent(8, 800, 8)},
        {"pipeline 6x300", gen::make_pipeline(6, 300)},
        {"star p3/c3 r250", gen::make_star(star)},
        {"naive 8x4000 no-conflict", gen::make_naive_spec(naive)},
    };
    for (const auto& [name, trace] : shapes) {
        SCOPED_TRACE(name);
        expect_lockstep(trace);
    }
}

/** Every engine and the oracle call `t` violating iff `violating`. */
void
expect_verdict(const Trace& t, bool violating)
{
    EXPECT_EQ(check_serializability(t).serializable, !violating);
    EXPECT_EQ(run<AeroDromeBasic>(t).violation, violating);
    EXPECT_EQ(run<AeroDromeOpt>(t).violation, violating);
    EXPECT_EQ(run<Velodrome>(t).violation, violating);
}

TEST(EpochAdaptive, UncontendedWorkloadNeverInflates)
{
    // Threads touching disjoint variables: every clock in the per-var
    // tables stays a pure epoch, so the arena must stay empty and the
    // fast path must carry all traffic. Inside transactions the accesses
    // stay lazy and every end skips propagation (no incoming edge), so
    // the same accesses run again as unary events, which update the
    // table eagerly.
    Trace t = gen::make_independent(4, 50, 6);
    AeroDromeOpt checker(t.num_threads(), t.num_vars(), t.num_locks());
    EXPECT_FALSE(run_checker(checker, t).violation);
    EXPECT_EQ(checker.epoch_stats().inflations, 0u);
    EXPECT_EQ(checker.opt_stats().propagated_ends, 0u);
    EXPECT_GT(checker.opt_stats().lazy_writes, 0u);

    Trace unary;
    for (const Event& e : t.events()) {
        if (e.op != Op::kBegin && e.op != Op::kEnd)
            unary.push(e);
    }
    AeroDromeOpt eager(unary.num_threads(), unary.num_vars(),
                       unary.num_locks());
    EXPECT_FALSE(run_checker(eager, unary).violation);
    EXPECT_EQ(eager.epoch_stats().inflations, 0u);
    EXPECT_GT(eager.epoch_stats().epoch_fast, 0u);
}

TEST(EpochAdaptive, ContendedVariableInflatesOnceAndStaysExact)
{
    // Unary (outside-transaction) accesses are handled eagerly by every
    // engine: t1's write publishes W_x as an epoch, t2's read absorbs it
    // (making C_t2 impure) and then joins that impure clock into R_x and
    // hR_x — a *forced* inflation — after which t3 keeps using the
    // inflated rows. Serializable throughout, on the inflated state too.
    TraceBuilder b;
    b.write("t1", "x");
    b.read("t2", "x");
    b.read("t3", "x");
    b.write("t3", "y");
    b.read("t2", "y");
    Trace t = b.take();

    AeroDromeOpt checker(t.num_threads(), t.num_vars(), t.num_locks());
    EXPECT_FALSE(run_checker(checker, t).violation);
    EXPECT_GT(checker.epoch_stats().inflations, 0u);

    expect_verdict(t, false);
}

TEST(EpochAdaptive, OpenTransactionContention)
{
    // Contention between two *open* transactions: t2 reads t1's stale
    // write (live-clock proxy), t1's second write flushes t2 as a stale
    // reader — joining t2's impure clock into R_x — and the write-read
    // conflict closes a genuine cycle.
    TraceBuilder b;
    b.begin("t1").write("t1", "x");
    b.begin("t2").read("t2", "x");
    b.write("t1", "x");
    b.end("t1").end("t2");
    Trace t = b.take();

    AeroDromeOpt checker(t.num_threads(), t.num_vars(), t.num_locks());
    EXPECT_TRUE(run_checker(checker, t).violation);
    EXPECT_GT(checker.epoch_stats().inflations, 0u);

    expect_verdict(t, true);
}

TEST(EpochAdaptive, LockHandoff)
{
    // Lock clocks are adaptive too: a release publishes an epoch while
    // the releasing thread is uncontended, and the first cross-thread
    // acquire consumes it; later impure releases inflate the entry.
    TraceBuilder b;
    b.acquire("t1", "l").write("t1", "x").release("t1", "l");
    b.acquire("t2", "l").read("t2", "x").release("t2", "l");
    b.acquire("t1", "l").write("t1", "x").release("t1", "l");
    b.acquire("t3", "l").read("t3", "x").release("t3", "l");
    Trace t = b.take();

    AeroDromeOpt checker(t.num_threads(), t.num_vars(), t.num_locks());
    EXPECT_FALSE(run_checker(checker, t).violation);
    EXPECT_GT(checker.epoch_stats().epoch_fast, 0u);
    EXPECT_GT(checker.epoch_stats().inflations, 0u);

    expect_verdict(t, false);
}

// --- Eager mutations reach an open transaction's end ------------------------

/**
 * A unary access by t, ordered after w's open transaction, writes W_x
 * (assign) or R_x (join) with a clock that carries w's begin; a later
 * ordering v -> w then reaches that entry only through w's end
 * propagation. Whether r's access of x sees it decides the cycle
 * R -> v -> W -> t -> R. The shipped engine's end sweeps visit only the
 * entries enrolled in w's update window, so dropping the enrollment of
 * either mutation loses the violation; without the closing edge (v's
 * write of z read by w) the trace is serializable.
 */
Trace
unary_access_after_open_txn(bool write, bool close_cycle)
{
    TraceBuilder b;
    b.begin("w").write("w", "a");
    b.read("t", "a");
    if (write)
        b.write("t", "x");
    else
        b.read("t", "x");
    b.begin("r").write("r", "y");
    b.read("v", "y").write("v", "z");
    if (close_cycle)
        b.read("w", "z");
    b.end("w");
    if (write)
        b.read("r", "x");
    else
        b.write("r", "x");
    b.end("r");
    return b.take();
}

TEST(EagerEnrollment, UnaryAccessAfterOpenTransactionReachesItsEnd)
{
    for (bool write : {true, false}) {
        for (bool close_cycle : {true, false}) {
            SCOPED_TRACE(std::string(write ? "write" : "read") +
                         (close_cycle ? ", cycle" : ", no cycle"));
            expect_verdict(unary_access_after_open_txn(write, close_cycle),
                           close_cycle);
        }
    }
}

TEST(EpochAdaptive, SecondStaleReaderKeepsTheFirstInReadClock)
{
    // u1's and u2's stale reads of x are flushed into R_x by t's write,
    // u1's first: both are pure epochs of different threads, so R_x must
    // inflate to hold both. Keeping only u2's epoch would drop the
    // ordering u1 -> t that closes u1's cycle through t's write of y.
    TraceBuilder b;
    b.begin("u1").read("u1", "x");
    b.begin("u2").read("u2", "x");
    b.write("t", "x").write("t", "y");
    b.read("u1", "y");
    b.end("u1").end("u2");
    expect_verdict(b.take(), true);
}

// --- Renaming invariance (metamorphic) -------------------------------------

/** `t` with its thread, variable and lock ids each renamed by a seeded
 *  shuffle. Fork and join targets are thread ids and follow the threads;
 *  the id spaces keep their sizes. */
Trace
rename_ids(const Trace& t, uint64_t seed)
{
    Rng rng(seed);
    auto shuffled = [&](uint32_t n) {
        std::vector<uint32_t> p(n);
        std::iota(p.begin(), p.end(), 0u);
        rng.shuffle(p);
        return p;
    };
    const std::vector<uint32_t> thr = shuffled(t.num_threads());
    const std::vector<uint32_t> var = shuffled(t.num_vars());
    const std::vector<uint32_t> lock = shuffled(t.num_locks());
    Trace out;
    out.threads().ensure(t.num_threads());
    out.vars().ensure(t.num_vars());
    out.locks().ensure(t.num_locks());
    for (Event e : t.events()) {
        switch (e.op) {
          case Op::kRead:
          case Op::kWrite:
            e.target = var[e.target];
            break;
          case Op::kAcquire:
          case Op::kRelease:
            e.target = lock[e.target];
            break;
          case Op::kFork:
          case Op::kJoin:
            e.target = thr[e.target];
            break;
          case Op::kBegin:
          case Op::kEnd:
            break;
        }
        e.tid = thr[e.tid];
        out.push(e);
    }
    return out;
}

/** Checker's verdict and violating event on `t` and on `renamed` agree;
 *  returns whether `t` violates. */
template <typename Checker>
bool
expect_renaming_invariant(const Trace& t, const Trace& renamed,
                          const char* engine)
{
    const RunResult a = run<Checker>(t);
    const RunResult b = run<Checker>(renamed);
    EXPECT_EQ(a.violation, b.violation) << engine;
    if (a.violation && b.violation) {
        EXPECT_EQ(a.details->event_index, b.details->event_index)
            << engine;
    }
    return a.violation;
}

/**
 * Ids are only names: renaming the threads, variables and locks of a
 * trace by a permutation must not move any engine's verdict or violating
 * event. The charged thread is renamed with the rest and not compared.
 * The id permutation reorders every per-id loop (the end-event thread
 * and lock loops, window walks, stale-reader chains), so an engine whose
 * verdict depends on visit order fails here.
 */
TEST(RenamingInvariance, VerdictAndViolatingEventSurviveAPermutation)
{
    size_t traces = 0, violating = 0;
    for (uint32_t vars : {3u, 5u}) {
        for (double txnp : {0.2, 0.8}) {
            for (uint64_t seed = 3000; seed < 3100; ++seed) {
                const Trace t = generate(
                    {seed, 4, vars, 2, txnp, sim::Policy::kRandom}, 10);
                const Trace renamed = rename_ids(t, seed);
                SCOPED_TRACE(::testing::Message()
                             << "seed=" << seed << " vars=" << vars
                             << " txnp=" << txnp);
                ++traces;
                violating += expect_renaming_invariant<AeroDromeOpt>(
                    t, renamed, "aerodrome");
                expect_renaming_invariant<AeroDromeBasic>(
                    t, renamed, "aerodrome-basic");
                expect_renaming_invariant<Velodrome>(t, renamed,
                                                     "velodrome");
            }
        }
    }
    EXPECT_EQ(traces, 400u);
    // Short programs (10 steps per thread) keep both verdicts well
    // represented (201 of the 400 violate), so neither side is vacuous.
    EXPECT_GT(violating, 100u);
    EXPECT_LT(violating, 300u);
}

// --- Bounded-exhaustive differential ---------------------------------------

/**
 * Enumerates every closed trace of at most a given length over a small
 * alphabet: per running thread, r/w of variables 0 and 1, acq/rel of lock
 * 0, and begin/end nested up to depth 2. "Closed" means every begin has
 * its end and the lock is free again, so every transaction completes. In
 * the fork/join family only thread 0 runs from the start; a running
 * thread may fork a thread that has not started and join a started one
 * other than itself, which then performs no further events.
 */
class ClosedTraces {
public:
    ClosedTraces(uint32_t threads, bool fork_join)
        : fork_join_(fork_join),
          depth_(threads, 0),
          state_(threads, fork_join ? kUnforked : kRunning)
    {
        state_[0] = kRunning;
    }

    /** Call f(events) on every closed trace of at most max_events
     *  events, the empty trace included. */
    template <typename F>
    void
    for_each(size_t max_events, F f)
    {
        max_ = max_events;
        visit(f);
    }

private:
    enum : uint8_t { kUnforked, kRunning, kJoined };

    template <typename F>
    void
    visit(F& f)
    {
        if (holder_ == kNoThread &&
            std::all_of(depth_.begin(), depth_.end(),
                        [](uint32_t d) { return d == 0; }))
            f(events_);
        if (events_.size() == max_)
            return;
        const ThreadId n = static_cast<ThreadId>(state_.size());
        for (ThreadId t = 0; t < n; ++t) {
            if (state_[t] != kRunning)
                continue;
            for (VarId x : {0u, 1u}) {
                step(f, {t, x, Op::kRead});
                step(f, {t, x, Op::kWrite});
            }
            if (depth_[t] < 2) {
                ++depth_[t];
                step(f, {t, 0, Op::kBegin});
                --depth_[t];
            }
            if (depth_[t] > 0) {
                --depth_[t];
                step(f, {t, 0, Op::kEnd});
                ++depth_[t];
            }
            if (holder_ == kNoThread || holder_ == t) {
                const bool acquire = holder_ == kNoThread;
                holder_ = acquire ? t : kNoThread;
                step(f, {t, 0, acquire ? Op::kAcquire : Op::kRelease});
                holder_ = acquire ? kNoThread : t;
            }
            for (ThreadId u = 0; fork_join_ && u < n; ++u) {
                const uint8_t was = state_[u];
                if (was == kUnforked) {
                    state_[u] = kRunning;
                    step(f, {t, u, Op::kFork});
                } else if (was == kRunning && u != t) {
                    state_[u] = kJoined;
                    step(f, {t, u, Op::kJoin});
                }
                state_[u] = was;
            }
        }
    }

    template <typename F>
    void
    step(F& f, Event e)
    {
        events_.push_back(e);
        visit(f);
        events_.pop_back();
    }

    bool fork_join_;
    size_t max_ = 0;
    std::vector<uint32_t> depth_;
    std::vector<uint8_t> state_;
    ThreadId holder_ = kNoThread;
    std::vector<Event> events_;
};

/** True iff a fresh Checker fires on some event of `events`. */
template <typename Checker>
bool
fires(const std::vector<Event>& events)
{
    Checker checker(0, 0, 0);
    for (size_t i = 0; i < events.size(); ++i) {
        if (checker.process(events[i], i))
            return true;
    }
    return false;
}

struct ExhaustiveFamily {
    const char* name;
    uint32_t threads;
    bool fork_join;
    size_t closed_traces; ///< pins the enumerator itself
};

void
PrintTo(const ExhaustiveFamily& f, std::ostream* os)
{
    *os << f.name;
}

class ExhaustiveDifferential
    : public ::testing::TestWithParam<ExhaustiveFamily> {};

/**
 * Every transaction of a closed trace completes, so Theorem 3 makes the
 * oracle's verdict exact for both AeroDrome engines: each must fire iff a
 * witness with at most one open transaction exists, and Velodrome iff the
 * trace is not serializable.
 */
TEST_P(ExhaustiveDifferential, EveryClosedTraceMatchesTheOracle)
{
    const ExhaustiveFamily& fam = GetParam();
    size_t traces = 0, mismatches = 0;
    ClosedTraces(fam.threads, fam.fork_join)
        .for_each(5, [&](const std::vector<Event>& events) {
            ++traces;
            Trace trace;
            for (const Event& e : events)
                trace.push(e);
            const OracleResult o = check_serializability(trace);
            const bool basic = fires<AeroDromeBasic>(events);
            const bool opt = fires<AeroDromeOpt>(events);
            const bool velo = fires<Velodrome>(events);
            if (basic == o.detectable_with_one_open &&
                opt == o.detectable_with_one_open &&
                velo == !o.serializable)
                return;
            if (++mismatches > 5)
                return; // the count below still reports every one
            std::string text;
            for (const Event& e : events)
                text += trace.format_event(e) + "; ";
            ADD_FAILURE() << text << "oracle serializable="
                          << o.serializable << " detectable="
                          << o.detectable_with_one_open << ", basic="
                          << basic << " opt=" << opt << " velodrome="
                          << velo;
        });
    EXPECT_EQ(traces, fam.closed_traces);
    EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    UpToFiveEvents, ExhaustiveDifferential,
    ::testing::Values(ExhaustiveFamily{"TwoThreads", 2, false, 61123},
                      ExhaustiveFamily{"ThreeThreadsForkJoin", 3, true,
                                       86222}),
    [](const ::testing::TestParamInfo<ExhaustiveFamily>& info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace aero
