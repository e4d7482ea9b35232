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
 * the basic one (Algorithm 1), never later.
 */

#include <gtest/gtest.h>

#include <utility>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/patterns.hpp"
#include "gen/random_program.hpp"
#include "oracle/serializability_oracle.hpp"
#include "sim/scheduler.hpp"
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
generate(const DiffParams& p)
{
    gen::RandomProgramOptions opts;
    opts.seed = p.seed;
    opts.threads = p.threads;
    opts.shared_vars = p.vars;
    opts.locks = p.locks;
    opts.txn_probability = p.txn_probability;
    opts.steps_per_thread = 50;
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

/** Deeper sweep on one shape with many seeds. */
class DifferentialSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialSeedSweep, AllEnginesAgreeWithOracle)
{
    DiffParams p{GetParam(), 4, 5, 2, 0.8, sim::Policy::kRandom};
    Trace trace = generate(p);
    bool expected = !check_serializability(trace).serializable;
    EXPECT_EQ(run<AeroDromeBasic>(trace).violation, expected);
    EXPECT_EQ(run<AeroDromeOpt>(trace).violation, expected);
    EXPECT_EQ(run<Velodrome>(trace).violation, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSeedSweep,
                         ::testing::Range<uint64_t>(1000, 1100));

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

/**
 * Epoch-representation parity: every engine with the epoch-adaptive
 * storage ON must agree *event for event* with itself running epochs OFF
 * (the always-inflated full-vector baseline). The adaptive layer is a
 * representation change, not an approximation, so any divergence — even
 * in the detection point — is a bug in the epoch fast paths.
 */
template <typename Engine>
void
expect_epoch_parity(const Trace& trace)
{
    Engine on(trace.num_threads(), trace.num_vars(), trace.num_locks());
    Engine off(trace.num_threads(), trace.num_vars(), trace.num_locks());
    on.set_epochs(true);
    off.set_epochs(false);

    const auto& events = trace.events();
    for (size_t i = 0; i < events.size(); ++i) {
        bool a = on.process(events[i], i);
        bool b = off.process(events[i], i);
        ASSERT_EQ(a, b) << "epochs on/off diverged at event " << i;
        if (a)
            break;
    }
    ASSERT_EQ(on.has_violation(), off.has_violation());
    if (on.has_violation()) {
        EXPECT_EQ(on.violation()->event_index,
                  off.violation()->event_index);
        EXPECT_EQ(on.violation()->thread, off.violation()->thread);
    }
    // OFF must never have used the epoch representation.
    EXPECT_EQ(off.epoch_stats().epoch_fast, 0u);
}

class EpochParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EpochParity, AllEnginesAgreeWithEpochsOff)
{
    // High-contention shape: few variables and locks across several
    // threads force inflation of most entries, exercising the slow paths
    // and the promotion boundary.
    DiffParams p{GetParam(), 4, 3, 2, 0.8, sim::Policy::kRandom};
    Trace trace = generate(p);
    expect_epoch_parity<AeroDromeBasic>(trace);
    expect_epoch_parity<AeroDromeOpt>(trace);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpochParity,
                         ::testing::Range<uint64_t>(500, 640));

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
    checker.set_epochs(true);
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
    eager.set_epochs(true);
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
    // inflated rows. Serializable throughout; every engine must agree
    // with its epochs-off baseline on the inflated state.
    TraceBuilder b;
    b.write("t1", "x");
    b.read("t2", "x");
    b.read("t3", "x");
    b.write("t3", "y");
    b.read("t2", "y");
    Trace t = b.take();

    AeroDromeOpt checker(t.num_threads(), t.num_vars(), t.num_locks());
    checker.set_epochs(true);
    EXPECT_FALSE(run_checker(checker, t).violation);
    EXPECT_GT(checker.epoch_stats().inflations, 0u);

    expect_epoch_parity<AeroDromeBasic>(t);
    expect_epoch_parity<AeroDromeOpt>(t);
}

TEST(EpochAdaptive, OpenTransactionContentionParity)
{
    // Contention between two *open* transactions: t2 reads t1's stale
    // write (live-clock proxy), t1's second write flushes t2 as a stale
    // reader — joining t2's impure clock into R_x — and the write-read
    // conflict closes a genuine cycle. The violating event and thread
    // must be identical with epochs on and off.
    TraceBuilder b;
    b.begin("t1").write("t1", "x");
    b.begin("t2").read("t2", "x");
    b.write("t1", "x");
    b.end("t1").end("t2");
    Trace t = b.take();

    AeroDromeOpt checker(t.num_threads(), t.num_vars(), t.num_locks());
    checker.set_epochs(true);
    EXPECT_TRUE(run_checker(checker, t).violation);

    expect_epoch_parity<AeroDromeBasic>(t);
    expect_epoch_parity<AeroDromeOpt>(t);
}

TEST(EpochAdaptive, LockHandoffParity)
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
    expect_epoch_parity<AeroDromeBasic>(t);
    expect_epoch_parity<AeroDromeOpt>(t);
}

} // namespace
} // namespace aero
