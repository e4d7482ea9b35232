/**
 * @file
 * The decode-ahead worker's owned-reread pass (OwnedRereadFilter) is
 * exact for AeroDromeOpt: checking the compacted stream must give the
 * verdict, index, thread, reason and every counter of checking the full
 * one, except lazy_reads, which falls by exactly the reads dropped.
 *
 * Each input runs through the pass in blocks of 1, 7 and 4096 events,
 * and once more in blocks of 7 whose first block is only observed, as
 * the runner hands the worker its inline first block. Inputs: the
 * differential suite's random programs; 20k-event star, naive and
 * rolling traces (perfbench's three workloads); and directed traces for
 * each rule the pass relies on, each with the drop count it must reach.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/reread_filter.hpp"
#include "gen/bench_models.hpp"
#include "gen/random_program.hpp"
#include "gen/rolling_stream.hpp"
#include "sim/scheduler.hpp"

namespace aero {
namespace {

/** How checking one event stream ended. */
struct Outcome {
    bool violation = false;
    size_t index = 0;
    ThreadId thread = kNoThread;
    std::string reason;
    /** Events of the trace consumed, dropped ones included. */
    uint64_t consumed = 0;
    uint64_t dropped = 0;
    StatList counters;
};

Outcome
finish(const AeroDromeOpt& engine, uint64_t consumed, uint64_t fed)
{
    Outcome o;
    if (engine.violation()) {
        o.violation = true;
        o.index = engine.violation()->event_index;
        o.thread = engine.violation()->thread;
        o.reason = engine.violation()->reason;
    }
    o.consumed = consumed;
    o.dropped = consumed - fed;
    o.counters = engine.counters();
    return o;
}

/** Every event through one engine. */
Outcome
check_full(const std::vector<Event>& events)
{
    AeroDromeOpt engine(0, 0, 0);
    uint64_t i = 0;
    while (i < events.size()) {
        const bool v = engine.process(events[i], i);
        ++i;
        if (v)
            break;
    }
    return finish(engine, i, i);
}

/** The stream in blocks of `block` through the pass, then the kept
 *  events at their trace indices through one engine. With
 *  `observe_first`, the first block is only observed. */
Outcome
check_compacted(const std::vector<Event>& events, size_t block,
                bool observe_first)
{
    AeroDromeOpt engine(0, 0, 0);
    OwnedRereadFilter filter;
    std::vector<Event> buf(block);
    std::vector<uint16_t> offsets(block);
    uint64_t base = 0, fed = 0;
    while (base < events.size()) {
        const size_t raw = std::min<size_t>(block, events.size() - base);
        std::copy(events.begin() + base, events.begin() + base + raw,
                  buf.begin());
        size_t kept = raw;
        if (observe_first && base == 0) {
            filter.observe(buf.data(), raw);
            for (size_t k = 0; k < raw; ++k)
                offsets[k] = static_cast<uint16_t>(k);
        } else {
            kept = filter.compact(buf.data(), raw, offsets.data());
        }
        for (size_t k = 0; k < kept; ++k) {
            const uint64_t at = base + offsets[k];
            ++fed;
            if (engine.process(buf[k], at))
                return finish(engine, at + 1, fed);
        }
        base += raw;
    }
    return finish(engine, base, fed);
}

uint64_t
counter(const StatList& stats, const std::string& name)
{
    for (const auto& [n, v] : stats)
        if (n == name)
            return v;
    ADD_FAILURE() << "no counter " << name;
    return 0;
}

/** Check the full and the compacted streams against each other at every
 *  block size. @return the reads dropped, which must not depend on the
 *  block size (an observed first block may drop fewer). */
uint64_t
expect_exact(const std::vector<Event>& events, const std::string& what)
{
    const Outcome full = check_full(events);
    EXPECT_EQ(full.dropped, 0u);
    uint64_t dropped = 0;
    struct Mode {
        size_t block;
        bool observe_first;
    };
    for (const Mode mode : {Mode{1, false}, Mode{7, false},
                            Mode{4096, false}, Mode{7, true}}) {
        const std::string at = what + ", block " +
                               std::to_string(mode.block) +
                               (mode.observe_first ? ", first observed" : "");
        const Outcome c =
            check_compacted(events, mode.block, mode.observe_first);
        EXPECT_EQ(c.violation, full.violation) << at;
        EXPECT_EQ(c.index, full.index) << at;
        EXPECT_EQ(c.thread, full.thread) << at;
        EXPECT_EQ(c.reason, full.reason) << at;
        EXPECT_EQ(c.consumed, full.consumed) << at;
        EXPECT_EQ(c.counters.size(), full.counters.size()) << at;
        for (const auto& [name, value] : full.counters) {
            if (name == "lazy_reads") {
                EXPECT_EQ(value, counter(c.counters, name) + c.dropped)
                    << at << ": lazy_reads";
            } else {
                EXPECT_EQ(counter(c.counters, name), value)
                    << at << ": " << name;
            }
        }
        if (mode.block == 1) {
            dropped = c.dropped;
        } else if (!mode.observe_first) {
            EXPECT_EQ(c.dropped, dropped) << at;
        }
    }
    return dropped;
}

std::vector<Event>
events_of(const Trace& t)
{
    return {t.events().begin(), t.events().end()};
}

TEST(OwnedRereads, RandomProgramsMatchTheFullStream)
{
    // The differential suite's grid: threads x variables x transaction
    // probability x schedule policy, with nested blocks, locks and
    // fork/join.
    uint64_t seed = 1, dropped = 0;
    for (uint32_t threads : {2u, 3u, 5u, 8u}) {
        for (uint32_t vars : {2u, 6u, 24u}) {
            for (double txnp : {0.25, 0.7, 1.0}) {
                for (sim::Policy pol :
                     {sim::Policy::kRandom, sim::Policy::kSticky,
                      sim::Policy::kRoundRobin}) {
                    gen::RandomProgramOptions opts;
                    opts.seed = seed;
                    opts.threads = threads;
                    opts.shared_vars = vars;
                    opts.locks = 1 + threads / 2;
                    opts.txn_probability = txnp;
                    opts.steps_per_thread = 50;
                    sim::SchedulerOptions sched;
                    sched.seed = seed * 7919 + 13;
                    sched.policy = pol;
                    const Trace t =
                        sim::run_program(gen::make_random_program(opts),
                                         sched)
                            .trace;
                    dropped += expect_exact(events_of(t),
                                            "seed " + std::to_string(seed));
                    ++seed;
                }
            }
        }
    }
    EXPECT_GT(dropped, 0u) << "the random programs never reached a drop";
}

const gen::BenchModel&
model_row(const std::vector<gen::BenchModel>& rows, const std::string& name)
{
    for (const auto& m : rows)
        if (m.name == name)
            return m;
    ADD_FAILURE() << "no model row " << name;
    return rows.front();
}

TEST(OwnedRereads, PerfbenchWorkloadsMatchTheFullStream)
{
    gen::BenchModel star = model_row(gen::table1_models(), "avrora");
    star.events = 20'000;
    expect_exact(events_of(gen::build_model_trace(star)), "star");

    gen::BenchModel naive = model_row(gen::table2_models(), "batik");
    naive.events = 20'000;
    EXPECT_GT(expect_exact(events_of(gen::build_model_trace(naive)), "naive"),
              5'000u);

    gen::RollingStreamOptions opts;
    opts.seed = 1;
    opts.max_events = 20'000;
    gen::RollingStreamSource src(opts);
    std::vector<Event> rolling;
    Event buf[4096];
    while (const size_t got = src.next_n(buf, 4096))
        rolling.insert(rolling.end(), buf, buf + got);
    ASSERT_EQ(rolling.size(), opts.max_events);
    expect_exact(rolling, "rolling");
}

// --- Directed traces ----------------------------------------------------------

TEST(OwnedRereads, NestedBlocksStayInsideTheOwnersTransaction)
{
    Trace t;
    t.begin(0);
    t.write(0, 1);
    t.read(0, 1);
    t.begin(0);
    t.read(0, 1); // dropped
    t.end(0);
    t.read(0, 1); // dropped: the outermost transaction is still open
    t.end(0);
    t.read(0, 1); // unary
    t.read(0, 1); // unary
    EXPECT_EQ(expect_exact(events_of(t), "nested"), 2u);
}

TEST(OwnedRereads, UnmatchedEndIsIgnored)
{
    Trace t;
    t.end(0); // unmatched: ignored, as TxnTracker does
    t.begin(0);
    t.write(0, 1);
    t.read(0, 1);
    t.read(0, 1); // dropped
    t.end(0);
    t.end(0); // unmatched
    t.read(0, 1);
    t.begin(0);
    t.read(0, 1);
    t.read(0, 1); // kept: the write was in the previous transaction
    t.end(0);
    EXPECT_EQ(expect_exact(events_of(t), "unmatched end"), 1u);
}

TEST(OwnedRereads, WriteOutsideATransactionProvesNothing)
{
    Trace t;
    t.write(0, 1);
    t.begin(0);
    t.read(0, 1);
    t.read(0, 1);
    t.end(0);
    EXPECT_EQ(expect_exact(events_of(t), "unary write"), 0u);
}

TEST(OwnedRereads, RereadAfterAnotherThreadsWriteIsKept)
{
    // t1's write lands between t0's write and t0's next read: the read
    // sees it, closing the cycle t0 -> t1 -> t0 at index 5.
    Trace t;
    t.begin(0);
    t.write(0, 1);
    t.read(0, 1);
    t.read(0, 1); // dropped
    t.write(1, 1);
    t.read(0, 1); // the violation
    t.end(0);
    EXPECT_EQ(expect_exact(events_of(t), "foreign write"), 1u);
    const Outcome full = check_full(events_of(t));
    EXPECT_TRUE(full.violation);
    EXPECT_EQ(full.index, 5u);
}

TEST(OwnedRereads, RereadAfterTheOwnersTransactionRestartedIsKept)
{
    Trace t;
    t.begin(0);
    t.write(0, 1);
    t.read(0, 1);
    t.read(0, 1); // dropped
    t.end(0);
    t.begin(0);
    t.read(0, 1);
    t.read(0, 1); // kept: the write belongs to the ended transaction
    t.read(0, 1);
    t.end(0);
    EXPECT_EQ(expect_exact(events_of(t), "restarted"), 1u);
}

TEST(OwnedRereads, VariablesSharingAMemoSlotStayApart)
{
    constexpr VarId x = 5;
    constexpr VarId y = x + OwnedRereadFilter::kMemoSlots; // same slot
    Trace t;
    t.write(1, x);
    t.begin(0);
    t.write(0, y);
    t.read(0, y);
    t.read(0, x); // kept: t0 never wrote x
    t.read(0, x); // kept: t1 is x's last writer
    t.read(0, y); // dropped
    t.write(0, x); // evicts y
    t.read(0, x);
    t.read(0, y); // kept: a miss
    t.read(0, x); // dropped
    t.end(0);
    EXPECT_EQ(expect_exact(events_of(t), "shared slot"), 2u);
}

TEST(OwnedRereads, ThreadIdsPastTheTableAreKept)
{
    constexpr ThreadId hi = OwnedRereadFilter::kMemoThreads + 44;
    Trace t;
    t.begin(hi);
    t.write(hi, 1);
    t.read(hi, 1);
    t.read(hi, 1); // kept: untracked thread
    t.end(hi);
    // An untracked thread's write still evicts: t0's next read sees it.
    t.begin(0);
    t.write(0, 2);
    t.read(0, 2);
    t.read(0, 2); // dropped
    t.write(hi, 2);
    t.read(0, 2); // the violation
    t.end(0);
    EXPECT_EQ(expect_exact(events_of(t), "high tid"), 1u);
    EXPECT_TRUE(check_full(events_of(t)).violation);
}

TEST(OwnedRereads, ExternalTidReusedAfterItsJoinStartsAfresh)
{
    Trace t;
    t.fork(0, 1);
    t.begin(1);
    t.write(1, 1);
    t.read(1, 1);
    t.read(1, 1); // dropped
    t.end(1);
    t.join(0, 1); // retires t1's slot
    t.fork(0, 1); // the same external id, a new thread
    t.begin(1);
    t.read(1, 1);
    t.read(1, 1); // kept: the write was the old thread's
    t.end(1);
    t.join(0, 1);
    EXPECT_EQ(expect_exact(events_of(t), "reused tid"), 1u);
}

TEST(OwnedRereads, ViolationRightAfterADroppedRead)
{
    Trace t;
    t.begin(0);    // 0
    t.write(0, 1); // 1
    t.read(0, 1);  // 2
    t.read(0, 2);  // 3
    t.begin(1);    // 4
    t.write(1, 2); // 5: t0 -> t1
    t.write(1, 3); // 6
    t.end(1);      // 7
    t.read(0, 1);  // 8: dropped
    t.read(0, 3);  // 9: t1 -> t0, the violation
    t.end(0);
    EXPECT_EQ(expect_exact(events_of(t), "violation after drop"), 1u);
    const Outcome full = check_full(events_of(t));
    EXPECT_TRUE(full.violation);
    EXPECT_EQ(full.index, 9u);
}

TEST(OwnedRereads, DropsAtBlockBoundaries)
{
    // Blocks of 7: drops end block 0, fill blocks 1 and 2 (kept count
    // 0), and open block 3.
    Trace t;
    t.begin(0);
    t.write(0, 1);
    t.read(0, 1);
    for (int k = 0; k < 22; ++k)
        t.read(0, 1); // dropped, indices 3 to 24
    t.write(0, 2);
    t.end(0);
    EXPECT_EQ(expect_exact(events_of(t), "block boundaries"), 22u);
    const Outcome c = check_compacted(events_of(t), 7, false);
    EXPECT_EQ(c.consumed, t.size());
}

} // namespace
} // namespace aero
