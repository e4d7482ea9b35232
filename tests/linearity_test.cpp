/**
 * @file
 * Linearity, counted rather than timed. The paper's claim is one linear
 * pass over the trace, so the shipped engine's work must grow no faster
 * than the events it checks. Each defect that broke this so far did
 * work that grew with the ids declared or used instead: a retirement
 * that walked every declared variable, sweeps over the declared id
 * range, an end that scanned every lock. A timing test cannot pin those
 * on a shared machine; the engine's own counters can, and they are
 * deterministic.
 *
 * For each workload family of perfbench (star: Table 1's avrora row;
 * naive: Table 2's batik row; rolling: the server stream with thread
 * churn), and for fine-grained locking (one fresh lock per transaction
 * pair), this checks n and 4n events and requires every work counter to
 * grow by at most the event ratio (4) times 1 + kSlack. The rolling
 * stream's variable range still grows over its first ~250k events, as
 * its hot window slides around the variable ring, and retirements and
 * sweeps walk that range; so it is measured past a warm-up: the work of
 * the n and the 4n events that follow the first kRollingWarmup.
 *
 * ctest label: linearity (`ctest -L linearity`).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "aerodrome/aerodrome_opt.hpp"
#include "gen/bench_models.hpp"
#include "gen/rolling_stream.hpp"
#include "trace/stream.hpp"

namespace aero {
namespace {

/** The counters of work that must stay linear in the events. */
const char* const kWorkCounters[] = {
    "comparisons", "joins", "end_swept_entries", "gc_scanned_words",
    "retire_scanned_words", "thread_rows_walked"};
constexpr size_t kNumWork = std::size(kWorkCounters);

/** Allowed growth beyond the event ratio. The largest measured excess
 *  is rolling's gc_scanned_words, 1% past a 250k-event warm-up (32%
 *  without one). */
constexpr double kSlack = 0.05;

/** Events checked and work counters, as of one point of a run. */
struct Work {
    uint64_t events = 0;
    uint64_t counters[kNumWork] = {};

    Work
    operator-(const Work& o) const
    {
        Work d;
        d.events = events - o.events;
        for (size_t c = 0; c < kNumWork; ++c)
            d.counters[c] = counters[c] - o.counters[c];
        return d;
    }
};

Work
snapshot(const AeroDromeOpt& engine, uint64_t events)
{
    Work w;
    w.events = events;
    const StatList stats = engine.counters();
    for (size_t c = 0; c < kNumWork; ++c) {
        bool found = false;
        for (const auto& [name, value] : stats) {
            if (name == kWorkCounters[c]) {
                w.counters[c] = value;
                found = true;
            }
        }
        EXPECT_TRUE(found) << "no counter " << kWorkCounters[c];
    }
    return w;
}

/** Check `src` with a fresh AeroDromeOpt and snapshot its work after
 *  each of the event counts in `marks` (ascending). A violation ends the
 *  run; the marks past it read the work at the violation. */
std::vector<Work>
run_with_marks(EventSource& src, const std::vector<uint64_t>& marks)
{
    AeroDromeOpt engine(0, 0, 0);
    std::vector<Work> out;
    std::vector<Event> buf(kDefaultIngestBlock);
    uint64_t i = 0;
    bool stop = false;
    while (!stop && out.size() < marks.size()) {
        const size_t got = src.next_n(buf.data(), buf.size());
        if (got == 0)
            break;
        for (size_t j = 0; j < got && !stop; ++j) {
            stop = engine.process(buf[j], i);
            ++i;
            while (out.size() < marks.size() && i == marks[out.size()])
                out.push_back(snapshot(engine, i));
        }
    }
    while (out.size() < marks.size())
        out.push_back(snapshot(engine, i));
    return out;
}

/** The work of n events against that of 4n. */
void
expect_linear(const Work& small, const Work& large, const std::string& what)
{
    ASSERT_GT(small.events, 0u) << what;
    const double growth = static_cast<double>(large.events) /
                          static_cast<double>(small.events);
    EXPECT_GT(growth, 3.9) << what << ": the larger run stopped early";
    EXPECT_GT(small.counters[0], 0u) << what << ": no comparisons";
    for (size_t c = 0; c < kNumWork; ++c) {
        const double bound =
            growth * (1 + kSlack) * static_cast<double>(small.counters[c]);
        EXPECT_LE(static_cast<double>(large.counters[c]), bound)
            << what << ": " << kWorkCounters[c] << " went from "
            << small.counters[c] << " to " << large.counters[c]
            << " while the events grew " << growth << "x";
    }
}

/** One n / 4n pair of a Table 1/2 model row, each its own trace. */
void
check_model(const gen::BenchModel& row, uint64_t n)
{
    std::vector<Work> runs;
    for (uint64_t events : {n, 4 * n}) {
        gen::BenchModel m = row;
        m.events = events;
        const Trace t = gen::build_model_trace(m);
        TraceSource src(t);
        runs.push_back(run_with_marks(src, {t.size()}).front());
    }
    expect_linear(runs[0], runs[1], row.name);
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

TEST(Linearity, StarWorkGrowsWithTheEvents)
{
    // 500k -> 2M: every counter 4.00x; gc_scanned_words stays at 385.
    check_model(model_row(gen::table1_models(), "avrora"), 500'000);
}

TEST(Linearity, NaiveWorkGrowsWithTheEvents)
{
    // Both runs stop at their violation, ~90% in, so the events checked
    // grow 3.99x; comparisons grow 3.87x and joins 3.95x. Nothing
    // ends a propagating transaction, sweeps or retires here.
    check_model(model_row(gen::table2_models(), "batik"), 500'000);
}

TEST(Linearity, ManyLocksWorkGrowsWithTheEvents)
{
    // Two threads, one fresh lock per transaction pair: t1 takes lock l
    // in a transaction of its own, then t0 takes it in one of its own,
    // so every end of t0 has an incoming edge and propagates while the
    // lock table keeps growing. An end that compares every lock makes
    // comparisons grow ~16x here.
    std::vector<Work> runs;
    for (uint64_t events : {40'000, 160'000}) {
        Trace t;
        for (LockId l = 0; t.size() < events; ++l) {
            for (ThreadId u : {1, 0}) {
                t.begin(u);
                t.acquire(u, l);
                t.release(u, l);
                t.end(u);
            }
        }
        TraceSource src(t);
        runs.push_back(run_with_marks(src, {t.size()}).front());
    }
    expect_linear(runs[0], runs[1], "many locks");
}

constexpr uint64_t kRollingWarmup = 500'000;

TEST(Linearity, RollingWorkGrowsWithTheEventsPastWarmup)
{
    constexpr uint64_t kN = 500'000;
    gen::RollingStreamOptions opts;
    opts.seed = 1;
    opts.max_events = kRollingWarmup + 4 * kN;
    gen::RollingStreamSource src(opts);
    const std::vector<Work> at = run_with_marks(
        src, {kRollingWarmup, kRollingWarmup + kN, kRollingWarmup + 4 * kN});
    const Work small = at[1] - at[0];
    const Work large = at[2] - at[0];
    // The stream churns threads and slides its working set throughout,
    // so every counter moves: a retirement walk or a sweep over a range
    // that outgrows the live state shows here. Measured: 4.00x, and
    // 4.02x for gc_scanned_words.
    for (size_t c = 0; c < kNumWork; ++c)
        EXPECT_GT(small.counters[c], 0u) << kWorkCounters[c];
    expect_linear(small, large, "rolling");
}

} // namespace
} // namespace aero
