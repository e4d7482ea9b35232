/**
 * @file
 * Tests for the analysis harness: the timed runner (budget / "TO"
 * semantics), the transaction tracker, support utilities, and table
 * rendering.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>

#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/report.hpp"
#include "analysis/runner.hpp"
#include "analysis/txn_tracker.hpp"
#include "gen/patterns.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace aero {
namespace {

// --- TxnTracker ----------------------------------------------------------

TEST(TxnTracker, OutermostDetection)
{
    TxnTracker tr(2);
    EXPECT_FALSE(tr.active(0));
    EXPECT_TRUE(tr.on_begin(0));   // outermost
    EXPECT_FALSE(tr.on_begin(0));  // nested
    EXPECT_TRUE(tr.active(0));
    EXPECT_FALSE(tr.on_end(0));    // closes nested
    EXPECT_TRUE(tr.on_end(0));     // closes outermost
    EXPECT_FALSE(tr.active(0));
}

TEST(TxnTracker, SequenceNumbers)
{
    TxnTracker tr(1);
    EXPECT_EQ(tr.seq(0), 0u);
    tr.on_begin(0);
    EXPECT_EQ(tr.seq(0), 1u);
    tr.on_end(0);
    tr.on_begin(0);
    EXPECT_EQ(tr.seq(0), 2u);
    // Nested begins do not bump the sequence.
    tr.on_begin(0);
    EXPECT_EQ(tr.seq(0), 2u);
}

TEST(TxnTracker, UnmatchedEndIgnored)
{
    TxnTracker tr(1);
    EXPECT_FALSE(tr.on_end(0));
}

TEST(TxnTracker, DynamicGrowth)
{
    TxnTracker tr;
    EXPECT_FALSE(tr.active(5));
    EXPECT_TRUE(tr.on_begin(5));
    EXPECT_TRUE(tr.active(5));
}

// --- Runner ----------------------------------------------------------------

TEST(Runner, CompletesWithinBudget)
{
    Trace t = gen::make_pipeline(3, 100);
    AeroDromeOpt checker(t.num_threads(), t.num_vars(), t.num_locks());
    RunBudget budget;
    budget.max_seconds = 60;
    RunResult r = run_checker(checker, t, budget);
    EXPECT_FALSE(r.timed_out);
    EXPECT_FALSE(r.violation);
    EXPECT_EQ(r.events_processed, t.size());
    EXPECT_STREQ(r.verdict(), "ok");
}

TEST(Runner, StopsAtViolation)
{
    Trace t = gen::make_ring(2);
    AeroDromeOpt checker(t.num_threads(), t.num_vars(), t.num_locks());
    RunResult r = run_checker(checker, t);
    EXPECT_TRUE(r.violation);
    EXPECT_LT(r.events_processed, t.size() + 1);
    EXPECT_STREQ(r.verdict(), "x");
    ASSERT_TRUE(r.details.has_value());
}

namespace {

/** Checker that burns wall-clock time per event. */
class SlowChecker : public CheckerBase {
public:
    std::string_view name() const override { return "slow"; }
    bool
    process(const Event&, size_t) override
    {
        volatile uint64_t sink = 0;
        for (int i = 0; i < 2000000; ++i)
            sink = sink + static_cast<uint64_t>(i);
        return false;
    }
};

} // namespace

TEST(Runner, TimesOut)
{
    Trace t = gen::make_pipeline(2, 2000);
    SlowChecker checker;
    RunBudget budget;
    budget.max_seconds = 0.05;
    budget.check_interval = 8;
    RunResult r = run_checker(checker, t, budget);
    EXPECT_TRUE(r.timed_out);
    EXPECT_FALSE(r.violation);
    EXPECT_LT(r.events_processed, t.size());
    EXPECT_STREQ(r.verdict(), "TO");
}

namespace {

/** Checker whose i-th event spins for base + i * ramp nanoseconds. */
class SpinChecker : public CheckerBase {
public:
    SpinChecker(uint64_t base_ns, uint64_t ramp_ns)
        : base_ns_(base_ns), ramp_ns_(ramp_ns)
    {
    }

    std::string_view name() const override { return "spin"; }

    bool
    process(const Event&, size_t index) override
    {
        const auto until =
            std::chrono::steady_clock::now() +
            std::chrono::nanoseconds(base_ns_ + index * ramp_ns_);
        while (std::chrono::steady_clock::now() < until) {
        }
        return false;
    }

private:
    uint64_t base_ns_;
    uint64_t ramp_ns_;
};

} // namespace

TEST(Runner, SlowEngineStopsWithinFivePercentOr50ms)
{
    // Default check_interval (65,536 events): a fixed-interval poll would
    // let these engines run seconds past the budget. A steady 200 us per
    // event, and a cost that grows by 100 ns per event (Velodrome-like),
    // must both stop within max(5%, 50 ms) of a 0.3 s budget.
    Trace t = gen::make_pipeline(4, 4000);
    ASSERT_GT(t.size(), 20000u);
    const uint64_t kCosts[][2] = {{200000, 0}, {0, 100}};
    for (const auto& cost : kCosts) {
        SpinChecker checker(cost[0], cost[1]);
        RunBudget budget;
        budget.max_seconds = 0.3;
        RunResult r = run_checker(checker, t, budget);
        EXPECT_TRUE(r.timed_out);
        EXPECT_LT(r.events_processed, t.size());
        EXPECT_LE(r.seconds, budget.max_seconds + 0.05)
            << "base " << cost[0] << " ns, ramp " << cost[1] << " ns";
    }
}

// --- Report helpers -----------------------------------------------------------

TEST(Report, TableAlignsColumns)
{
    TextTable table;
    table.header({"Program", "Events", "Speed-up"});
    table.row({"avrora", "2.4B", "> 24000"});
    table.row({"philo", "613", "1"});
    std::ostringstream os;
    table.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("Program"), std::string::npos);
    EXPECT_NE(out.find("avrora"), std::string::npos);
    // Separator line present.
    EXPECT_NE(out.find("---"), std::string::npos);
    // All data lines have equal column starts: "Events" and "2.4B" align.
    size_t header_col = out.find("Events");
    size_t row_col = out.find("2.4B");
    size_t header_line_start = out.rfind('\n', header_col);
    size_t row_line_start = out.rfind('\n', row_col);
    EXPECT_EQ(header_col - header_line_start, row_col - row_line_start);
}

TEST(Report, SpeedupFormatting)
{
    EXPECT_EQ(format_speedup(97.0, false), "97.00");
    EXPECT_EQ(format_speedup(24000.0, true), "> 24000");
    EXPECT_EQ(format_speedup(0.86, false), "0.86");
    // Values >= 100 drop decimals (printf %.0f, round-half-even).
    EXPECT_EQ(format_speedup(104.5, false), "104");
    EXPECT_EQ(format_speedup(104.7, false), "105");
    EXPECT_EQ(format_speedup(6545.0, true), "> 6545");
}

// --- Support utilities -----------------------------------------------------

TEST(Support, WithCommas)
{
    EXPECT_EQ(with_commas(0), "0");
    EXPECT_EQ(with_commas(999), "999");
    EXPECT_EQ(with_commas(1000), "1,000");
    EXPECT_EQ(with_commas(1234567), "1,234,567");
    EXPECT_EQ(with_commas(1000000000), "1,000,000,000");
}

TEST(Support, FormatDuration)
{
    EXPECT_EQ(format_duration(0.0000005), "0.5us");
    EXPECT_EQ(format_duration(0.0015), "1.50ms");
    EXPECT_EQ(format_duration(2.345), "2.35s");
    EXPECT_EQ(format_duration(3340), "55m40s");
}

TEST(Support, ParseU64)
{
    uint64_t v = 0;
    EXPECT_TRUE(parse_u64("12345", v));
    EXPECT_EQ(v, 12345u);
    EXPECT_FALSE(parse_u64("", v));
    EXPECT_FALSE(parse_u64("12a", v));
    EXPECT_FALSE(parse_u64("-3", v));
    EXPECT_TRUE(parse_u64("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
    EXPECT_FALSE(parse_u64("18446744073709551616", v)); // overflow
}

TEST(Support, ParseSeconds)
{
    double s = -1;
    EXPECT_TRUE(parse_seconds("2.5", s));
    EXPECT_EQ(s, 2.5);
    EXPECT_TRUE(parse_seconds("0", s));
    EXPECT_EQ(s, 0.0);
    for (const char* bad : {"", "abc", "1s", "nan", "inf", "1e999", "-1"})
        EXPECT_FALSE(parse_seconds(bad, s)) << bad;
}

TEST(Support, SplitAndTrim)
{
    auto parts = split("a|b||c", '|');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(trim("  x y \t"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_TRUE(starts_with("abcdef", "abc"));
    EXPECT_FALSE(starts_with("ab", "abc"));
}

TEST(Support, RngDeterminism)
{
    Rng a(7), b(7), c(8);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next_u64(), b.next_u64());
    bool differs = false;
    for (int i = 0; i < 10; ++i)
        differs = differs || (a.next_u64() != c.next_u64());
    EXPECT_TRUE(differs);
}

TEST(Support, RngBounds)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.next_below(7), 7u);
        int64_t v = r.next_range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
        double d = r.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Support, RngWeighted)
{
    Rng r(3);
    std::vector<double> w{0.0, 1.0, 0.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.next_weighted(w), 1u);
}

TEST(Support, RngShuffleIsPermutation)
{
    Rng r(5);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
    auto orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

} // namespace
} // namespace aero
