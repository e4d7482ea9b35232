/**
 * @file
 * The paper's worked examples, asserted end to end:
 *
 *  - rho1 (Figure 1): conflict serializable;
 *  - rho2 (Figure 2): violation, detected at t1's read of y; the exact
 *    vector clock evolution of Figure 5 is asserted;
 *  - rho3 (Figure 3): violation detectable only at t1's end event
 *    (Figure 6) — there is no CHB path returning to the same transaction;
 *  - rho4 (Figure 4): violation through a dependency introduced by future
 *    events (Figure 7);
 *
 * plus the prefix behavior of Examples 5 and 6 and the divergence between
 * Velodrome (detects the rho3 cycle at e6) and AeroDrome (at e7).
 */

#include <gtest/gtest.h>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "oracle/serializability_oracle.hpp"
#include "trace/builder.hpp"
#include "velodrome/velodrome.hpp"

namespace aero {
namespace {

Trace
rho1()
{
    TraceBuilder b;
    b.begin("t1");          // e1
    b.write("t1", "x");     // e2
    b.begin("t2");          // e3
    b.read("t2", "x");      // e4
    b.end("t2");            // e5
    b.begin("t3");          // e6
    b.write("t3", "z");     // e7
    b.end("t3");            // e8
    b.read("t1", "z");      // e9
    b.end("t1");            // e10
    return b.take();
}

Trace
rho2()
{
    TraceBuilder b;
    b.begin("t1");          // e1
    b.begin("t2");          // e2
    b.write("t1", "x");     // e3
    b.read("t2", "x");      // e4
    b.write("t2", "y");     // e5
    b.read("t1", "y");      // e6
    b.end("t2");            // e7
    b.end("t1");            // e8
    return b.take();
}

Trace
rho3()
{
    TraceBuilder b;
    b.begin("t1");          // e1
    b.begin("t2");          // e2
    b.write("t1", "x");     // e3
    b.write("t2", "y");     // e4
    b.read("t1", "y");      // e5
    b.read("t2", "x");      // e6
    b.end("t1");            // e7
    b.end("t2");            // e8
    return b.take();
}

Trace
rho4()
{
    TraceBuilder b;
    b.begin("t1");          // e1
    b.write("t1", "x");     // e2
    b.begin("t2");          // e3
    b.write("t2", "y");     // e4
    b.read("t2", "x");      // e5
    b.end("t2");            // e6
    b.begin("t3");          // e7
    b.read("t3", "y");      // e8
    b.write("t3", "z");     // e9
    b.end("t3");            // e10
    b.read("t1", "z");      // e11
    b.end("t1");            // e12
    return b.take();
}

template <typename Checker>
RunResult
run(const Trace& trace)
{
    Checker checker(trace.num_threads(), trace.num_vars(),
                    trace.num_locks());
    return run_checker(checker, trace);
}

// --- Verdicts across all engines -----------------------------------------

template <typename T>
class PaperTraceAllEngines : public ::testing::Test {};

using Engines = ::testing::Types<AeroDromeBasic, AeroDromeOpt, Velodrome>;
TYPED_TEST_SUITE(PaperTraceAllEngines, Engines);

TYPED_TEST(PaperTraceAllEngines, Rho1Serializable)
{
    EXPECT_FALSE(run<TypeParam>(rho1()).violation);
}

TYPED_TEST(PaperTraceAllEngines, Rho2Violation)
{
    EXPECT_TRUE(run<TypeParam>(rho2()).violation);
}

TYPED_TEST(PaperTraceAllEngines, Rho3Violation)
{
    EXPECT_TRUE(run<TypeParam>(rho3()).violation);
}

TYPED_TEST(PaperTraceAllEngines, Rho4Violation)
{
    EXPECT_TRUE(run<TypeParam>(rho4()).violation);
}

// --- Oracle verdicts ------------------------------------------------------

TEST(PaperTracesOracle, Verdicts)
{
    EXPECT_TRUE(check_serializability(rho1()).serializable);
    for (const Trace& t : {rho2(), rho3(), rho4()}) {
        OracleResult r = check_serializability(t);
        EXPECT_FALSE(r.serializable);
        EXPECT_TRUE(r.detectable_with_one_open);
    }
}

TEST(PaperTracesOracle, Rho1GraphShape)
{
    OracleResult r = check_serializability(rho1());
    // Three transactions, no unary events.
    EXPECT_EQ(r.num_transactions, 3u);
    // T1 -> T2 (x) and T3 -> T1 (z), plus no duplicates.
    EXPECT_EQ(r.num_edges, 2u);
}

// --- Detection points -----------------------------------------------------

TEST(PaperTraces, Rho2DetectedAtReadOfY)
{
    // Figure 5: the violation fires at e6 = <t1, r(y)> (index 5).
    auto r = run<AeroDromeBasic>(rho2());
    ASSERT_TRUE(r.violation);
    EXPECT_EQ(r.details->event_index, 5u);
    EXPECT_EQ(r.details->thread, 0u); // charged to t1
}

TEST(PaperTraces, Rho3DetectedAtEndEvent)
{
    // Figure 6: no CHB path returns to the same transaction, so the
    // violation is only discovered at e7 = <t1, end> (index 6).
    auto r = run<AeroDromeBasic>(rho3());
    ASSERT_TRUE(r.violation);
    EXPECT_EQ(r.details->event_index, 6u);
    EXPECT_EQ(r.details->thread, 1u); // charged to t2's active transaction
}

TEST(PaperTraces, Rho3VelodromeDetectsEarlierThanAeroDrome)
{
    // Velodrome sees the cycle as soon as the second edge is inserted at
    // e6 = <t2, r(x)> (index 5); AeroDrome needs the end event.
    auto rv = run<Velodrome>(rho3());
    ASSERT_TRUE(rv.violation);
    EXPECT_EQ(rv.details->event_index, 5u);
}

TEST(PaperTraces, Rho4DetectedAtReadOfZ)
{
    // Figure 7: the violation fires at e11 = <t1, r(z)> (index 10).
    auto r = run<AeroDromeBasic>(rho4());
    ASSERT_TRUE(r.violation);
    EXPECT_EQ(r.details->event_index, 10u);
    EXPECT_EQ(r.details->thread, 0u);
}

TEST(PaperTraces, Example5PrefixSigma6HasNoAeroDromeViolation)
{
    // Example 5: in the prefix of rho3 up to e6 the conditions of
    // Theorem 2 are not yet satisfied; AeroDrome reports nothing.
    Trace full = rho3();
    Trace prefix;
    for (size_t i = 0; i < 6; ++i)
        prefix.push(full[i]);
    EXPECT_FALSE(run<AeroDromeBasic>(prefix).violation);
    // The oracle agrees: a cycle exists (Definition 1) but every witness
    // has two open transactions, which AeroDrome deliberately skips.
    OracleResult o = check_serializability(prefix);
    EXPECT_FALSE(o.serializable);
    EXPECT_FALSE(o.detectable_with_one_open);
}

// --- Exact clock evolution (Figures 5-7) ----------------------------------

TEST(PaperClockValues, Figure5Rho2)
{
    Trace t = rho2();
    AeroDromeBasic a(t.num_threads(), t.num_vars(), t.num_locks());
    uint32_t x, y;
    ASSERT_TRUE(t.vars().lookup("x", x));
    ASSERT_TRUE(t.vars().lookup("y", y));

    ASSERT_FALSE(a.process(t[0], 0)); // e1: t1 begin
    EXPECT_EQ(a.clock_of(0), (VectorClock{2, 0}));
    ASSERT_FALSE(a.process(t[1], 1)); // e2: t2 begin
    EXPECT_EQ(a.clock_of(1), (VectorClock{0, 2}));
    ASSERT_FALSE(a.process(t[2], 2)); // e3: w(x)
    EXPECT_EQ(a.write_clock_of(x), (VectorClock{2, 0}));
    ASSERT_FALSE(a.process(t[3], 3)); // e4: r(x)
    EXPECT_EQ(a.clock_of(1), (VectorClock{2, 2}));
    ASSERT_FALSE(a.process(t[4], 4)); // e5: w(y)
    EXPECT_EQ(a.write_clock_of(y), (VectorClock{2, 2}));
    // e6: r(y) declares the violation (C_t1^b sqsubseteq W_y).
    EXPECT_TRUE(a.process(t[5], 5));
    EXPECT_TRUE(a.begin_clock_of(0).leq(a.write_clock_of(y)));
}

TEST(PaperClockValues, Figure6Rho3)
{
    Trace t = rho3();
    AeroDromeBasic a(t.num_threads(), t.num_vars(), t.num_locks());
    uint32_t x, y;
    ASSERT_TRUE(t.vars().lookup("x", x));
    ASSERT_TRUE(t.vars().lookup("y", y));

    for (size_t i = 0; i < 4; ++i)
        ASSERT_FALSE(a.process(t[i], i));
    EXPECT_EQ(a.write_clock_of(x), (VectorClock{2, 0}));
    EXPECT_EQ(a.write_clock_of(y), (VectorClock{0, 2}));
    ASSERT_FALSE(a.process(t[4], 4)); // e5: t1 r(y)
    EXPECT_EQ(a.clock_of(0), (VectorClock{2, 2}));
    ASSERT_FALSE(a.process(t[5], 5)); // e6: t2 r(x)
    EXPECT_EQ(a.clock_of(1), (VectorClock{2, 2}));
    // e7: t1 end -> violation (C_t2^b sqsubseteq C_t1).
    EXPECT_TRUE(a.process(t[6], 6));
    EXPECT_TRUE(a.begin_clock_of(1).leq(a.clock_of(0)));
}

TEST(PaperClockValues, Figure7Rho4)
{
    Trace t = rho4();
    AeroDromeBasic a(t.num_threads(), t.num_vars(), t.num_locks());
    uint32_t x, y, z;
    ASSERT_TRUE(t.vars().lookup("x", x));
    ASSERT_TRUE(t.vars().lookup("y", y));
    ASSERT_TRUE(t.vars().lookup("z", z));

    ASSERT_FALSE(a.process(t[0], 0)); // e1
    EXPECT_EQ(a.clock_of(0), (VectorClock{2, 0, 0}));
    ASSERT_FALSE(a.process(t[1], 1)); // e2: w(x)
    EXPECT_EQ(a.write_clock_of(x), (VectorClock{2, 0, 0}));
    ASSERT_FALSE(a.process(t[2], 2)); // e3
    EXPECT_EQ(a.clock_of(1), (VectorClock{0, 2, 0}));
    ASSERT_FALSE(a.process(t[3], 3)); // e4: w(y)
    EXPECT_EQ(a.write_clock_of(y), (VectorClock{0, 2, 0}));
    ASSERT_FALSE(a.process(t[4], 4)); // e5: r(x)
    EXPECT_EQ(a.clock_of(1), (VectorClock{2, 2, 0}));
    ASSERT_FALSE(a.process(t[5], 5)); // e6: t2 end
    // W_y is ordered after C_t2^b, so it absorbs C_t2 (Figure 7 shows
    // W_y = <2,2,0> after e6).
    EXPECT_EQ(a.write_clock_of(y), (VectorClock{2, 2, 0}));
    ASSERT_FALSE(a.process(t[6], 6)); // e7
    EXPECT_EQ(a.clock_of(2), (VectorClock{0, 0, 2}));
    ASSERT_FALSE(a.process(t[7], 7)); // e8: r(y)
    EXPECT_EQ(a.clock_of(2), (VectorClock{2, 2, 2}));
    ASSERT_FALSE(a.process(t[8], 8)); // e9: w(z)
    EXPECT_EQ(a.write_clock_of(z), (VectorClock{2, 2, 2}));
    ASSERT_FALSE(a.process(t[9], 9)); // e10: t3 end
    // e11: t1 r(z) -> violation (C_t1^b sqsubseteq W_z).
    EXPECT_TRUE(a.process(t[10], 10));
}

// --- Example 6 / prefix sigma11 of rho4 -----------------------------------

TEST(PaperTraces, Rho4PrefixSigma10StillSerializable)
{
    // The cycle of rho4 closes only with e11 itself: T3 -> T1 needs t1's
    // read of z. The prefix sigma10 is still conflict serializable, and
    // AeroDrome correctly reports exactly at e11 (Example 6).
    Trace full = rho4();
    Trace prefix;
    for (size_t i = 0; i < 10; ++i)
        prefix.push(full[i]);
    EXPECT_FALSE(run<AeroDromeBasic>(prefix).violation);
    EXPECT_TRUE(check_serializability(prefix).serializable);
}

} // namespace
} // namespace aero
