/**
 * @file
 * Unit tests for AeroDrome behaviors shared by both engines, plus
 * variant-specific checks (Section 4.1.4 nested/unary handling, lock and
 * fork/join conflicts, Theorem 3's open-transaction caveat, and the
 * optimized engine's lazy/GC statistics).
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/patterns.hpp"
#include "oracle/serializability_oracle.hpp"
#include "trace/builder.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define AERO_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AERO_TEST_ASAN 1
#endif
#endif

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

template <typename T>
class AeroDromeVariants : public ::testing::Test {};

using Variants = ::testing::Types<AeroDromeBasic, AeroDromeOpt>;
TYPED_TEST_SUITE(AeroDromeVariants, Variants);

// --- Lock-mediated cycles ---------------------------------------------------

TYPED_TEST(AeroDromeVariants, LockCycleViolation)
{
    // T1 and T2 both bracket two critical sections; interleaving them
    // creates rel->acq edges in both directions.
    TraceBuilder b;
    b.begin("t1").acquire("t1", "m").write("t1", "x").release("t1", "m");
    b.begin("t2").acquire("t2", "m").write("t2", "x").release("t2", "m");
    b.acquire("t1", "m").write("t1", "x").release("t1", "m").end("t1");
    b.end("t2");
    EXPECT_TRUE(run<TypeParam>(b.trace()).violation);
}

TYPED_TEST(AeroDromeVariants, SequentialLockUseIsSerializable)
{
    TraceBuilder b;
    b.begin("t1").acquire("t1", "m").write("t1", "x");
    b.release("t1", "m").end("t1");
    b.begin("t2").acquire("t2", "m").read("t2", "x");
    b.release("t2", "m").end("t2");
    EXPECT_FALSE(run<TypeParam>(b.trace()).violation);
}

TYPED_TEST(AeroDromeVariants, SameThreadReacquireSkipsCheck)
{
    // lastRelThr short-circuit: a thread re-acquiring its own lock never
    // self-reports.
    TraceBuilder b;
    b.begin("t1").acquire("t1", "m").release("t1", "m");
    b.acquire("t1", "m").release("t1", "m").end("t1");
    EXPECT_FALSE(run<TypeParam>(b.trace()).violation);
}

// --- Fork / join -------------------------------------------------------------

TYPED_TEST(AeroDromeVariants, ForkOrdersChildAfterParent)
{
    // Parent writes x inside a transaction, forks, child reads x, parent
    // transaction still open when child finishes: serial order exists
    // (parent-then-child), no violation.
    TraceBuilder b;
    b.write("t0", "x");
    b.fork("t0", "t1");
    b.begin("t1").read("t1", "x").end("t1");
    b.join("t0", "t1");
    EXPECT_FALSE(run<TypeParam>(b.trace()).violation);
}

TYPED_TEST(AeroDromeVariants, ForkReadBackCycleViolation)
{
    // Parent txn forks child, child writes x, parent reads x back inside
    // the same txn: fork edge T_parent -> T_child plus data edge
    // T_child -> T_parent closes a cycle.
    TraceBuilder b;
    b.begin("t0");
    b.fork("t0", "t1");
    b.begin("t1").write("t1", "x").end("t1");
    b.read("t0", "x");
    b.end("t0");
    EXPECT_TRUE(run<TypeParam>(b.trace()).violation);
}

TYPED_TEST(AeroDromeVariants, JoinInsideTransactionCycleViolation)
{
    // Child reads parent's in-transaction write, then the parent joins the
    // child inside the same transaction: T_p -> T_c (data) and
    // T_c -> T_p (join).
    TraceBuilder b;
    b.fork("t0", "t1");
    b.begin("t0").write("t0", "x");
    b.begin("t1").read("t1", "x").end("t1");
    b.join("t0", "t1");
    b.end("t0");
    EXPECT_TRUE(run<TypeParam>(b.trace()).violation);
}

TYPED_TEST(AeroDromeVariants, EventlessChildJoinedInForkingTxnIsFine)
{
    // The child performs no event, so the fork and join edges both start
    // and end in t0's one transaction: no cycle between two transactions.
    TraceBuilder b;
    b.begin("t0").fork("t0", "t1").join("t0", "t1").end("t0");
    EXPECT_TRUE(check_serializability(b.trace()).serializable);
    EXPECT_FALSE(run<TypeParam>(b.trace()).violation);
}

TYPED_TEST(AeroDromeVariants, GrandchildJoinedByGrandparentIsViolation)
{
    // t2 performs no event, but t1's fork of it is an event outside t0's
    // transaction: t0 -> t1's fork (fork edge) -> t2 -> t0 (join edge).
    TraceBuilder b;
    b.begin("t0").fork("t0", "t1");
    b.fork("t1", "t2");
    b.join("t0", "t2").end("t0");
    EXPECT_FALSE(check_serializability(b.trace()).serializable);
    EXPECT_TRUE(run<TypeParam>(b.trace()).violation);
}

TYPED_TEST(AeroDromeVariants, JoinAfterTransactionIsFine)
{
    TraceBuilder b;
    b.fork("t0", "t1");
    b.begin("t0").write("t0", "x").end("t0");
    b.begin("t1").read("t1", "x").end("t1");
    b.join("t0", "t1");
    EXPECT_FALSE(run<TypeParam>(b.trace()).violation);
}

// --- Nested and unary transactions (Section 4.1.4) ---------------------------

TYPED_TEST(AeroDromeVariants, NestedBlocksUseOutermostOnly)
{
    // Same shape as rho2 but every access is wrapped in an extra inner
    // block; the verdict must be identical (violation).
    TraceBuilder b;
    b.begin("t1").begin("t2");
    b.begin("t1").write("t1", "x").end("t1");
    b.begin("t2").read("t2", "x").end("t2");
    b.begin("t2").write("t2", "y").end("t2");
    b.begin("t1").read("t1", "y").end("t1");
    b.end("t2").end("t1");
    EXPECT_TRUE(run<TypeParam>(b.trace()).violation);
}

TEST(AeroDromeExactVariants, InnerEndDoesNotCompleteTransaction)
{
    // A cycle between two still-open outer transactions must not be
    // reported just because an *inner* block closed: Algorithm 1 only
    // reports witnesses with at most one open transaction (Theorem 3).
    TraceBuilder b;
    b.begin("t1").begin("t2");
    b.write("t1", "x").write("t2", "y");
    b.begin("t1").read("t1", "y").end("t1"); // inner block of T1
    b.read("t2", "x");
    EXPECT_FALSE(run<AeroDromeBasic>(b.trace()).violation);
}

TYPED_TEST(AeroDromeVariants, UnaryEventsNeverReportThemselves)
{
    // t2's accesses are unary; a would-be cycle through them only exists
    // with transaction granularity on t1's side and is real: t1's txn
    // writes x, t2 reads x (unary), t2 writes y (unary), t1 reads y.
    // Witness: T1 -> U1 -> U2 -> T1 with U1, U2 complete: must report,
    // and the report happens at an event of t1 (the non-unary side).
    TraceBuilder b;
    b.begin("t1").write("t1", "x");
    b.read("t2", "x");
    b.write("t2", "y");
    b.read("t1", "y");
    b.end("t1");
    auto r = run<TypeParam>(b.trace());
    ASSERT_TRUE(r.violation);
    EXPECT_EQ(r.details->thread, 0u);
}

TYPED_TEST(AeroDromeVariants, PurelyUnaryTraceIsSerializable)
{
    // Without transactions there is nothing to violate: unary
    // transactions are single events and CHB is consistent with trace
    // order, so no cycle can form.
    TraceBuilder b;
    for (int i = 0; i < 10; ++i) {
        b.write("t1", "x").read("t2", "x");
        b.write("t2", "y").read("t1", "y");
    }
    EXPECT_FALSE(run<TypeParam>(b.trace()).violation);
}

// --- Theorem 3: open-transaction caveat --------------------------------------

TEST(AeroDromeExactVariants, TwoOpenTransactionsNotReported)
{
    // Cycle between two transactions that never complete: outside
    // Algorithm 1's contract (Theorem 3), not reported.
    TraceBuilder b;
    b.begin("t1").begin("t2");
    b.write("t1", "x").write("t2", "y");
    b.read("t1", "y").read("t2", "x");
    EXPECT_FALSE(run<AeroDromeBasic>(b.trace()).violation);
}

TEST(AeroDromeOptimized, LiveClockProxyMayReportOpenCyclesEarly)
{
    // Algorithm 3's lazy-write optimization checks conflicts against the
    // writer's *live* clock while the writing transaction is still open.
    // On a genuine cycle between two open transactions, that live clock
    // already carries the other transaction's begin, so the optimized
    // engine reports the (real, Definition 1) violation that Algorithm 1
    // would only surface at the first end event. This is sound — only
    // true <Txn paths flow through the clocks — and on traces whose
    // transactions all complete the verdicts coincide (see the
    // differential suite).
    TraceBuilder b;
    b.begin("t1").begin("t2");
    b.write("t1", "x").write("t2", "y");
    b.read("t1", "y").read("t2", "x");
    EXPECT_TRUE(run<AeroDromeOpt>(b.trace()).violation);
}

TYPED_TEST(AeroDromeVariants, OneOpenTransactionIsReported)
{
    // Same cycle, but t2's transaction completes: now a witness with only
    // one open transaction exists and must be reported (at t2's end).
    TraceBuilder b;
    b.begin("t1").begin("t2");
    b.write("t1", "x").write("t2", "y");
    b.read("t1", "y").read("t2", "x");
    b.end("t2");
    EXPECT_TRUE(run<TypeParam>(b.trace()).violation);
}

// --- Write-write conflicts ----------------------------------------------------

TYPED_TEST(AeroDromeVariants, WriteWriteCycleViolation)
{
    TraceBuilder b;
    b.begin("t1").begin("t2");
    b.write("t1", "x").write("t2", "x"); // T1 -> T2
    b.write("t2", "y").write("t1", "y"); // T2 -> T1
    b.end("t1").end("t2");
    EXPECT_TRUE(run<TypeParam>(b.trace()).violation);
}

TYPED_TEST(AeroDromeVariants, ReadSharingIsSerializable)
{
    // Reads do not conflict with reads: many concurrent readers of the
    // same variable are fine.
    TraceBuilder b;
    b.begin("t1").begin("t2").begin("t3");
    for (int i = 0; i < 5; ++i)
        b.read("t1", "x").read("t2", "x").read("t3", "x");
    b.end("t1").end("t2").end("t3");
    EXPECT_FALSE(run<TypeParam>(b.trace()).violation);
}

TYPED_TEST(AeroDromeVariants, SameThreadWriteReadNoSelfViolation)
{
    // lastWThr short-circuit: a thread reading its own write never
    // self-reports.
    TraceBuilder b;
    b.begin("t1");
    for (int i = 0; i < 4; ++i)
        b.write("t1", "x").read("t1", "x");
    b.end("t1");
    EXPECT_FALSE(run<TypeParam>(b.trace()).violation);
}

// --- Violation evidence -------------------------------------------------------

TYPED_TEST(AeroDromeVariants, ViolationDetailsPopulated)
{
    TraceBuilder b;
    b.begin("t1").begin("t2");
    b.write("t1", "x").read("t2", "x");
    b.write("t2", "y").read("t1", "y");
    b.end("t2").end("t1");
    auto r = run<TypeParam>(b.trace());
    ASSERT_TRUE(r.violation);
    ASSERT_TRUE(r.details.has_value());
    EXPECT_FALSE(r.details->reason.empty());
    EXPECT_EQ(r.details->event_index, 5u);
    EXPECT_LT(r.details->thread, 2u);
}

// --- Optimized engine specifics -----------------------------------------------

TEST(AeroDromeOptimized, LazyUpdatesAreUsed)
{
    TraceBuilder b;
    b.begin("t1");
    for (int i = 0; i < 50; ++i)
        b.read("t1", "x").write("t1", "y");
    b.end("t1");
    Trace t = b.take();
    AeroDromeOpt opt(t.num_threads(), t.num_vars(), t.num_locks());
    auto r = run_checker(opt, t);
    EXPECT_FALSE(r.violation);
    EXPECT_GE(opt.opt_stats().lazy_reads, 50u);
    EXPECT_GE(opt.opt_stats().lazy_writes, 50u);
}

TEST(AeroDromeOptimized, GcSkipsIsolatedTransactions)
{
    // Thread-private transactions receive no foreign orderings, so every
    // end event takes the garbage-collected fast path.
    TraceBuilder b;
    for (int i = 0; i < 20; ++i) {
        b.begin("t1").write("t1", "a").end("t1");
        b.begin("t2").write("t2", "b").end("t2");
    }
    Trace t = b.take();
    AeroDromeOpt opt(t.num_threads(), t.num_vars(), t.num_locks());
    auto r = run_checker(opt, t);
    EXPECT_FALSE(r.violation);
    EXPECT_EQ(opt.opt_stats().gc_skipped_ends, 40u);
    EXPECT_EQ(opt.opt_stats().propagated_ends, 0u);
}

TEST(AeroDromeOptimized, GcDropsOrderingsOfEdgeFreeTransactions)
{
    // t1's transaction has no incoming edges, so its end event takes the
    // GC fast path and deliberately *drops* its write's ordering (it can
    // never be part of a cycle — Velodrome's GC rule). t2 then receives
    // nothing and is collected as well.
    TraceBuilder b;
    b.begin("t1").write("t1", "x").end("t1");
    b.begin("t2").read("t2", "x").end("t2");
    Trace t = b.take();
    AeroDromeOpt opt(t.num_threads(), t.num_vars(), t.num_locks());
    auto r = run_checker(opt, t);
    EXPECT_FALSE(r.violation);
    EXPECT_EQ(opt.opt_stats().gc_skipped_ends, 2u);
    EXPECT_EQ(opt.opt_stats().propagated_ends, 0u);
}

TEST(AeroDromeOptimized, ConflictingTransactionsPropagate)
{
    // A unary seed write gives t1's transaction an incoming edge, so its
    // end must run the full propagation; t2 then receives t1's ordering
    // through W_x and must propagate too.
    TraceBuilder b;
    b.write("t0", "seed");
    b.begin("t1").read("t1", "seed").write("t1", "x").end("t1");
    b.begin("t2").read("t2", "x").end("t2");
    Trace t = b.take();
    AeroDromeOpt opt(t.num_threads(), t.num_vars(), t.num_locks());
    auto r = run_checker(opt, t);
    EXPECT_FALSE(r.violation);
    EXPECT_EQ(opt.opt_stats().gc_skipped_ends, 0u);
    EXPECT_EQ(opt.opt_stats().propagated_ends, 2u);
}

TEST(AeroDromeOptimized, ForkParentAliveForcesPropagation)
{
    // The child's transaction receives nothing through clocks, but its
    // forking transaction is still alive: hasIncomingEdge must hold.
    TraceBuilder b;
    b.begin("t0");
    b.fork("t0", "t1");
    b.begin("t1").write("t1", "c").end("t1");
    b.end("t0");
    Trace t = b.take();
    AeroDromeOpt opt(t.num_threads(), t.num_vars(), t.num_locks());
    auto r = run_checker(opt, t);
    EXPECT_FALSE(r.violation);
    // t1's end propagates (parent alive); t0's end is collected.
    EXPECT_EQ(opt.opt_stats().propagated_ends, 1u);
    EXPECT_EQ(opt.opt_stats().gc_skipped_ends, 1u);
}

TEST(AeroDromeStats, ComparisonsAndJoinsCounted)
{
    TraceBuilder b;
    b.begin("t1").write("t1", "x").end("t1");
    b.begin("t2").read("t2", "x").end("t2");
    Trace t = b.take();
    AeroDromeBasic basic(t.num_threads(), t.num_vars(), t.num_locks());
    run_checker(basic, t);
    EXPECT_GT(basic.stats().comparisons, 0u);
    EXPECT_GT(basic.stats().joins, 0u);
}

// --- GC transit-ancestry regression --------------------------------------------

TYPED_TEST(AeroDromeVariants, GcMustNotSeverTransitChains)
{
    // Regression for a completeness gap in Algorithm 3 as literally
    // transcribed from the paper. Cycle: A -> P (t0's open transaction
    // feeds t1's first transaction), P -> T (program order), T -> R
    // (t2 reads T's write), R -> A (t0 reads R's write inside A).
    //
    // T receives nothing *during* its lifetime, so the paper's
    // hasIncomingEdge check (C_t^b[0/t] != C_t[0/t], parent alive) lets
    // the GC fast path drop T's lazy write of x — severing the only
    // channel by which R can learn that A precedes it, and silencing the
    // violation even though every witness transaction except A
    // completes. The implementation adds a transit-ancestry guard
    // (propagate when a still-active foreign begin is visible in C_t^b);
    // this test pins the fix for every variant.
    TraceBuilder b;
    b.begin("t0").write("t0", "a");              // A (stays open)
    b.begin("t1").read("t1", "a").end("t1");     // P: A -> P
    b.begin("t1").write("t1", "x").end("t1");    // T: isolated-looking
    b.begin("t2").read("t2", "x");               // R: T -> R
    b.write("t2", "y").end("t2");
    b.read("t0", "y");                           // R -> A: cycle closes
    b.end("t0");
    EXPECT_TRUE(run<TypeParam>(b.trace()).violation);
}

// --- Streaming / dynamic dimensions -------------------------------------------

TYPED_TEST(AeroDromeVariants, DynamicThreadAndVarGrowth)
{
    // Construct the checker with zero dimensions; everything must grow on
    // demand (streaming mode where the trace header is unknown).
    TraceBuilder b;
    b.begin("t1").begin("t2");
    b.write("t1", "x").read("t2", "x");
    b.write("t2", "y").read("t1", "y");
    b.end("t2").end("t1");
    Trace t = b.take();
    TypeParam checker(0, 0, 0);
    auto r = run_checker(checker, t);
    EXPECT_TRUE(r.violation);
}

// --- Footprint, counted -----------------------------------------------------

TEST(AeroDromeOptimized, StarFootprintPerVariableFitsTheLayout)
{
    // The Table 1 star regime at dim 7: every round writes a fresh
    // variable whose W_x, R_x and hR_x all inflate, and the hub's open
    // transaction keeps one stale read of it. Growth per added variable
    // is pinned by memory_bytes() at two sizes, not by a stopwatch.
    size_t bytes[2];
    size_t vars[2];
    const uint32_t kRounds[2] = {1000, 2000};
    for (int k = 0; k < 2; ++k) {
        gen::StarOptions opts;
        opts.producers = 3;
        opts.consumers = 2;
        opts.rounds = kRounds[k];
        Trace t = gen::make_star(opts);
        ASSERT_EQ(t.num_threads(), 7u);
        AeroDromeOpt e(t.num_threads(), t.num_vars(), t.num_locks());
        ASSERT_FALSE(run_checker(e, t).violation);
        bytes[k] = e.memory_bytes();
        vars[k] = t.num_vars();
    }
    const double per_var = static_cast<double>(bytes[1] - bytes[0]) /
                           static_cast<double>(vars[1] - vars[0]);
    // The layout: one 32-byte row for W_x (stride 8 at dim 7; R_x and
    // hR_x point at the two rows the hub's end shares), three 8-byte
    // entry words, a 4-byte stale-reader head, a 4-byte last writer, a
    // 1-byte stale flag, the hub's pooled 8-byte stale-reader node and
    // 4-byte window-list slot, and one window bit per entry per thread.
    // Arena rows and vectors grow by doubling, so allow twice that.
    // Measured: 102 B (233 B with a private row per R_x and hR_x).
    const double layout = 32 + 3 * 8 + 4 + 4 + 1 + 8 + 4 + 7 * 3 / 8.0;
    EXPECT_LE(per_var, 2 * layout);
}

TEST(AeroDromeOptimized, StaleFlushesOfOneEndShareTwoRows)
{
    // One long transaction reads N fresh variables written by two other
    // threads, then ends. Its end flushes C_t into every R_x and
    // C_t[0/t] into every hR_x; all of them were bottom, so the end
    // writes two arena rows, not 2N.
    constexpr int kVars = 200;
    TraceBuilder b;
    b.begin("hub");
    for (int k = 0; k < kVars; ++k) {
        const std::string x = "x" + std::to_string(k);
        b.write(k % 2 ? "w1" : "w2", x);
        b.read("hub", x);
    }
    b.end("hub");
    Trace t = b.take();

    AeroDromeOpt e(t.num_threads(), t.num_vars(), t.num_locks());
    const std::vector<Event>& ev = t.events();
    for (size_t i = 0; i + 1 < ev.size(); ++i)
        ASSERT_FALSE(e.process(ev[i], i));
    const size_t before = e.arena_rows();
    ASSERT_FALSE(e.process(ev.back(), ev.size() - 1));
    EXPECT_LE(e.arena_rows() - before, 2u);
    EXPECT_EQ(e.epoch_stats().rows_shared, 2u * (kVars - 1));
    EXPECT_EQ(e.opt_stats().propagated_ends, 1u);
}

// --- Start cost, counted ------------------------------------------------

/** Minor page faults this process has taken so far. */
long
minor_faults()
{
    rusage u{};
    ::getrusage(RUSAGE_SELF, &u);
    return u.ru_minflt;
}

TEST(AeroDromeOptimized, FirstUseOfAHugeIdTouchesFewPages)
{
#ifdef AERO_TEST_ASAN
    GTEST_SKIP() << "ASan's shadow memory takes faults of its own";
#endif
    // The first events on variable 2^24 - 1 size every per-variable
    // array for 2^24 variables (over 500 MB of zero state) and the
    // reader's window bitset up to its R_x entry, yet write nothing but
    // the words they use: the pages are first touched by those events.
    const VarId x = (1u << 24) - 1;
    const Event events[] = {
        {0, 0, Op::kBegin}, {1, x, Op::kWrite}, {0, x, Op::kRead}};
    AeroDromeOpt opt(0, 0, 0);
    bool fired[3];
    const long before = minor_faults();
    for (size_t i = 0; i < 3; ++i)
        fired[i] = opt.process(events[i], i);
    EXPECT_LE(minor_faults() - before, 64);

    // Basic, which grows per id, runs the same events on variable 0:
    // renaming a variable moves no verdict.
    AeroDromeBasic basic(0, 0, 0);
    for (size_t i = 0; i < 3; ++i) {
        Event renamed = events[i];
        renamed.target = 0;
        EXPECT_EQ(fired[i], basic.process(renamed, i)) << "event " << i;
    }
}

TEST(AeroDromeOptimized, SmallEngineRoundsReuseMemory)
{
#ifdef AERO_TEST_ASAN
    GTEST_SKIP() << "ASan's quarantine hands out fresh pages";
#endif
    // t1's write makes t0's read impure, so t0's release inflates L_m
    // and its end inflates R_x and hR_x: every clock bank of the engine
    // holds a row. A small engine's storage comes from the allocator's cache,
    // so rounds after the first take no fresh page.
    const Event events[] = {{0, 0, Op::kBegin},
                            {1, 0, Op::kWrite},
                            {0, 0, Op::kRead},
                            {0, 0, Op::kRelease},
                            {0, 0, Op::kEnd}};
    const long before = minor_faults();
    for (int round = 0; round < 2000; ++round) {
        AeroDromeOpt opt(2, 1, 1);
        for (size_t i = 0; i < 5; ++i)
            ASSERT_FALSE(opt.process(events[i], i));
        ASSERT_EQ(opt.arena_rows(), 3u);
    }
    EXPECT_LT(minor_faults() - before, 200);
}

} // namespace
} // namespace aero
