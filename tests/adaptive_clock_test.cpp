/**
 * @file
 * Unit and model-based fuzz tests for the epoch-adaptive clock layer
 * (vc/epoch.hpp + vc/adaptive_clock.hpp).
 *
 * The key property is *exactness*: an AdaptiveClockTable entry must
 * denote, after every operation, precisely the vector time the scalar
 * VectorClock reference implementation computes — the epoch form is a
 * representation, not an approximation. The fuzz drives a table and a
 * VectorClock model through identical random operation sequences (with
 * sound purity flags, sometimes conservatively false) and compares after
 * every step. The same fuzz opens update windows on random threads and
 * checks the window invariant the shipped engine's end walks rely on:
 * every entry whose gate assign or join can make fire is enrolled, and
 * join_except enrolls nothing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/rng.hpp"
#include "vc/adaptive_clock.hpp"
#include "vc/clock_bank.hpp"
#include "vc/epoch.hpp"
#include "vc/gc.hpp"
#include "vc/vector_clock.hpp"

namespace aero {
namespace {

TEST(Epoch, EncodesValueAndThread)
{
    Epoch e(42, 7);
    EXPECT_EQ(e.value(), 42u);
    EXPECT_EQ(e.thread(), 7u);
    EXPECT_FALSE(e.is_bottom());
    EXPECT_EQ(e.get(7), 42u);
    EXPECT_EQ(e.get(6), 0u);
    EXPECT_EQ(e.get(8), 0u);
    EXPECT_EQ(Epoch::from_bits(e.bits()), e);
}

TEST(Epoch, BottomIsZeroWord)
{
    Epoch bot;
    EXPECT_TRUE(bot.is_bottom());
    EXPECT_EQ(bot.bits(), 0u);
    EXPECT_EQ(bot.get(0), 0u);
    EXPECT_EQ(bot.get(3), 0u);
    EXPECT_TRUE(bot.to_vector_clock().is_bottom());
}

TEST(Epoch, LeqAgainstVector)
{
    Epoch e(3, 1);
    VectorClock v{0, 3, 0};
    EXPECT_TRUE(e.leq(v));
    v.set(1, 2);
    EXPECT_FALSE(e.leq(v));
}

TEST(Epoch, ToVectorClock)
{
    EXPECT_EQ(Epoch(5, 2).to_vector_clock(), (VectorClock{0, 0, 5}));
}

/** A scratch clock bank holding one row per "thread clock" the test
 *  feeds into the table, so ConstClockRefs have the right dimension. */
class AdaptiveTableTest : public ::testing::Test {
protected:
    static constexpr size_t kDim = 6;

    void
    SetUp() override
    {
        scratch_.ensure_dim(kDim);
        scratch_.ensure_rows(1);
        tbl_.ensure_dim(kDim);
    }

    /** Load `v` into the scratch row and return a ref to it. */
    ConstClockRef
    ref(const VectorClock& v)
    {
        ClockRef r = scratch_[0];
        r.clear();
        for (size_t i = 0; i < kDim; ++i)
            r.set(i, v.get(i));
        return scratch_[0];
    }

    ClockBank scratch_;
    AdaptiveClockTable tbl_;
};

TEST_F(AdaptiveTableTest, FreshEntriesAreBottomEpochs)
{
    uint32_t i = tbl_.add_entry();
    EXPECT_FALSE(tbl_.is_inflated(i));
    EXPECT_TRUE(tbl_.is_bottom(i));
    EXPECT_EQ(tbl_.get(i, 0), 0u);
    EXPECT_EQ(tbl_.arena_rows(), 0u);
}

TEST_F(AdaptiveTableTest, PureAssignStaysEpoch)
{
    uint32_t i = tbl_.add_entry();
    VectorClock c{0, 0, 9};
    tbl_.assign(i, ref(c), /*t=*/2, /*c_pure=*/true);
    EXPECT_FALSE(tbl_.is_inflated(i));
    EXPECT_EQ(tbl_.epoch_at(i), Epoch(9, 2));
    EXPECT_EQ(tbl_.to_vector_clock(i), c);
    EXPECT_EQ(tbl_.stats().inflations, 0u);
    EXPECT_GT(tbl_.stats().epoch_fast, 0u);
}

TEST_F(AdaptiveTableTest, ImpureAssignInflates)
{
    uint32_t i = tbl_.add_entry();
    VectorClock c{1, 2, 3};
    tbl_.assign(i, ref(c), /*t=*/0, /*c_pure=*/false);
    EXPECT_TRUE(tbl_.is_inflated(i));
    EXPECT_EQ(tbl_.to_vector_clock(i), c);
    EXPECT_EQ(tbl_.stats().inflations, 1u);
}

TEST_F(AdaptiveTableTest, ForeignPureJoinInflatesExactly)
{
    uint32_t i = tbl_.add_entry();
    tbl_.assign(i, ref(VectorClock{4}), 0, true); // epoch 4@0
    tbl_.join(i, ref(VectorClock{0, 7}), 1, true); // foreign epoch source
    EXPECT_TRUE(tbl_.is_inflated(i));
    EXPECT_EQ(tbl_.to_vector_clock(i), (VectorClock{4, 7}));
}

TEST_F(AdaptiveTableTest, SameThreadJoinKeepsEpoch)
{
    uint32_t i = tbl_.add_entry();
    tbl_.assign(i, ref(VectorClock{4}), 0, true);
    tbl_.join(i, ref(VectorClock{6}), 0, true);
    EXPECT_FALSE(tbl_.is_inflated(i));
    EXPECT_EQ(tbl_.epoch_at(i), Epoch(6, 0));
    tbl_.join(i, ref(VectorClock{5}), 0, true); // older value: no-op
    EXPECT_EQ(tbl_.epoch_at(i), Epoch(6, 0));
}

TEST_F(AdaptiveTableTest, JoinExceptPureSourceIsNoOp)
{
    uint32_t i = tbl_.add_entry();
    tbl_.assign(i, ref(VectorClock{3}), 0, true);
    tbl_.join_except(i, ref(VectorClock{0, 0, 8}), 2, true);
    EXPECT_FALSE(tbl_.is_inflated(i));
    EXPECT_EQ(tbl_.epoch_at(i), Epoch(3, 0));
}

TEST_F(AdaptiveTableTest, JoinExceptImpureZeroesTheRightComponent)
{
    uint32_t i = tbl_.add_entry();
    tbl_.assign(i, ref(VectorClock{3}), 0, true); // epoch 3@0
    tbl_.join_except(i, ref(VectorClock{9, 5, 2}), /*t=*/0, false);
    // Result = bot[3/0] |_| <9,5,2>[0/0] = <3,5,2>.
    EXPECT_TRUE(tbl_.is_inflated(i));
    EXPECT_EQ(tbl_.to_vector_clock(i), (VectorClock{3, 5, 2}));
}

TEST_F(AdaptiveTableTest, JoinIntoMaintainsDestinationPurity)
{
    uint32_t i = tbl_.add_entry();
    tbl_.assign(i, ref(VectorClock{0, 4}), 1, true); // epoch 4@1

    scratch_.ensure_rows(2);
    ClockRef dst = scratch_[1];
    dst.clear();
    dst.set(0, 2); // dst = clock of thread 0, pure
    uint8_t pure = 1;

    // Joining one's own epoch keeps purity.
    uint32_t own = tbl_.add_entry();
    tbl_.assign(own, ref(VectorClock{5}), 0, true);
    tbl_.join_into(dst, own, /*dst_thread=*/0, pure);
    EXPECT_EQ(pure, 1);
    EXPECT_EQ(dst.get(0), 5u);

    // Joining a foreign epoch clears it.
    tbl_.join_into(dst, i, /*dst_thread=*/0, pure);
    EXPECT_EQ(pure, 0);
    EXPECT_EQ(dst.get(1), 4u);
}

/** Window membership is one bit per entry: entries on both sides of a
 *  64-bit word boundary dedup independently, and closing the window
 *  clears exactly their bits, so a reopened window counts them again. */
TEST_F(AdaptiveTableTest, WindowBitsDedupAcrossWordsAndClearOnClose)
{
    tbl_.add_entries(70);
    const ThreadId t = 1;
    const uint32_t kIds[] = {63, 64, 65};
    tbl_.open_update_window(t, 5);
    for (int round = 0; round < 2; ++round) {
        for (uint32_t i : kIds)
            tbl_.enroll_pending(i, t);
    }
    // A mutation whose source reaches the gate enrolls through the same
    // bits: still no duplicate.
    tbl_.assign(64, ref(VectorClock{0, 5}), t, true);
    EXPECT_EQ(tbl_.stats().upd_enrolled, 3u);
    std::vector<uint32_t> got = tbl_.update_entries(t);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<uint32_t>{63, 64, 65}));

    tbl_.close_update_window(t);
    EXPECT_TRUE(tbl_.update_entries(t).empty());
    tbl_.open_update_window(t, 6);
    tbl_.enroll_pending(65, t);
    tbl_.enroll_pending(64, t);
    tbl_.enroll_pending(65, t);
    EXPECT_EQ(tbl_.stats().upd_enrolled, 5u);
    got = tbl_.update_entries(t);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<uint32_t>{64, 65}));
    tbl_.enroll_pending(63, t);
    EXPECT_EQ(tbl_.stats().upd_enrolled, 6u);
}

/** enroll() takes a window code for a clock kept outside the table (an
 *  engine's lock clocks): it enrolls into every open window whose gate
 *  the source reaches and touches no entry, even past the table's end. */
TEST_F(AdaptiveTableTest, EnrollTakesCodesOfClocksKeptElsewhere)
{
    tbl_.add_entries(3);
    tbl_.open_update_window(0, 5);
    tbl_.open_update_window(2, 4);
    // Impure source: component 0 reaches 0's gate, component 2 misses
    // 2's gate.
    tbl_.enroll(1000, ref(VectorClock{6, 1, 3}), 1, false);
    // Pure sources test only their own thread's window: 2's is reached,
    // 1 has none.
    tbl_.enroll(1001, ref(VectorClock{0, 0, 4}), 2, true);
    tbl_.enroll(1002, ref(VectorClock{0, 9}), 1, true);
    EXPECT_EQ(tbl_.update_entries(0), (std::vector<uint32_t>{1000}));
    EXPECT_EQ(tbl_.update_entries(2), (std::vector<uint32_t>{1001}));
    EXPECT_EQ(tbl_.stats().upd_enrolled, 2u);
    EXPECT_EQ(tbl_.size(), 3u);
    for (size_t i = 0; i < tbl_.size(); ++i)
        EXPECT_TRUE(tbl_.is_bottom(i));
}

// --- Model-based fuzz ------------------------------------------------------

/**
 * Drive a table and a VectorClock model through the same random ops, with
 * update windows opening and closing on random threads. A window's gate
 * is minted above every entry's component, as the begin tick mints
 * cb_u(u) in the engine; after every mutation, each entry whose
 * component u reaches an open window's gate through assign or join (the
 * `reach` model, which leaves join_except out) must be enrolled in it,
 * and join_except must enroll nothing. The engine pairs every
 * join_except (hR_x) with a join of the same source into a partner
 * entry (R_x), whose enrollment and gate stand for both. Adds to
 * `gated` how many (entry, window) pairs met a gate, so the caller can
 * assert the invariant was exercised.
 */
void
fuzz_against_model(uint64_t seed, size_t& gated)
{
    constexpr size_t kEntries = 12;
    constexpr size_t kThreads = 5;
    constexpr int kOps = 2500;

    Rng rng(seed);
    AdaptiveClockTable tbl;
    tbl.ensure_dim(kThreads);
    tbl.add_entries(kEntries);
    std::vector<VectorClock> model(kEntries);
    // What assign and join alone made of each entry: join_except's
    // contributions are left out, as they enroll nothing.
    std::vector<VectorClock> reach(kEntries);
    // gate[u] != 0 iff u's window is open.
    std::vector<ClockValue> gate(kThreads, 0);

    // "Thread clocks" as sources. Component values grow like thread
    // clocks and stay near the front, so a fresh gate is soon reached.
    ClockBank clocks(kThreads, kThreads);
    std::vector<int64_t> now(kThreads, 0);
    auto value = [&](size_t j) {
        now[j] += static_cast<int64_t>(rng.next_below(3));
        return static_cast<ClockValue>(
            rng.next_range(std::max<int64_t>(0, now[j] - 30), now[j]));
    };

    auto check_windows = [&](int op) {
        for (size_t u = 0; u < kThreads; ++u) {
            if (gate[u] == 0)
                continue;
            const std::vector<uint32_t>& in = tbl.update_entries(
                static_cast<ThreadId>(u));
            for (uint32_t e = 0; e < kEntries; ++e) {
                if (reach[e].get(u) < gate[u])
                    continue;
                ++gated;
                ASSERT_NE(std::find(in.begin(), in.end(), e), in.end())
                    << "entry " << e << " reached thread " << u
                    << "'s gate " << gate[u] << " unenrolled at op " << op
                    << " (seed " << seed << ")";
            }
        }
    };

    for (int op = 0; op < kOps; ++op) {
        size_t i = rng.next_below(kEntries);
        ThreadId t = static_cast<ThreadId>(rng.next_below(kThreads));
        bool pure = rng.next_bool(0.5);

        // Build the source clock: pure sources are bot[v/t]; impure ones
        // are arbitrary (and occasionally *actually* pure, modelling the
        // engines' conservative purity bits).
        ClockRef src = clocks[t];
        src.clear();
        if (pure || rng.next_bool(0.3)) {
            src.set(t, value(t));
        } else {
            for (size_t j = 0; j < kThreads; ++j) {
                if (rng.next_bool(0.5))
                    src.set(j, value(j));
            }
        }
        VectorClock vsrc = ConstClockRef(src).to_vector_clock();
        const uint64_t enrolled = tbl.stats().upd_enrolled;
        bool excepts_only = false;

        switch (rng.next_below(7)) {
          case 0:
            tbl.assign(i, src, t, pure);
            model[i] = vsrc;
            reach[i] = vsrc;
            break;
          case 1:
            tbl.join(i, src, t, pure);
            model[i].join(vsrc);
            reach[i].join(vsrc);
            break;
          case 2:
            tbl.join_except(i, src, t, pure);
            model[i].join_except(vsrc, t);
            excepts_only = true;
            break;
          case 3: {
            // join_into a destination clock; model it too.
            ThreadId d = static_cast<ThreadId>(rng.next_below(kThreads));
            if (d == t)
                break; // keep src row intact as the destination source
            ClockRef dst = clocks[d];
            VectorClock vdst = ConstClockRef(dst).to_vector_clock();
            uint8_t dst_pure = 0; // conservative is always sound
            tbl.join_into(dst, i, d, dst_pure);
            vdst.join(tbl.to_vector_clock(i));
            ASSERT_EQ(ConstClockRef(dst).to_vector_clock(), vdst)
                << "join_into diverged at op " << op;
            break;
          }
          case 4: { // one source flushed into distinct entries, as an end
            AdaptiveClockTable::RowShare full, except;
            const size_t n = 1 + rng.next_below(4);
            excepts_only = true;
            for (size_t k = 0; k < n; ++k) {
                const size_t e = (i + k) % kEntries;
                if (rng.next_bool(0.5)) {
                    tbl.join_shared(e, src, t, pure, full);
                    model[e].join(vsrc);
                    reach[e].join(vsrc);
                    excepts_only = false;
                } else {
                    tbl.join_except_shared(e, src, t, pure, except);
                    model[e].join_except(vsrc, t);
                }
            }
            break;
          }
          case 5:
            tbl.enroll_pending(i, t);
            break;
          default: { // close t's window, or open it with a fresh gate
            if (gate[t] != 0) {
                tbl.close_update_window(t);
                gate[t] = 0;
                break;
            }
            ClockValue top = 0;
            for (const VectorClock& m : model)
                top = std::max(top, m.get(t));
            gate[t] = top + 1 + static_cast<ClockValue>(rng.next_below(3));
            tbl.open_update_window(t, gate[t]);
            break;
          }
        }

        for (size_t e = 0; e < kEntries; ++e) {
            ASSERT_EQ(tbl.to_vector_clock(e), model[e])
                << "entry " << e << " diverged at op " << op << " (seed "
                << seed << ")";
        }
        // Spot-check component reads.
        ThreadId probe = static_cast<ThreadId>(rng.next_below(kThreads));
        EXPECT_EQ(tbl.get(i, probe), model[i].get(probe));
        if (excepts_only) {
            ASSERT_EQ(tbl.stats().upd_enrolled, enrolled)
                << "join_except enrolled at op " << op << " (seed " << seed
                << ")";
        }
        check_windows(op);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(AdaptiveClockFuzz, MatchesVectorClockModelAndEnrollsEveryGatedEntry)
{
    size_t gated = 0;
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        fuzz_against_model(seed, gated);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(gated, 1000u);
}

// --- Shared-row twin fuzz ---------------------------------------------------

/** What the twin fuzz reached, summed over seeds: copy-on-write through
 *  each in-place mutator, reclamation of a sharer that was not the last
 *  one, and an inflation that reused a freed row. */
struct ShareCoverage {
    size_t cow_assign = 0;
    size_t cow_join = 0;
    size_t cow_join_except = 0;
    size_t cow_join_one = 0;
    size_t reclaim_sharer = 0;
    size_t freed_row_reused = 0;
    size_t shared = 0;
};

/**
 * Feed identical op streams to two tables: `shr` takes every flush batch
 * through join_shared / join_except_shared, `ref` through plain join /
 * join_except. Every entry must denote the same vector after every op,
 * the work counters must agree, and shr's shared-row bookkeeping must
 * stay consistent (rows_consistent).
 */
void
twin_fuzz(uint64_t seed, ShareCoverage& cov)
{
    constexpr size_t kEntries = 16;
    constexpr size_t kThreads = 5;
    constexpr int kOps = 2000;

    Rng rng(seed);
    AdaptiveClockTable shr, ref;
    for (AdaptiveClockTable* tbl : {&shr, &ref}) {
        tbl->ensure_dim(kThreads);
        tbl->add_entries(kEntries);
    }
    ClockBank clocks(kThreads, kThreads);
    GcFrontier frontier;

    auto random_source = [&](ThreadId t, bool pure) {
        ClockRef src = clocks[t];
        src.clear();
        if (pure) {
            src.set(t, static_cast<ClockValue>(rng.next_range(0, 40)));
            return;
        }
        for (size_t j = 0; j < kThreads; ++j) {
            if (rng.next_bool(0.6))
                src.set(j, static_cast<ClockValue>(rng.next_range(0, 40)));
        }
    };

    for (int op = 0; op < kOps; ++op) {
        const ThreadId t = static_cast<ThreadId>(rng.next_below(kThreads));
        const size_t i = rng.next_below(kEntries);
        const size_t rows_before = shr.arena_rows();
        const size_t free_before = shr.arena_rows() - shr.arena_rows_live();
        const bool was_shared = shr.is_shared(i);
        const uint64_t op_kind = rng.next_below(8);
        switch (op_kind) {
          case 0:
          case 1: { // one source flushed into a batch of entries
            const bool pure = rng.next_bool(0.1);
            random_source(t, pure);
            AdaptiveClockTable::RowShare full, except;
            const size_t n = 1 + rng.next_below(6);
            for (size_t k = 0; k < n; ++k) {
                // Each entry at most once per batch, as in an end walk.
                const size_t e = (i + k) % kEntries;
                if (rng.next_bool(0.5)) {
                    shr.join_shared(e, clocks[t], t, pure, full);
                    ref.join(e, clocks[t], t, pure);
                } else {
                    shr.join_except_shared(e, clocks[t], t, pure, except);
                    ref.join_except(e, clocks[t], t, pure);
                }
            }
            break;
          }
          case 2: {
            const bool pure = rng.next_bool(0.3);
            random_source(t, pure);
            shr.assign(i, clocks[t], t, pure);
            ref.assign(i, clocks[t], t, pure);
            cov.cow_assign += was_shared && !shr.is_shared(i);
            break;
          }
          case 3: {
            random_source(t, /*pure=*/false);
            shr.join(i, clocks[t], t, false);
            ref.join(i, clocks[t], t, false);
            cov.cow_join += was_shared && !shr.is_shared(i);
            break;
          }
          case 4: {
            random_source(t, /*pure=*/false);
            shr.join_except(i, clocks[t], t, false);
            ref.join_except(i, clocks[t], t, false);
            cov.cow_join_except += was_shared && !shr.is_shared(i);
            break;
          }
          case 5: { // pure join: the one-component branch when inflated
            random_source(t, /*pure=*/true);
            shr.join(i, clocks[t], t, true);
            ref.join(i, clocks[t], t, true);
            cov.cow_join_one += was_shared && !shr.is_shared(i);
            break;
          }
          case 6: { // reclaim one entry outright
            const uint64_t freed = shr.stats().gc_rows_freed;
            shr.gc_reclaim(i);
            ref.gc_reclaim(i);
            cov.reclaim_sharer +=
                was_shared && shr.stats().gc_rows_freed == freed;
            break;
          }
          default: { // a frontier sweep over both tables
            frontier.reset(kThreads);
            random_source(t, /*pure=*/false);
            frontier.accumulate(clocks[t]);
            EXPECT_EQ(shr.gc_sweep(frontier), ref.gc_sweep(frontier));
            break;
          }
        }
        if (free_before > 0 && shr.arena_rows() == rows_before &&
            shr.arena_rows() - shr.arena_rows_live() < free_before)
            ++cov.freed_row_reused;

        for (size_t e = 0; e < kEntries; ++e) {
            ASSERT_EQ(shr.to_vector_clock(e), ref.to_vector_clock(e))
                << "entry " << e << " diverged at op " << op << " (seed "
                << seed << ")";
        }
        ASSERT_TRUE(shr.rows_consistent()) << "op " << op;
        ASSERT_EQ(shr.stats().inflations, ref.stats().inflations);
        ASSERT_EQ(shr.stats().vector_ops, ref.stats().vector_ops);
        ASSERT_EQ(shr.stats().epoch_fast, ref.stats().epoch_fast);
        ASSERT_EQ(shr.stats().gc_reclaimed, ref.stats().gc_reclaimed);
        ASSERT_LE(shr.arena_rows_live(), ref.arena_rows_live());
    }
    cov.shared += shr.stats().rows_shared;
}

TEST(AdaptiveClockShare, TwinTablesAgreeEntryForEntry)
{
    ShareCoverage cov;
    for (uint64_t seed = 1; seed <= 24; ++seed)
        twin_fuzz(seed, cov);
    EXPECT_GT(cov.shared, 0u);
    EXPECT_GT(cov.cow_assign, 0u);
    EXPECT_GT(cov.cow_join, 0u);
    EXPECT_GT(cov.cow_join_except, 0u);
    EXPECT_GT(cov.cow_join_one, 0u);
    EXPECT_GT(cov.reclaim_sharer, 0u);
    EXPECT_GT(cov.freed_row_reused, 0u);
}

TEST_F(AdaptiveTableTest, SharedFlushWritesOneRowAndCopiesOnWrite)
{
    tbl_.add_entries(4);
    const ConstClockRef c = ref(VectorClock{3, 1, 0, 2});
    AdaptiveClockTable::RowShare full;
    for (size_t i = 0; i < 3; ++i)
        tbl_.join_shared(i, c, 0, /*c_pure=*/false, full);
    EXPECT_EQ(tbl_.arena_rows(), 1u);
    EXPECT_EQ(tbl_.stats().inflations, 3u);
    EXPECT_EQ(tbl_.stats().rows_shared, 2u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(tbl_.is_shared(i));
        EXPECT_EQ(tbl_.to_vector_clock(i), (VectorClock{3, 1, 0, 2}));
    }

    // A write to one sharer copies; the others keep the old vector.
    tbl_.join(1, ref(VectorClock{0, 0, 0, 0, 7}), 4, /*c_pure=*/true);
    EXPECT_FALSE(tbl_.is_shared(1));
    EXPECT_EQ(tbl_.arena_rows(), 2u);
    EXPECT_EQ(tbl_.to_vector_clock(1), (VectorClock{3, 1, 0, 2, 7}));
    EXPECT_EQ(tbl_.to_vector_clock(0), (VectorClock{3, 1, 0, 2}));
    EXPECT_TRUE(tbl_.rows_consistent());

    // Reclaiming a sharer frees nothing; the last referent owns the row
    // and writes it in place; reclaiming that frees it.
    tbl_.gc_reclaim(0);
    EXPECT_EQ(tbl_.stats().gc_rows_freed, 0u);
    tbl_.assign(2, ref(VectorClock{1, 1}), 1, /*c_pure=*/false);
    EXPECT_FALSE(tbl_.is_shared(2));
    EXPECT_EQ(tbl_.arena_rows(), 2u);
    tbl_.gc_reclaim(2);
    EXPECT_EQ(tbl_.stats().gc_rows_freed, 1u);
    EXPECT_TRUE(tbl_.rows_consistent());

    // A new flush batch reuses the freed row first.
    AdaptiveClockTable::RowShare except;
    const ConstClockRef c2 = ref(VectorClock{3, 1, 0, 2});
    tbl_.join_except_shared(2, c2, 0, false, except);
    tbl_.join_except_shared(3, c2, 0, false, except);
    EXPECT_EQ(tbl_.arena_rows(), 2u);
    EXPECT_EQ(tbl_.to_vector_clock(3), (VectorClock{0, 1, 0, 2}));
    EXPECT_TRUE(tbl_.rows_consistent());
}

} // namespace
} // namespace aero
