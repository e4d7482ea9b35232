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
 * every step, with epochs both on and off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/rng.hpp"
#include "vc/adaptive_clock.hpp"
#include "vc/clock_bank.hpp"
#include "vc/epoch.hpp"
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

TEST_F(AdaptiveTableTest, EpochsOffAlwaysInflates)
{
    tbl_.set_epochs_enabled(false);
    uint32_t i = tbl_.add_entry();
    tbl_.assign(i, ref(VectorClock{0, 0, 9}), 2, true);
    EXPECT_TRUE(tbl_.is_inflated(i));
    EXPECT_EQ(tbl_.to_vector_clock(i), (VectorClock{0, 0, 9}));
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

TEST_F(AdaptiveTableTest, VectorLeqEntryBothRepresentations)
{
    uint32_t i = tbl_.add_entry();
    tbl_.assign(i, ref(VectorClock{0, 6}), 1, true); // epoch 6@1

    // Pure comparand of thread 1.
    EXPECT_TRUE(tbl_.vector_leq_entry(ref(VectorClock{0, 6}), i, 1, true));
    EXPECT_FALSE(tbl_.vector_leq_entry(ref(VectorClock{0, 7}), i, 1, true));
    // Pure comparand of another thread: only bottom fits under an epoch.
    EXPECT_FALSE(tbl_.vector_leq_entry(ref(VectorClock{3}), i, 0, true));
    // Impure comparand against the epoch.
    EXPECT_TRUE(tbl_.vector_leq_entry(ref(VectorClock{0, 2}), i, 0, false));
    EXPECT_FALSE(
        tbl_.vector_leq_entry(ref(VectorClock{1, 2}), i, 0, false));

    // Inflate and re-check against the row form.
    tbl_.join(i, ref(VectorClock{2, 6, 1}), 0, false);
    ASSERT_TRUE(tbl_.is_inflated(i));
    EXPECT_TRUE(tbl_.vector_leq_entry(ref(VectorClock{2, 6}), i, 0, false));
    EXPECT_FALSE(
        tbl_.vector_leq_entry(ref(VectorClock{3, 0}), i, 0, false));
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
    ASSERT_TRUE(tbl_.update_window_tracked(t));
    std::vector<uint32_t> got = tbl_.update_entries(t);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<uint32_t>{63, 64, 65}));

    tbl_.close_update_window(t);
    EXPECT_FALSE(tbl_.update_window_tracked(t));
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

// --- Model-based fuzz ------------------------------------------------------

/** Drive a table and a VectorClock model through the same random ops. */
void
fuzz_against_model(uint64_t seed, bool epochs_on)
{
    constexpr size_t kEntries = 12;
    constexpr size_t kThreads = 5;
    constexpr int kOps = 2500;

    Rng rng(seed);
    AdaptiveClockTable tbl;
    tbl.set_epochs_enabled(epochs_on);
    tbl.ensure_dim(kThreads);
    std::vector<VectorClock> model(kEntries);
    for (size_t i = 0; i < kEntries; ++i)
        tbl.add_entry();

    // "Thread clocks" as sources: a pure set (bot[v/t]) and a free set.
    ClockBank clocks(kThreads, kThreads);

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
            src.set(t, static_cast<ClockValue>(rng.next_range(0, 50)));
        } else {
            for (size_t j = 0; j < kThreads; ++j) {
                if (rng.next_bool(0.5))
                    src.set(j,
                            static_cast<ClockValue>(rng.next_range(0, 50)));
            }
        }
        VectorClock vsrc = ConstClockRef(src).to_vector_clock();

        switch (rng.next_below(4)) {
          case 0:
            tbl.assign(i, src, t, pure);
            model[i] = vsrc;
            break;
          case 1:
            tbl.join(i, src, t, pure);
            model[i].join(vsrc);
            break;
          case 2:
            tbl.join_except(i, src, t, pure);
            model[i].join_except(vsrc, t);
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
        }

        ASSERT_EQ(tbl.to_vector_clock(i), model[i])
            << "entry " << i << " diverged at op " << op
            << " (epochs=" << epochs_on << ")";
        // Spot-check component reads and orderings.
        ThreadId probe = static_cast<ThreadId>(rng.next_below(kThreads));
        ASSERT_EQ(tbl.get(i, probe), model[i].get(probe));
        ASSERT_EQ(tbl.vector_leq_entry(src, i, t, false),
                  ConstClockRef(src).to_vector_clock().leq(model[i]));
    }
}

TEST(AdaptiveClockFuzz, MatchesVectorClockModelEpochsOn)
{
    for (uint64_t seed = 1; seed <= 20; ++seed)
        fuzz_against_model(seed, /*epochs_on=*/true);
}

TEST(AdaptiveClockFuzz, MatchesVectorClockModelEpochsOff)
{
    for (uint64_t seed = 1; seed <= 20; ++seed)
        fuzz_against_model(seed, /*epochs_on=*/false);
}

} // namespace
} // namespace aero
