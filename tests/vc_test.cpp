/**
 * @file
 * Unit tests for the vector clock library (paper, Section 4 notation) and
 * for the ClockBank contiguous arena, including randomized parity fuzzing
 * of the bank kernels against the scalar VectorClock reference.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include <unistd.h>

#include "support/rng.hpp"
#include "vc/clock_bank.hpp"
#include "vc/flat_table.hpp"
#include "vc/vector_clock.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define AERO_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AERO_TEST_ASAN 1
#endif
#endif
#ifdef AERO_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace aero {
namespace {

TEST(VectorClock, DefaultIsBottom)
{
    VectorClock v;
    EXPECT_TRUE(v.is_bottom());
    EXPECT_EQ(v.dim(), 0u);
    EXPECT_EQ(v.get(0), 0u);
    EXPECT_EQ(v.get(100), 0u);
}

TEST(VectorClock, SetAndGet)
{
    VectorClock v;
    v.set(2, 5);
    EXPECT_EQ(v.get(0), 0u);
    EXPECT_EQ(v.get(2), 5u);
    EXPECT_EQ(v.dim(), 3u);
    EXPECT_FALSE(v.is_bottom());
}

TEST(VectorClock, SettingZeroBeyondDimIsNoop)
{
    VectorClock v;
    v.set(5, 0);
    EXPECT_EQ(v.dim(), 0u);
}

TEST(VectorClock, TickIncrements)
{
    VectorClock v;
    v.tick(1);
    v.tick(1);
    EXPECT_EQ(v.get(1), 2u);
}

TEST(VectorClock, InitializerList)
{
    VectorClock v{2, 0, 1};
    EXPECT_EQ(v.get(0), 2u);
    EXPECT_EQ(v.get(1), 0u);
    EXPECT_EQ(v.get(2), 1u);
}

TEST(VectorClock, JoinIsPointwiseMax)
{
    VectorClock a{2, 0, 1};
    VectorClock b{1, 3};
    a.join(b);
    EXPECT_EQ(a, (VectorClock{2, 3, 1}));
}

TEST(VectorClock, JoinGrowsDimension)
{
    VectorClock a{1};
    VectorClock b{0, 0, 7};
    a.join(b);
    EXPECT_EQ(a.get(2), 7u);
    EXPECT_EQ(a.get(0), 1u);
}

TEST(VectorClock, JoinWithBottomIsIdentity)
{
    VectorClock a{4, 5};
    VectorClock bot;
    a.join(bot);
    EXPECT_EQ(a, (VectorClock{4, 5}));
}

TEST(VectorClock, LeqReflexive)
{
    VectorClock a{1, 2, 3};
    EXPECT_TRUE(a.leq(a));
}

TEST(VectorClock, LeqPointwise)
{
    VectorClock a{1, 2};
    VectorClock b{2, 2, 1};
    EXPECT_TRUE(a.leq(b));
    EXPECT_FALSE(b.leq(a));
}

TEST(VectorClock, LeqIncomparable)
{
    VectorClock a{1, 0};
    VectorClock b{0, 1};
    EXPECT_FALSE(a.leq(b));
    EXPECT_FALSE(b.leq(a));
}

TEST(VectorClock, BottomLeqEverything)
{
    VectorClock bot;
    VectorClock b{0, 1};
    EXPECT_TRUE(bot.leq(b));
    EXPECT_TRUE(bot.leq(bot));
}

TEST(VectorClock, LeqDifferentDims)
{
    VectorClock a{1, 0, 0};
    VectorClock b{1};
    EXPECT_TRUE(a.leq(b));
    EXPECT_TRUE(b.leq(a));
}

TEST(VectorClock, LeqExceptSkipsComponent)
{
    VectorClock a{5, 1};
    VectorClock b{0, 2};
    EXPECT_FALSE(a.leq(b));
    EXPECT_TRUE(a.leq_except(b, 0));
    EXPECT_FALSE(a.leq_except(b, 1));
}

TEST(VectorClock, JoinExceptZeroesComponent)
{
    VectorClock a{1, 1, 1};
    VectorClock b{9, 9, 9};
    a.join_except(b, 1);
    EXPECT_EQ(a, (VectorClock{9, 1, 9}));
}

TEST(VectorClock, JoinExceptGrowsDimension)
{
    VectorClock a;
    VectorClock b{3, 4};
    a.join_except(b, 0);
    EXPECT_EQ(a, (VectorClock{0, 4}));
}

TEST(VectorClock, EqualityIgnoresTrailingZeros)
{
    VectorClock a{1, 2};
    VectorClock b{1, 2, 0, 0};
    EXPECT_EQ(a, b);
    b.set(3, 1);
    EXPECT_NE(a, b);
}

TEST(VectorClock, ClearResetsToBottomKeepingDim)
{
    VectorClock a{1, 2};
    a.clear();
    EXPECT_TRUE(a.is_bottom());
}

TEST(VectorClock, ToString)
{
    VectorClock a{2, 0, 1};
    EXPECT_EQ(a.to_string(), "<2,0,1>");
    EXPECT_EQ(VectorClock{}.to_string(), "<>");
}

/** The paper's notation checks: bot[1/t] etc. */
TEST(VectorClock, PaperInitialization)
{
    // C_t := bot[1/t] for thread t = 1 of 3.
    VectorClock c(3);
    c.set(1, 1);
    EXPECT_EQ(c, (VectorClock{0, 1, 0}));
}

/** Join is commutative, associative, idempotent (property sweep). */
TEST(VectorClock, JoinLatticeLaws)
{
    const VectorClock vs[] = {
        {}, {1}, {0, 2}, {3, 1, 4}, {2, 2}, {0, 0, 0, 9},
    };
    for (const auto& a : vs) {
        for (const auto& b : vs) {
            VectorClock ab = a;
            ab.join(b);
            VectorClock ba = b;
            ba.join(a);
            EXPECT_EQ(ab, ba);
            // a <= a |_| b and b <= a |_| b.
            EXPECT_TRUE(a.leq(ab));
            EXPECT_TRUE(b.leq(ab));
            for (const auto& c : vs) {
                VectorClock ab_c = ab;
                ab_c.join(c);
                VectorClock bc = b;
                bc.join(c);
                VectorClock a_bc = a;
                a_bc.join(bc);
                EXPECT_EQ(ab_c, a_bc);
            }
        }
        VectorClock aa = a;
        aa.join(a);
        EXPECT_EQ(aa, a);
    }
}

// --- ClockBank -----------------------------------------------------------

TEST(ClockBank, DefaultIsEmpty)
{
    ClockBank bank;
    EXPECT_EQ(bank.rows(), 0u);
    EXPECT_EQ(bank.dim(), 0u);
    EXPECT_EQ(bank.stride(), 0u);
}

TEST(ClockBank, RowsStartAtBottom)
{
    ClockBank bank(3, 5);
    for (size_t i = 0; i < bank.rows(); ++i) {
        EXPECT_TRUE(bank[i].is_bottom());
        for (size_t d = 0; d < bank.dim(); ++d)
            EXPECT_EQ(bank[i].get(d), 0u);
    }
}

TEST(ClockBank, StrideFollowsTheDimension)
{
    // Half a line (32 B) up to dim 8, then whole 64-byte lines.
    EXPECT_EQ(ClockBank(1, 1).stride(), 8u);
    EXPECT_EQ(ClockBank(1, 8).stride(), 8u);
    EXPECT_EQ(ClockBank(1, 9).stride(), 16u);
    EXPECT_EQ(ClockBank(1, 16).stride(), 16u);
    EXPECT_EQ(ClockBank(1, 17).stride(), 32u);
    ClockBank b(2, 5);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % 64, 0u);
}

TEST(ClockBank, HalfLineRowsNeverStraddleALine)
{
    ClockBank bank(1000, 7);
    ASSERT_EQ(bank.stride(), 8u);
    size_t straddles = 0;
    for (size_t i = 0; i < bank.rows(); ++i) {
        const auto first = reinterpret_cast<uintptr_t>(bank[i].data());
        const uintptr_t last = first + bank.stride() * sizeof(ClockValue) - 1;
        straddles += first / 64 != last / 64;
    }
    EXPECT_EQ(straddles, 0u);
}

TEST(ClockBank, SetGetTick)
{
    ClockBank bank(2, 4);
    bank[0].set(1, 7);
    bank[0].tick(1);
    bank[1].tick(3);
    EXPECT_EQ(bank[0].get(1), 8u);
    EXPECT_EQ(bank[1].get(3), 1u);
    EXPECT_EQ(bank[1].get(0), 0u);
}

TEST(ClockBank, GrowRowsPreservesContentAndZeroesNewRows)
{
    ClockBank bank(2, 4);
    bank[0].set(2, 9);
    bank[1].set(0, 3);
    bank.ensure_rows(50); // force reallocation past the initial capacity
    EXPECT_EQ(bank.rows(), 50u);
    EXPECT_EQ(bank[0].get(2), 9u);
    EXPECT_EQ(bank[1].get(0), 3u);
    for (size_t i = 2; i < bank.rows(); ++i)
        EXPECT_TRUE(bank[i].is_bottom());
}

TEST(ClockBank, GrowDimWithinStrideIsZeroFilled)
{
    // One case per stride tier; neither crosses its stride, so the
    // padding is exposed in place, with no new mapping.
    const struct {
        size_t dim;
        size_t wider;
        size_t stride;
    } kCases[] = {{3, 8, 8}, {9, 14, 16}};
    for (const auto& c : kCases) {
        SCOPED_TRACE("dim " + std::to_string(c.dim));
        ClockBank bank(2, c.dim);
        ASSERT_EQ(bank.stride(), c.stride);
        bank[0].set(2, 5);
        const ClockValue* base = bank.data();
        bank.ensure_dim(c.wider);
        EXPECT_EQ(bank.stride(), c.stride);
        EXPECT_EQ(bank.data(), base);
        EXPECT_EQ(bank[0].get(2), 5u);
        for (size_t d = c.dim; d < c.wider; ++d)
            EXPECT_EQ(bank[0].get(d), 0u);
        size_t nonzero = 0; // everything but the one set component
        for (size_t k = 0; k < bank.rows() * bank.stride(); ++k)
            nonzero += k != 2 && base[k] != 0;
        EXPECT_EQ(nonzero, 0u);
    }
}

TEST(ClockBank, GrowDimBeyondStrideRelayouts)
{
    ClockBank bank(3, 8);
    for (size_t i = 0; i < 3; ++i)
        bank[i].set(i, static_cast<ClockValue>(i + 1));
    bank.ensure_dim(40); // past the one-line stride: re-layout copy
    EXPECT_GE(bank.stride(), 48u);
    EXPECT_EQ(bank.stride() % ClockBank::kLineValues, 0u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(bank[i].get(i), i + 1);
        for (size_t d = 8; d < 40; ++d)
            EXPECT_EQ(bank[i].get(d), 0u);
    }
}

TEST(ClockBank, AssignCopiesAcrossBanks)
{
    ClockBank a(1, 6);
    ClockBank b(1, 6);
    a[0].set(4, 11);
    b[0].assign(a[0]);
    EXPECT_EQ(b[0].get(4), 11u);
    a[0].set(4, 12); // copies are independent
    EXPECT_EQ(b[0].get(4), 11u);
}

TEST(ClockBank, SelfJoinIsIdentity)
{
    ClockBank bank(1, 4);
    bank[0].set(1, 3);
    bank[0].join(bank[0]);
    EXPECT_EQ(bank[0].get(1), 3u);
}

TEST(ClockBank, ToVectorClockRoundTrips)
{
    ClockBank bank(1, 3);
    bank[0].set(0, 2);
    bank[0].set(2, 1);
    EXPECT_EQ(bank[0].to_vector_clock(), (VectorClock{2, 0, 1}));
    EXPECT_EQ(bank[0].to_string(), "<2,0,1>");
}

/** Randomized parity fuzzing: every bank kernel must agree with the
 *  scalar VectorClock implementation, across dimensions that exercise
 *  both the small-n scalar path and the SIMD/vectorized path. */
TEST(ClockBank, FuzzParityWithVectorClock)
{
    Rng rng(0xc10cba7eULL);
    for (size_t dim : {1u, 3u, 8u, 16u, 17u, 33u, 64u, 100u}) {
        for (int iter = 0; iter < 200; ++iter) {
            VectorClock va(dim), vb(dim);
            ClockBank bank(2, dim);
            for (size_t d = 0; d < dim; ++d) {
                // Small value range so leq outcomes are well mixed.
                ClockValue x =
                    static_cast<ClockValue>(rng.next_below(4));
                ClockValue y =
                    static_cast<ClockValue>(rng.next_below(4));
                va.set(d, x);
                vb.set(d, y);
                bank[0].set(d, x);
                bank[1].set(d, y);
            }
            size_t skip = rng.next_below(dim + 1); // may be == dim
            EXPECT_EQ(bank[0].leq(bank[1]), va.leq(vb));
            EXPECT_EQ(bank[1].leq(bank[0]), vb.leq(va));
            EXPECT_EQ(bank[0].leq_except(bank[1], skip),
                      va.leq_except(vb, skip));
            EXPECT_EQ(bank[0].is_bottom(), va.is_bottom());

            if (rng.next_bool()) {
                bank[0].join(bank[1]);
                va.join(vb);
            } else {
                bank[0].join_except(bank[1], skip);
                va.join_except(vb, skip);
            }
            EXPECT_EQ(bank[0].to_vector_clock(), va)
                << "dim=" << dim << " iter=" << iter;
        }
    }
}

/** The engines interleave dimension and row growth; parity must survive
 *  arbitrary interleavings of grows and kernel applications. */
TEST(ClockBank, FuzzGrowthParity)
{
    Rng rng(0x9e0ba27eULL);
    for (int iter = 0; iter < 100; ++iter) {
        ClockBank bank(2, 2);
        VectorClock ref[2] = {VectorClock(2), VectorClock(2)};
        size_t dim = 2;
        for (int step = 0; step < 60; ++step) {
            switch (rng.next_below(4)) {
              case 0: { // grow the dimension
                dim += rng.next_below(12);
                bank.ensure_dim(dim);
                break;
              }
              case 1: { // set a component
                size_t row = rng.next_below(2);
                size_t d = rng.next_below(dim);
                ClockValue v =
                    static_cast<ClockValue>(rng.next_below(100));
                bank[row].set(d, v);
                ref[row].set(d, v);
                break;
              }
              case 2: { // join the rows
                bank[0].join(bank[1]);
                ref[0].join(ref[1]);
                break;
              }
              case 3: { // compare
                EXPECT_EQ(bank[0].leq(bank[1]), ref[0].leq(ref[1]));
                break;
              }
            }
        }
        EXPECT_EQ(bank[0].to_vector_clock(), ref[0]);
        EXPECT_EQ(bank[1].to_vector_clock(), ref[1]);
    }
}

/** Row i's expected value at component d in the growth tests below. */
ClockValue
grow_pattern(size_t i, size_t d)
{
    return static_cast<ClockValue>(i * 31 + d + 1);
}

/** Every row below `written` holds grow_pattern in components
 *  [0, old_dim) and zero in [old_dim, dim); every later row is bottom;
 *  components dim..stride are zero everywhere. Read through the raw
 *  base so the padding is checked too. */
void
expect_grown_layout(const ClockBank& bank, size_t written, size_t old_dim)
{
    const ClockValue* base = bank.data();
    size_t bad = 0;
    for (size_t i = 0; i < bank.rows(); ++i) {
        const ClockValue* row = base + i * bank.stride();
        for (size_t d = 0; d < bank.stride(); ++d) {
            ClockValue want =
                (i < written && d < old_dim) ? grow_pattern(i, d) : 0;
            bad += row[d] != want;
        }
    }
    EXPECT_EQ(bad, 0u) << "rows=" << bank.rows()
                       << " stride=" << bank.stride();
}

TEST(ClockBank, RowByRowGrowthPastHugePagesKeepsRowsAndPadding)
{
    // 64-byte rows: past 4 MiB takes several capacity doublings, each a
    // remap that may move the base, and crosses the 2 MiB huge-page size.
    const size_t dim = 12;
    ClockBank bank(0, dim);
    size_t grows = 0;
    size_t cap_bytes = bank.memory_bytes();
    while (bank.memory_bytes() <= (size_t{4} << 20)) {
        const size_t i = bank.rows();
        bank.ensure_rows(i + 1);
        EXPECT_TRUE(bank[i].is_bottom());
        for (size_t d = 0; d < dim; ++d)
            bank[i].set(d, grow_pattern(i, d));
        if (bank.memory_bytes() != cap_bytes) {
            cap_bytes = bank.memory_bytes();
            ++grows;
            expect_grown_layout(bank, i + 1, dim);
        }
    }
    EXPECT_GE(grows, 5u);
    EXPECT_EQ(bank.stride(), 16u);
    const size_t written = bank.rows();
    bank.ensure_rows(written + 1000); // bottom rows past the last write
    expect_grown_layout(bank, written, dim);

    // Past the one-line stride: the copying re-layout path.
    bank.ensure_dim(20);
    EXPECT_EQ(bank.stride(), 32u);
    EXPECT_GE(bank.memory_bytes(),
              bank.rows() * bank.stride() * sizeof(ClockValue));
    expect_grown_layout(bank, written, dim);
}

/** Widen a bank of patterned rows by one component across each stride
 *  boundary: the live components move, the padding stays zero (read
 *  through the raw base), and ASan still fences off the rows past
 *  rows(). */
TEST(ClockBank, StrideCrossingsKeepRowsPaddingAndPoison)
{
    const struct {
        size_t dim;
        size_t stride;
        size_t wider;
    } kCrossings[] = {{8, 8, 16}, {16, 16, 32}};
    for (const auto& c : kCrossings) {
        SCOPED_TRACE("dim " + std::to_string(c.dim));
        const size_t rows = 300; // more than one page at every stride
        ClockBank bank(rows, c.dim);
        ASSERT_EQ(bank.stride(), c.stride);
        for (size_t i = 0; i < rows; ++i) {
            for (size_t d = 0; d < c.dim; ++d)
                bank[i].set(d, grow_pattern(i, d));
        }
        expect_grown_layout(bank, rows, c.dim);

        bank.ensure_dim(c.dim + 1);
        EXPECT_EQ(bank.stride(), c.wider);
        EXPECT_EQ(bank.dim(), c.dim + 1);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(bank.data()) % 64, 0u);
        expect_grown_layout(bank, rows, c.dim);
        bank[rows - 1].set(c.dim, 1); // the new component is writable
        EXPECT_EQ(bank[rows - 1].get(c.dim), 1u);
        bank[rows - 1].set(c.dim, 0);
#ifdef AERO_TEST_ASAN
        const ClockValue* last = bank[rows - 1].data() + bank.dim() - 1;
        const ClockValue* past = bank.data() + rows * bank.stride();
        EXPECT_FALSE(__asan_address_is_poisoned(last));
        EXPECT_TRUE(__asan_address_is_poisoned(past));
        bank.ensure_rows(rows + 1);
        EXPECT_FALSE(__asan_address_is_poisoned(past));
        EXPECT_TRUE(__asan_address_is_poisoned(past + bank.stride()));
#endif
    }
}

TEST(ClockBank, MoveCarriesTheMapping)
{
    ClockBank a(100, 5);
    a[99].set(4, 7);
    const ClockValue* base = a.data();
    const size_t bytes = a.memory_bytes();

    ClockBank b(std::move(a));
    EXPECT_EQ(b.data(), base);
    EXPECT_EQ(b.memory_bytes(), bytes);
    EXPECT_EQ(b[99].get(4), 7u);
    EXPECT_EQ(a.rows(), 0u);
    EXPECT_EQ(a.memory_bytes(), 0u);

    ClockBank c(3, 2);
    c = std::move(b);
    EXPECT_EQ(c.data(), base);
    EXPECT_EQ(c.rows(), 100u);
    EXPECT_EQ(c.dim(), 5u);
    EXPECT_EQ(c[99].get(4), 7u);
    EXPECT_EQ(b.memory_bytes(), 0u);
    c.ensure_rows(5000); // the moved-to bank still grows
    EXPECT_EQ(c[99].get(4), 7u);
    EXPECT_TRUE(c[4999].is_bottom());
}

/** This process's VmData (private writable mappings) in KiB, or 0. */
size_t
vm_data_kb()
{
    size_t kb = 0;
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f)) {
            if (std::sscanf(line, "VmData: %zu kB", &kb) == 1)
                break;
        }
        std::fclose(f);
    }
    return kb;
}

TEST(ClockBank, ReleaseReturnsTheMapping)
{
    // LeakSanitizer does not track mappings; this is the leak check.
    const size_t page_kb =
        static_cast<size_t>(::sysconf(_SC_PAGESIZE)) >> 10;
    const size_t start = vm_data_kb();
    if (start == 0)
        GTEST_SKIP() << "no VmData in /proc/self/status";
    {
        ClockBank big(1 << 17, 20); // 16 MiB at a 32-value stride
        big[(1 << 17) - 1].set(19, 1);
        EXPECT_GE(vm_data_kb(), start + (16u << 10));
    }
    EXPECT_LE(vm_data_kb(), start + page_kb);
    EXPECT_GE(vm_data_kb() + page_kb, start);

    ClockBank small(1, 4);
    {
        ClockBank big(1 << 17, 20);
        big[0].set(0, 1);
        small = std::move(big); // small's page goes, big's mapping stays
    }
    EXPECT_EQ(small[0].get(0), 1u);
    small = ClockBank();
    EXPECT_LE(vm_data_kb(), start + page_kb);
    EXPECT_GE(vm_data_kb() + page_kb, start);
}

#ifdef AERO_TEST_ASAN
TEST(ClockBank, SpareCapacityIsPoisoned)
{
    ClockBank bank(3, 12);
    const ClockValue* last = bank[2].data() + bank.dim() - 1;
    const ClockValue* past = bank.data() + bank.rows() * bank.stride();
    EXPECT_FALSE(__asan_address_is_poisoned(last));
    EXPECT_TRUE(__asan_address_is_poisoned(past));
    bank.ensure_rows(4);
    EXPECT_FALSE(__asan_address_is_poisoned(past));
    bank.ensure_rows(10000); // remapped: the new tail is poisoned too
    EXPECT_TRUE(__asan_address_is_poisoned(bank.data() +
                                           bank.rows() * bank.stride()));
    bank.ensure_dim(40); // stride re-layout into a fresh mapping
    EXPECT_FALSE(__asan_address_is_poisoned(bank[9999].data() + 39));
    EXPECT_TRUE(__asan_address_is_poisoned(bank.data() +
                                           bank.rows() * bank.stride()));
}
#endif

// --- FlatTable -----------------------------------------------------------

TEST(FlatTable, GrowBothDimensionsKeepsContentAndFill)
{
    FlatTable<uint32_t> t(2, 3, UINT32_MAX);
    t.at(0, 1) = 7;
    t.at(1, 2) = 8;
    t.ensure_cols(9); // beyond capacity: re-layout
    t.ensure_rows(5);
    EXPECT_EQ(t.rows(), 5u);
    EXPECT_EQ(t.cols(), 9u);
    EXPECT_EQ(t.at(0, 1), 7u);
    EXPECT_EQ(t.at(1, 2), 8u);
    EXPECT_EQ(t.at(0, 5), UINT32_MAX);
    EXPECT_EQ(t.at(4, 0), UINT32_MAX);
    const uint32_t* row = t.row(1);
    EXPECT_EQ(row[2], 8u);
}

} // namespace
} // namespace aero
