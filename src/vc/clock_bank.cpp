#include "vc/clock_bank.hpp"

#ifdef AERO_VC_X86_DISPATCH
#include <immintrin.h>
#endif

namespace aero {

#ifdef AERO_VC_X86_DISPATCH
namespace vck {
namespace detail {

const bool kHaveAvx2 = __builtin_cpu_supports("avx2");

__attribute__((target("avx2"))) void
join_avx2(ClockValue* dst, const ClockValue* src, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256i d =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
        __m256i s =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            _mm256_max_epu32(d, s));
    }
    for (; i < n; ++i)
        dst[i] = dst[i] < src[i] ? src[i] : dst[i];
}

__attribute__((target("avx2"))) bool
leq_avx2(const ClockValue* a, const ClockValue* b, size_t n)
{
    // a <= b pointwise iff max(a, b) == b lane-wise; accumulate lane
    // mismatches and check once per block so the common all-ok case runs
    // branch-free.
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i bad = _mm256_setzero_si256();
        for (size_t j = i; j < i + 32; j += 8) {
            __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(a + j));
            __m256i vb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(b + j));
            __m256i mx = _mm256_max_epu32(va, vb);
            bad = _mm256_or_si256(bad, _mm256_xor_si256(mx, vb));
        }
        if (!_mm256_testz_si256(bad, bad))
            return false;
    }
    __m256i bad = _mm256_setzero_si256();
    for (; i + 8 <= n; i += 8) {
        __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        __m256i mx = _mm256_max_epu32(va, vb);
        bad = _mm256_or_si256(bad, _mm256_xor_si256(mx, vb));
    }
    if (!_mm256_testz_si256(bad, bad))
        return false;
    for (; i < n; ++i) {
        if (a[i] > b[i])
            return false;
    }
    return true;
}

} // namespace detail
} // namespace vck
#endif // AERO_VC_X86_DISPATCH

namespace {

size_t
round_to_line(size_t values)
{
    const size_t line = ClockBank::kLineValues;
    return (values + line - 1) / line * line;
}

/** The stride for dimension d when the current stride `cur` is too
 *  small: half a line while d fits one, then whole lines, at least
 *  doubling. A row never straddles a line: stride 8 divides 16 and the
 *  base is 64-byte aligned. */
size_t
stride_for(size_t d, size_t cur)
{
    if (d <= 8)
        return 8;
    const size_t line = ClockBank::kLineValues;
    size_t want = cur < line ? line : cur * 2;
    if (want < d)
        want = d;
    return round_to_line(want);
}

} // namespace

void
ClockBank::grow_stride(size_t new_stride)
{
    const size_t row_cap =
        storage_.capacity() / (stride_ * sizeof(ClockValue));
    ZeroedStorage fresh(/*huge_pages=*/true);
    fresh.grow(row_cap * new_stride * sizeof(ClockValue), 0);
    fresh.unpoison(0, rows_ * new_stride * sizeof(ClockValue));
    // Only the live components move; the fresh storage is already zero
    // everywhere else.
    ClockValue* dst = static_cast<ClockValue*>(fresh.data());
    for (size_t i = 0; i < rows_; ++i) {
        std::memcpy(dst + i * new_stride, base() + i * stride_,
                    dim_ * sizeof(ClockValue));
    }
    storage_.swap(fresh);
    stride_ = new_stride;
}

void
ClockBank::ensure_rows(size_t n)
{
    if (n <= rows_)
        return;
    if (stride_ == 0)
        stride_ = stride_for(dim_, 0); // dimension still 0
    const size_t row_bytes = stride_ * sizeof(ClockValue);
    const size_t row_cap = storage_.capacity() / row_bytes;
    if (n > row_cap) {
        size_t new_cap = row_cap < 4 ? 4 : row_cap * 2;
        if (new_cap < n)
            new_cap = n;
        storage_.grow(new_cap * row_bytes, rows_ * row_bytes);
    }
    // Rows rows_..n have never been written, so they are bottom: storage
    // grows zeroed, and stride growth copies only live rows into fresh
    // zero storage.
    storage_.unpoison(rows_ * row_bytes, n * row_bytes);
    rows_ = n;
}

void
ClockBank::ensure_dim(size_t d)
{
    if (d <= dim_)
        return;
    if (d > stride_) {
        const size_t new_stride = stride_for(d, stride_);
        if (storage_.capacity() == 0)
            stride_ = new_stride; // nothing allocated yet
        else
            grow_stride(new_stride);
    }
    // Components dim_..d are zero in every row (the padding invariant), so
    // exposing them is free.
    dim_ = d;
}

} // namespace aero
