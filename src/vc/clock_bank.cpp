#include "vc/clock_bank.hpp"

#include <new>

#include <sys/mman.h>
#include <unistd.h>

#if defined(__SANITIZE_ADDRESS__)
#define AERO_BANK_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AERO_BANK_ASAN 1
#endif
#endif
#ifdef AERO_BANK_ASAN
#include <sanitizer/asan_interface.h>
#endif

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
 *  base is page-aligned. */
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

size_t
round_to_page(size_t bytes)
{
    static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    return (bytes + page - 1) / page * page;
}

/** Ask for 2 MiB pages. Advisory: the kernel ignores it where the
 *  mapping holds no aligned 2 MiB extent, and a failure costs only the
 *  small pages we already have. */
void
advise_huge(void* p, size_t bytes)
{
    (void)::madvise(p, bytes, MADV_HUGEPAGE);
}

/** A fresh private anonymous mapping: page-aligned and zero-filled. */
ClockValue*
map_zeroed(size_t bytes)
{
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    advise_huge(p, bytes);
    return static_cast<ClockValue*>(p);
}

// ASan keeps the whole mapping addressable and does not carry shadow
// state across mremap/munmap, so the bank poisons its spare capacity
// itself and unpoisons before handing pages back to the kernel.
void
poison(const ClockValue* p, size_t bytes)
{
#ifdef AERO_BANK_ASAN
    ASAN_POISON_MEMORY_REGION(p, bytes);
#else
    (void)p;
    (void)bytes;
#endif
}

void
unpoison(const ClockValue* p, size_t bytes)
{
#ifdef AERO_BANK_ASAN
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
    (void)p;
    (void)bytes;
#endif
}

} // namespace

void
ClockBank::release()
{
    if (data_ != nullptr) {
        unpoison(data_, map_bytes_);
        ::munmap(data_, map_bytes_);
    }
    data_ = nullptr;
    rows_ = row_cap_ = dim_ = stride_ = map_bytes_ = 0;
}

void
ClockBank::adopt(ClockValue* base, size_t bytes, size_t stride)
{
    data_ = base;
    map_bytes_ = bytes;
    stride_ = stride;
    row_cap_ = bytes / (stride * sizeof(ClockValue));
    const size_t live = rows_ * stride * sizeof(ClockValue);
    unpoison(data_, live);
    poison(data_ + rows_ * stride, bytes - live);
}

void
ClockBank::grow_rows(size_t new_row_cap)
{
    const size_t bytes =
        round_to_page(new_row_cap * stride_ * sizeof(ClockValue));
    if (data_ == nullptr) {
        adopt(map_zeroed(bytes), bytes, stride_);
        return;
    }
    // The kernel moves the page tables, not the data, and the grown
    // tail reads as zero pages: bottom rows with zero padding.
    unpoison(data_, map_bytes_);
    void* p = ::mremap(data_, map_bytes_, bytes, MREMAP_MAYMOVE);
    if (p == MAP_FAILED) {
        adopt(data_, map_bytes_, stride_); // the old mapping is intact
        throw std::bad_alloc();
    }
    advise_huge(p, bytes);
    adopt(static_cast<ClockValue*>(p), bytes, stride_);
}

void
ClockBank::grow_stride(size_t new_stride)
{
    const size_t bytes =
        round_to_page(row_cap_ * new_stride * sizeof(ClockValue));
    ClockValue* fresh = map_zeroed(bytes);
    // Only the live components move; the fresh mapping is already zero
    // everywhere else.
    for (size_t i = 0; i < rows_; ++i) {
        std::memcpy(fresh + i * new_stride, data_ + i * stride_,
                    dim_ * sizeof(ClockValue));
    }
    unpoison(data_, map_bytes_);
    ::munmap(data_, map_bytes_);
    adopt(fresh, bytes, new_stride);
}

void
ClockBank::ensure_rows(size_t n)
{
    if (n <= rows_)
        return;
    if (stride_ == 0)
        stride_ = stride_for(dim_, 0); // dimension still 0
    if (n > row_cap_) {
        size_t new_cap = row_cap_ < 4 ? 4 : row_cap_ * 2;
        if (new_cap < n)
            new_cap = n;
        grow_rows(new_cap);
    }
    // Rows rows_..n have never been written, so they are bottom: mapped
    // and remapped pages start zero, and stride growth copies only live
    // rows into a fresh zero mapping.
    unpoison(data_ + rows_ * stride_,
             (n - rows_) * stride_ * sizeof(ClockValue));
    rows_ = n;
}

void
ClockBank::ensure_dim(size_t d)
{
    if (d <= dim_)
        return;
    if (d > stride_) {
        const size_t new_stride = stride_for(d, stride_);
        if (row_cap_ == 0) {
            stride_ = new_stride; // nothing allocated yet
        } else {
            grow_stride(new_stride);
        }
    }
    // Components dim_..d are zero in every row (the padding invariant), so
    // exposing them is free.
    dim_ = d;
}

} // namespace aero
