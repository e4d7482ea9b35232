#pragma once

/**
 * @file
 * ClockBank — contiguous, SIMD-friendly storage for families of
 * same-dimension vector clocks.
 *
 * The checker engines keep many clocks of one dimension (|Thr|): per-thread
 * C_t/C_t^b, per-lock L_l, per-variable W_x/R_x/hR_x. Storing them as
 * `std::vector<VectorClock>` costs one heap allocation and one pointer
 * indirection per clock, so the hot join/leq loops chase pointers and
 * touch scattered cache lines. A ClockBank instead packs N clocks into one
 * flat ClockValue array:
 *
 *   row i  ->  data[i * stride .. i * stride + dim)
 *
 * with `stride` sized to the dimension: 8 ClockValues (32 bytes, half a
 * cache line) while dim <= 8, then whole lines (16 ClockValues = 64
 * bytes), doubling. The array is ZeroedStorage (vc/zeroed_storage.hpp):
 * zeroed heap memory while small, a private anonymous mapping from
 * ZeroedStorage::kMapBytes on. Either way the base is 64-byte aligned,
 * so no clock straddles a cache line: a sweep over rows is a pure
 * streaming access, and small-dimension rows pack two to a line, so a
 * fetched line is mostly live components. New storage reads zero, which
 * gives bottom rows and zero padding without a memset. Components beyond
 * `dim` (the padding) are kept zero at all times — the vector-time
 * bottom for threads not yet seen — which makes dimension growth within
 * the current stride free. Once mapped, row growth remaps pages (mremap)
 * instead of copying; stride growth copies, and only the live
 * components.
 *
 * Access is handle-based: `bank[i]` returns a ClockRef/ConstClockRef (raw
 * pointer + dimension). Refs are invalidated by ensure_rows/ensure_dim
 * (a remap may move the base), exactly like vector iterators; engines
 * take refs only after all ensure_* calls for the current event.
 *
 * The pointwise kernels (vck::join / leq / ...) are tight loops over
 * __restrict pointers written so the compiler auto-vectorizes them at
 * -O2. On x86-64 GCC/Clang builds an AVX2 path, compiled with
 * target("avx2"), is dispatched at runtime when the CPU has AVX2, with
 * any build flags (no -march=native needed).
 *
 * See src/vc/README.md for the layout diagram and invariants.
 */

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>

#include "vc/vector_clock.hpp"
#include "vc/zeroed_storage.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define AERO_VC_X86_DISPATCH 1
#endif

namespace aero {

/** Pointwise kernels over raw clock component arrays. */
namespace vck {

#ifdef AERO_VC_X86_DISPATCH
namespace detail {
/** True iff the CPU supports AVX2 (queried once at startup). */
extern const bool kHaveAvx2;
/** Out-of-line AVX2 bodies, compiled with target("avx2") so the library
 *  works on any x86-64 build flags; dispatched at runtime. */
void join_avx2(ClockValue* dst, const ClockValue* src, size_t n);
bool leq_avx2(const ClockValue* a, const ClockValue* b, size_t n);
} // namespace detail
#endif

/** dst := dst |_| src over n components (pointwise max). */
inline void
join(ClockValue* __restrict dst, const ClockValue* __restrict src, size_t n)
{
#ifdef AERO_VC_X86_DISPATCH
    if (n >= 16 && detail::kHaveAvx2) {
        detail::join_avx2(dst, src, n);
        return;
    }
#endif
    if (n == 16) {
        // Exactly one cache line (the padded-stride sweet spot): without
        // AVX2 a constant-trip loop still inlines to straight-line SIMD
        // with no loop overhead.
        for (size_t i = 0; i < 16; ++i)
            dst[i] = dst[i] < src[i] ? src[i] : dst[i];
        return;
    }
    for (size_t i = 0; i < n; ++i)
        dst[i] = dst[i] < src[i] ? src[i] : dst[i];
}

/** a sqsubseteq b: pointwise <= over n components. Branchless inner
 *  blocks (so the compiler can vectorize the compare+or reduction) with
 *  an early exit every block. */
inline bool
leq(const ClockValue* __restrict a, const ClockValue* __restrict b, size_t n)
{
#ifdef AERO_VC_X86_DISPATCH
    if (n >= 16 && detail::kHaveAvx2)
        return detail::leq_avx2(a, b, n);
#endif
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        uint32_t bad = 0;
        for (size_t j = i; j < i + 16; ++j)
            bad |= static_cast<uint32_t>(a[j] > b[j]);
        if (bad)
            return false;
    }
    for (; i < n; ++i) {
        if (a[i] > b[i])
            return false;
    }
    return true;
}

/** a sqsubseteq b ignoring component `skip` (the paper's C[0/t]-style
 *  comparisons). Counts violations branchlessly, then discounts one at
 *  `skip` if present. */
inline bool
leq_except(const ClockValue* __restrict a, const ClockValue* __restrict b,
           size_t n, size_t skip)
{
    size_t bad = 0;
    for (size_t i = 0; i < n; ++i)
        bad += static_cast<size_t>(a[i] > b[i]);
    if (skip < n && a[skip] > b[skip])
        --bad;
    return bad == 0;
}

/** dst := dst |_| src with src[zeroed] treated as 0: a full join with the
 *  `zeroed` slot saved and restored (max(dst[z], 0) == dst[z]). */
inline void
join_except(ClockValue* __restrict dst, const ClockValue* __restrict src,
            size_t n, size_t zeroed)
{
    ClockValue saved = zeroed < n ? dst[zeroed] : 0;
    join(dst, src, n);
    if (zeroed < n)
        dst[zeroed] = saved;
}

/** True iff all n components are zero. */
inline bool
is_bottom(const ClockValue* __restrict a, size_t n)
{
    uint32_t acc = 0;
    for (size_t i = 0; i < n; ++i)
        acc |= a[i];
    return acc == 0;
}

} // namespace vck

class ClockBank;

/** Read-only handle to one clock in a ClockBank. */
class ConstClockRef {
public:
    ConstClockRef(const ClockValue* v, size_t dim) : v_(v), dim_(dim) {}

    /** Component t, 0 beyond the stored dimension (implicit bottom). */
    ClockValue
    get(size_t t) const
    {
        return t < dim_ ? v_[t] : 0;
    }

    size_t dim() const { return dim_; }
    const ClockValue* data() const { return v_; }

    bool
    leq(ConstClockRef o) const
    {
        assert(dim_ == o.dim_);
        return vck::leq(v_, o.v_, dim_);
    }

    bool
    leq_except(ConstClockRef o, size_t skip) const
    {
        assert(dim_ == o.dim_);
        return vck::leq_except(v_, o.v_, dim_, skip);
    }

    bool is_bottom() const { return vck::is_bottom(v_, dim_); }

    /** Materialize as a scalar VectorClock (tests, reports). */
    VectorClock
    to_vector_clock() const
    {
        VectorClock out;
        for (size_t i = 0; i < dim_; ++i)
            out.set(i, v_[i]);
        return out;
    }

    std::string
    to_string() const
    {
        std::string out = "<";
        for (size_t i = 0; i < dim_; ++i) {
            if (i > 0)
                out += ",";
            out += std::to_string(v_[i]);
        }
        out += ">";
        return out;
    }

protected:
    const ClockValue* v_;
    size_t dim_;
};

/** Mutable handle to one clock in a ClockBank. */
class ClockRef : public ConstClockRef {
public:
    ClockRef(ClockValue* v, size_t dim) : ConstClockRef(v, dim) {}

    ClockValue* data() { return mut(); }

    void
    set(size_t t, ClockValue v)
    {
        assert(t < dim_);
        mut()[t] = v;
    }

    void
    tick(size_t t)
    {
        assert(t < dim_);
        ++mut()[t];
    }

    void
    join(ConstClockRef o)
    {
        assert(dim_ == o.dim());
        if (v_ == o.data())
            return; // self-join is the identity; keep __restrict honest
        vck::join(mut(), o.data(), dim_);
    }

    void
    join_except(ConstClockRef o, size_t zeroed)
    {
        assert(dim_ == o.dim());
        if (v_ == o.data())
            return;
        vck::join_except(mut(), o.data(), dim_, zeroed);
    }

    /** *this := o (same-dimension copy). */
    void
    assign(ConstClockRef o)
    {
        assert(dim_ == o.dim());
        if (v_ != o.data())
            std::memcpy(mut(), o.data(), dim_ * sizeof(ClockValue));
    }

    /** Reset to bottom. */
    void
    clear()
    {
        std::memset(mut(), 0, dim_ * sizeof(ClockValue));
    }

private:
    ClockValue* mut() { return const_cast<ClockValue*>(v_); }
};

/**
 * A bank of `rows()` vector clocks, each of dimension `dim()`, stored
 * contiguously in one ZeroedStorage; no row straddles a cache line.
 *
 * Growth is amortized in both directions. Row capacity doubles: on the
 * heap by a copy of the live rows, once mapped by remapping pages, with
 * nothing copied; either way the new tail reads as zero. The per-row
 * stride grows 8 -> 16 components and then doubles in cache-line units
 * when the dimension outgrows it; that takes fresh storage and copies
 * the live components of each row. Padding components (dim..stride) are
 * zero at all times. A failed allocation throws std::bad_alloc.
 */
class ClockBank {
public:
    /** Components per cache line; strides above 8 are multiples of
     *  this, stride 8 divides it. */
    static constexpr size_t kLineValues = 64 / sizeof(ClockValue);

    ClockBank() = default;

    ClockBank(size_t rows, size_t dim)
    {
        ensure_dim(dim);
        ensure_rows(rows);
    }

    ClockBank(ClockBank&& other) noexcept { swap(other); }

    ClockBank&
    operator=(ClockBank&& other) noexcept
    {
        if (this != &other) {
            ClockBank gone(std::move(other));
            swap(gone);
        }
        return *this;
    }

    size_t rows() const { return rows_; }
    size_t dim() const { return dim_; }
    size_t stride() const { return stride_; }

    /** Bytes of the backing storage (memory accounting). */
    size_t memory_bytes() const { return storage_.capacity(); }

    /** Grow to at least n rows (new rows are bottom). Invalidates refs. */
    void ensure_rows(size_t n);

    /** Grow the clock dimension to at least d (new components are 0 in
     *  every row). Invalidates refs. */
    void ensure_dim(size_t d);

    ClockRef
    operator[](size_t i)
    {
        assert(i < rows_);
        return ClockRef(base() + i * stride_, dim_);
    }

    ConstClockRef
    operator[](size_t i) const
    {
        assert(i < rows_);
        return ConstClockRef(base() + i * stride_, dim_);
    }

    /** Raw base pointer (benchmarks, tests). */
    const ClockValue* data() const { return base(); }

private:
    ClockValue*
    base() const
    {
        return static_cast<ClockValue*>(storage_.data());
    }

    void
    swap(ClockBank& other) noexcept
    {
        storage_.swap(other.storage_);
        std::swap(rows_, other.rows_);
        std::swap(dim_, other.dim_);
        std::swap(stride_, other.stride_);
    }

    /** Move to fresh storage at new_stride, copying the live components
     *  of each row. */
    void grow_stride(size_t new_stride);

    ZeroedStorage storage_{/*huge_pages=*/true};
    size_t rows_ = 0;   ///< live rows
    size_t dim_ = 0;    ///< live components per row
    size_t stride_ = 0; ///< allocated components per row (8 or 16k)
};

} // namespace aero
