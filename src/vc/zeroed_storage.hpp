#pragma once

/**
 * @file
 * ZeroedStorage — growable, zero-initialized, 64-byte-aligned memory
 * whose small case never reaches the kernel.
 *
 * Every growing array of the shipped engine (ClockBank's rows, the
 * clock table's entry words, the per-variable writer, flag and
 * stale-reader heads) reads "all-zero bytes" as its empty state, so new
 * capacity only has to read as zero. Storage below kMapBytes lives in
 * zeroed heap memory: the allocator recycles it, so constructing and
 * destroying a small engine makes no system call. At kMapBytes and
 * above it moves, once, to a private anonymous mapping; from then on it
 * grows by mremap, which moves page tables, not data, and the grown tail
 * reads as zero pages. See src/vc/README.md, "Zeroed storage". Growing
 * to a huge id therefore touches no page: each is first touched by the
 * event that writes it.
 *
 * This is the allocator-cache pattern: the common small case is served
 * from memory the process already holds, and only the large case pays a
 * system call, where fresh zero pages make up for it.
 */

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace aero {

class ZeroedStorage {
public:
    /** The size from which storage is a private mapping. Heap blocks
     *  stay below half of glibc's default mmap threshold (128 KiB), so
     *  the allocator serves them from its heap. A block it had mapped
     *  itself would, once freed, raise its dynamic mmap threshold, and
     *  the engine's later large vectors would then stay resident in the
     *  heap after they move (+1.7 MB peak on perfbench star with a
     *  2 MiB switch). */
    static constexpr size_t kMapBytes = size_t{64} << 10;

    /** huge_pages: advise 2 MiB pages once mapped (dense clock rows;
     *  sparse per-id arrays leave it off so RSS tracks touched pages). */
    explicit ZeroedStorage(bool huge_pages = false) : huge_(huge_pages) {}

    ZeroedStorage(const ZeroedStorage&) = delete;
    ZeroedStorage& operator=(const ZeroedStorage&) = delete;

    ~ZeroedStorage() { release(); }

    void* data() const { return base_; }

    /** Bytes held: 64-byte-rounded on the heap, page-rounded once
     *  mapped (memory accounting). */
    size_t capacity() const { return cap_; }

    /** Grow the capacity to at least `bytes`, keeping the first `live`
     *  bytes; every byte past them reads zero (the caller never wrote
     *  there). May move the base. Under ASan [0, live) stays addressable
     *  and the rest is poisoned. Throws std::bad_alloc. */
    void grow(size_t bytes, size_t live);

    /** Make [from, to) addressable (ASan only): capacity a caller hands
     *  out; grow() poisons everything past `live`. */
    void unpoison(size_t from, size_t to) const;

    void
    swap(ZeroedStorage& other) noexcept
    {
        std::swap(base_, other.base_);
        std::swap(heap_, other.heap_);
        std::swap(cap_, other.cap_);
        std::swap(huge_, other.huge_);
    }

private:
    /** Poison [from, to) (ASan only). */
    void poison(size_t from, size_t to) const;

    /** Free the memory; capacity becomes 0. */
    void release();

    unsigned char* base_ = nullptr; ///< 64-byte aligned
    void* heap_ = nullptr;          ///< the heap block under base_, if any
    size_t cap_ = 0;
    bool huge_ = false;
};

/**
 * A growable array of trivially copyable T on ZeroedStorage, for state
 * whose all-zero element means "empty": resize() exposes zero elements
 * without writing them. Capacity at least doubles, so growth one id at
 * a time is amortized.
 */
template <typename T>
class ZeroedArray {
    static_assert(std::is_trivially_copyable_v<T>,
                  "elements are moved as bytes");

public:
    ZeroedArray() = default;

    ZeroedArray(ZeroedArray&& other) noexcept : size_(other.size_)
    {
        mem_.swap(other.mem_);
        other.size_ = 0;
    }

    size_t size() const { return size_; }

    T* data() { return static_cast<T*>(mem_.data()); }
    const T* data() const { return static_cast<const T*>(mem_.data()); }

    T&
    operator[](size_t i)
    {
        assert(i < size_);
        return data()[i];
    }

    const T&
    operator[](size_t i) const
    {
        assert(i < size_);
        return data()[i];
    }

    T* begin() { return data(); }
    T* end() { return data() + size_; }
    const T* begin() const { return data(); }
    const T* end() const { return data() + size_; }

    /** Grow to at least n elements; the new ones are all-zero. */
    void
    resize(size_t n)
    {
        if (n <= size_)
            return;
        const size_t bytes = n * sizeof(T);
        if (bytes > mem_.capacity()) {
            const size_t doubled = 2 * mem_.capacity();
            mem_.grow(bytes < doubled ? doubled : bytes, size_ * sizeof(T));
        }
        mem_.unpoison(size_ * sizeof(T), bytes);
        size_ = n;
    }

    size_t memory_bytes() const { return mem_.capacity(); }

private:
    ZeroedStorage mem_;
    size_t size_ = 0;
};

/**
 * A 32-bit id stored as id + 1 (mod 2^32), so the all-zero word of a
 * ZeroedArray reads as UINT32_MAX, the engines' "none" sentinel
 * (kNoThread, a stale-reader pool's kNoNode). Converts both ways, so
 * code reads and writes plain ids.
 */
class BiasedId {
public:
    operator uint32_t() const { return code_ - 1; }

    BiasedId&
    operator=(uint32_t id)
    {
        code_ = id + 1;
        return *this;
    }

private:
    uint32_t code_ = 0;
};

} // namespace aero
