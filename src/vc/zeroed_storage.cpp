#include "vc/zeroed_storage.hpp"

#include <cstdlib>
#include <cstring>
#include <new>

#include <sys/mman.h>
#include <unistd.h>

#if defined(__SANITIZE_ADDRESS__)
#define AERO_ZEROED_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AERO_ZEROED_ASAN 1
#endif
#endif
#ifdef AERO_ZEROED_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace aero {

namespace {

// Under ASan storage is always mapped. ASan's quarantine keeps freed
// heap blocks from being reused, so the heap would save nothing, and the
// growth of ASan's own allocator would blur VmData, the leak check for
// mappings. Poisoning then only ever covers mappings.
#ifdef AERO_ZEROED_ASAN
constexpr bool kHeapAllowed = false;
#else
constexpr bool kHeapAllowed = true;
#endif

/** Heap blocks start on a cache line, like mappings (which start on a
 *  page): no 64-byte row of a caller straddles a line. */
constexpr size_t kAlign = 64;

size_t
round_up(size_t bytes, size_t unit)
{
    return (bytes + unit - 1) / unit * unit;
}

size_t
page_size()
{
    static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    return page;
}

/** Ask for 2 MiB pages. Advisory: the kernel ignores it where the
 *  mapping holds no aligned 2 MiB extent, and a failure costs only the
 *  small pages we already have. */
void
advise_huge(void* p, size_t bytes)
{
    (void)::madvise(p, bytes, MADV_HUGEPAGE);
}

} // namespace

// ASan keeps a whole mapping addressable and does not carry shadow
// state across mremap/munmap, so the storage poisons its spare capacity
// itself and unpoisons before handing pages back.
void
ZeroedStorage::poison(size_t from, size_t to) const
{
#ifdef AERO_ZEROED_ASAN
    if (from < to)
        ASAN_POISON_MEMORY_REGION(base_ + from, to - from);
#else
    (void)from;
    (void)to;
#endif
}

void
ZeroedStorage::unpoison(size_t from, size_t to) const
{
#ifdef AERO_ZEROED_ASAN
    if (from < to)
        ASAN_UNPOISON_MEMORY_REGION(base_ + from, to - from);
#else
    (void)from;
    (void)to;
#endif
}

void
ZeroedStorage::release()
{
    if (base_ != nullptr) {
        unpoison(0, cap_);
        if (heap_ != nullptr)
            std::free(heap_);
        else
            ::munmap(base_, cap_);
    }
    base_ = nullptr;
    heap_ = nullptr;
    cap_ = 0;
}

void
ZeroedStorage::grow(size_t bytes, size_t live)
{
    assert(live <= cap_);
    if (bytes <= cap_)
        return;
    if (heap_ != nullptr || base_ == nullptr) {
        // A fresh zeroed block (or mapping) takes the live prefix; the
        // old block goes back to the allocator.
        ZeroedStorage fresh(huge_);
        if (kHeapAllowed && bytes < kMapBytes) {
            fresh.cap_ = round_up(bytes, kAlign);
            fresh.heap_ = std::malloc(fresh.cap_ + kAlign);
            if (fresh.heap_ == nullptr)
                throw std::bad_alloc();
            fresh.base_ = static_cast<unsigned char*>(fresh.heap_) + kAlign -
                          reinterpret_cast<uintptr_t>(fresh.heap_) % kAlign;
            std::memset(fresh.base_, 0, fresh.cap_);
        } else {
            fresh.cap_ = round_up(bytes, page_size());
            void* p = ::mmap(nullptr, fresh.cap_, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (p == MAP_FAILED)
                throw std::bad_alloc();
            fresh.base_ = static_cast<unsigned char*>(p);
            if (huge_)
                advise_huge(p, fresh.cap_);
        }
        if (live != 0)
            std::memcpy(fresh.base_, base_, live);
        fresh.poison(live, fresh.cap_);
        swap(fresh);
        return;
    }
    // Mapped: the kernel moves the page tables, not the data, and the
    // grown tail reads as zero pages.
    const size_t cap = round_up(bytes, page_size());
    unpoison(0, cap_);
    void* p = ::mremap(base_, cap_, cap, MREMAP_MAYMOVE);
    if (p == MAP_FAILED) {
        poison(live, cap_); // the old mapping is intact
        throw std::bad_alloc();
    }
    base_ = static_cast<unsigned char*>(p);
    cap_ = cap;
    if (huge_)
        advise_huge(p, cap);
    poison(live, cap);
}

} // namespace aero
