#pragma once

/**
 * @file
 * ThreadSlotMap — external-tid -> clock-dimension ("slot") binding with
 * recycling, the thread half of dead-state reclamation (src/vc/README.md,
 * "Reclamation").
 *
 * Without recycling every distinct thread id in the trace widens every
 * vector clock forever; a service fed by millions of short-lived threads
 * OOMs on dimensions alone. With recycling a joined thread's slot is
 * retired and reissued to the next created thread, so the clock dimension
 * tracks the *live* thread count.
 *
 * Determinism: slots are allocated at first mention and retired at
 * processed join events, so the map is a pure function of the trace's
 * fork/join structure.
 *
 * The engines own the clock-side safety work (continuation values, eager
 * scrubbing of cached per-slot facts) — this class is pure bookkeeping.
 */

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/event.hpp"

namespace aero {

/** Maps external thread ids to recycled slot indices. */
class ThreadSlotMap {
public:
    /**
     * Slot for external tid `ext`, allocating one (reuse-first, LIFO) on
     * first sight. `fresh` is set iff this call bound the tid — the
     * caller must then initialize / continue the slot's clock state.
     */
    uint32_t
    resolve(ThreadId ext, bool& fresh)
    {
        Cached& hit = cache_[ext & (kCacheSize - 1)];
        if (hit.ext == ext) {
            fresh = false;
            return hit.slot;
        }
        auto it = slot_of_.find(ext);
        if (it != slot_of_.end()) {
            fresh = false;
            hit = {ext, it->second};
            return it->second;
        }
        fresh = true;
        uint32_t s;
        if (!free_.empty()) {
            s = free_.back();
            free_.pop_back();
            ++recycled_;
        } else {
            s = static_cast<uint32_t>(ext_of_.size());
            ext_of_.push_back(kNoThread);
        }
        ext_of_[s] = ext;
        slot_of_.emplace(ext, s);
        hit = {ext, s};
        return s;
    }

    /** Slot currently bound to `ext`, or kNoThread. Does not allocate. */
    uint32_t
    lookup(ThreadId ext) const
    {
        const Cached& hit = cache_[ext & (kCacheSize - 1)];
        if (hit.ext == ext)
            return hit.slot;
        auto it = slot_of_.find(ext);
        return it == slot_of_.end() ? kNoThread : it->second;
    }

    /** Retire `slot`: unbind its external tid and make it reissuable.
     *  The caller has already fixed up the slot's clock state. */
    void
    retire(uint32_t slot)
    {
        ThreadId ext = ext_of_[slot];
        ext_of_[slot] = kNoThread;
        slot_of_.erase(ext);
        Cached& hit = cache_[ext & (kCacheSize - 1)];
        if (hit.ext == ext)
            hit = {kNoThread, kNoThread};
        free_.push_back(slot);
        ++retired_;
    }

    /** External tid bound to `slot` (kNoThread when free/never issued).
     *  Violation reports use this to name the real thread. */
    ThreadId
    ext_of(uint32_t slot) const
    {
        return slot < ext_of_.size() ? ext_of_[slot] : kNoThread;
    }

    /** Total slots ever laid out (live + free) — the clock dimension. */
    uint32_t slots() const { return static_cast<uint32_t>(ext_of_.size()); }

    uint64_t retired() const { return retired_; }
    uint64_t recycled() const { return recycled_; }

    /** The slot->ext binding table (kNoThread marks a free slot). */
    const std::vector<ThreadId>& bindings() const { return ext_of_; }

    size_t
    memory_bytes() const
    {
        // unordered_map nodes: bucket array + one heap node per entry
        // (libstdc++ layout: next pointer + hash + pair).
        return ext_of_.capacity() * sizeof(ThreadId) +
               free_.capacity() * sizeof(uint32_t) + sizeof(cache_) +
               slot_of_.bucket_count() * sizeof(void*) +
               slot_of_.size() *
                   (sizeof(void*) + sizeof(size_t) +
                    sizeof(std::pair<ThreadId, uint32_t>));
    }

private:
    static constexpr size_t kCacheSize = 256;

    struct Cached {
        ThreadId ext = kNoThread;
        uint32_t slot = kNoThread;
    };

    std::vector<ThreadId> ext_of_; ///< slot -> external tid, kNoThread=free
    std::vector<uint32_t> free_;   ///< retired slots, reissued LIFO
    /** Live external tids only — bounded by the live thread count. */
    std::unordered_map<ThreadId, uint32_t> slot_of_;
    Cached cache_[kCacheSize]; ///< direct-mapped hot-path bypass
    uint64_t retired_ = 0;
    uint64_t recycled_ = 0;
};

} // namespace aero
