#pragma once

/**
 * @file
 * Per-thread transaction nesting state shared by all checkers.
 *
 * Implements the paper's Section 4.1.4 treatment of nested transactions:
 * only the outermost begin/end pair delimits a transaction; inner pairs are
 * ignored. Also assigns each outermost transaction a per-thread sequence
 * number so forked children can later ask whether the forking transaction
 * instance is still active (Algorithm 3's "parentTr is alive").
 */

#include <cstdint>
#include <vector>

#include "trace/event.hpp"

namespace aero {

/** Tracks begin/end nesting depth and transaction instances per thread. */
class TxnTracker {
public:
    explicit TxnTracker(uint32_t num_threads = 0)
        : depth_(num_threads, 0), seq_(num_threads, 0)
    {}

    /** Grow to cover thread ids < n. */
    void
    ensure(uint32_t n)
    {
        if (n > depth_.size()) {
            depth_.resize(n, 0);
            seq_.resize(n, 0);
        }
    }

    /**
     * Record a begin event of `t`.
     * @return true iff this begin is outermost (starts a transaction).
     */
    bool
    on_begin(ThreadId t)
    {
        ensure(t + 1);
        if (depth_[t]++ == 0) {
            ++seq_[t];
            return true;
        }
        return false;
    }

    /**
     * Record an end event of `t`.
     * @return true iff this end is outermost (completes the transaction).
     *
     * Unmatched ends (possible only on ill-formed traces) are ignored.
     */
    bool
    on_end(ThreadId t)
    {
        ensure(t + 1);
        if (depth_[t] == 0)
            return false;
        return --depth_[t] == 0;
    }

    /** True iff thread t currently has an active (open) transaction. */
    bool
    active(ThreadId t) const
    {
        return t < depth_.size() && depth_[t] > 0;
    }

    /**
     * Instance counter of t's current (or most recent) transaction;
     * 0 before the first begin.
     */
    uint64_t
    seq(ThreadId t) const
    {
        return t < seq_.size() ? seq_[t] : 0;
    }

    /** Bytes held (engine memory_bytes() accounting). */
    size_t
    memory_bytes() const
    {
        return depth_.capacity() * sizeof(uint32_t) +
               seq_.capacity() * sizeof(uint64_t);
    }

private:
    std::vector<uint32_t> depth_;
    std::vector<uint64_t> seq_;
};

} // namespace aero
