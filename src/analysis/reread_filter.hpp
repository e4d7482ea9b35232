#pragma once

/**
 * @file
 * OwnedRereadFilter — the decode-ahead worker's pass that compacts
 * owned rereads out of a decoded block before the checker sees it.
 *
 * An *owned reread* is r(t,x) inside t's outermost transaction after t
 * wrote x in that transaction and has read x since. To an engine whose
 * AtomicityChecker::owned_rereads_are_noops() is true (AeroDromeOpt,
 * see its read path) such a read changes nothing but its lazy_reads
 * counter, so dropping it leaves every verdict, index, thread and other
 * counter as they were. In perfbench's naive workload (whole-thread
 * transactions, the paper's Table 2 regime) 49% of the events checked
 * are owned rereads.
 *
 * The pass proves ownership with exact transaction state and a
 * fixed-size memo:
 *
 *   - for thread ids below kMemoThreads, begin/end depth under
 *     TxnTracker's rules (nested pairs count depth, an unmatched end is
 *     ignored) and a *token* naming the thread's current outermost
 *     transaction: each outermost begin draws a fresh one from a
 *     counter, an outermost end sets it to 0 (no transaction);
 *   - a direct-mapped memo of kMemoSlots 8-byte entries, indexed by the
 *     low bits of the variable id. An entry holds the id's high bits,
 *     the token of the transaction that last wrote the variable and a
 *     read-since bit. Every write replaces its variable's entry, so an
 *     entry that names x describes x's last write; a write outside any
 *     transaction, or by an untracked thread, stores token 0, which no
 *     reader's token matches.
 *
 * A read is dropped only when its variable's entry carries the reading
 * thread's own nonzero token (so that thread wrote it in its current
 * transaction, after every other write) and the read-since bit is set.
 * Everything else is kept: a memo miss (a colliding variable evicted the
 * entry), a write outside a transaction, any event of a thread id past
 * the table. A miss costs only the drop, never exactness: the kept read
 * reaches the engine, which handles it as it always did. No array grows
 * with variable or thread ids (36 KiB in all): a per-id table would
 * fault in fresh pages on the worker as a trace names fresh variables.
 * Tokens are 43 bits; past 2^43 outermost transactions every new one
 * gets token 0 and the pass drops nothing more.
 *
 * The state is a function of every event the pass has seen, so it must
 * see the whole stream in order: observe() takes blocks the checker was
 * handed without compaction (the runner's inline first block).
 */

#include <cstddef>
#include <cstdint>
#include <memory>

#include "trace/event.hpp"

namespace aero {

class OwnedRereadFilter {
public:
    /** Memo entries (a power of two). */
    static constexpr size_t kMemoSlots = 4096;
    /** Thread ids with tracked transaction state; events of higher ids
     *  are kept. */
    static constexpr ThreadId kMemoThreads = 256;

    OwnedRereadFilter();

    /** Track `events[0, n)` without dropping any. */
    void observe(const Event* events, size_t n);

    /**
     * Compact the owned rereads out of `events[0, n)` in place, keeping
     * the order of the rest. `offsets[k]` receives the position in the
     * original block of the k-th kept event, so n must fit an offset.
     * @return the kept count; the first that many events are the kept
     *         ones.
     */
    size_t compact(Event* events, size_t n, uint16_t* offsets);

private:
    static constexpr unsigned kSlotBits = 12;
    static_assert(kMemoSlots == size_t{1} << kSlotBits);
    /** Entry layout: id >> kSlotBits, then the token, then the bit. */
    static constexpr unsigned kTokenBits = 63 - (32 - kSlotBits);
    static constexpr uint64_t kTokenLimit = uint64_t{1} << kTokenBits;

    /** Update the state for `e`. @return false iff `e` is an owned
     *  reread. */
    bool keep(const Event& e);

    struct Txn {
        /** The current outermost transaction's token; 0 outside one. */
        uint64_t token = 0;
        uint32_t depth = 0;
    };

    /** Tokens drawn so far. */
    uint64_t tokens_ = 0;
    /** Rows [0, kMemoThreads), and row kMemoThreads for every higher
     *  id, whose token stays 0. */
    std::unique_ptr<Txn[]> txn_;
    /** Zero: no variable's entry, token 0. */
    std::unique_ptr<uint64_t[]> memo_;
};

} // namespace aero
