#include "analysis/reread_filter.hpp"

#include "support/assert.hpp"

namespace aero {

OwnedRereadFilter::OwnedRereadFilter()
    : txn_(new Txn[kMemoThreads + 1]), memo_(new uint64_t[kMemoSlots]())
{
}

inline bool
OwnedRereadFilter::keep(const Event& e)
{
    const ThreadId t = e.tid;
    Txn& txn = txn_[t < kMemoThreads ? t : kMemoThreads];
    if (e.op == Op::kBegin || e.op == Op::kEnd) {
        if (t >= kMemoThreads)
            return true;
        if (e.op == Op::kBegin) {
            if (txn.depth++ == 0)
                txn.token = ++tokens_ < kTokenLimit ? tokens_ : 0;
        } else if (txn.depth != 0 && --txn.depth == 0) {
            txn.token = 0;
        }
        return true;
    }
    // Every other event takes one branch-free path: reads and writes
    // arrive in no predictable order. An entry that carries this
    // thread's token says the thread wrote the variable in its current
    // transaction, after every other write: another thread's write
    // would have replaced the entry (it moves the engine's last
    // writer), and so would the owner's next one (which flushes its
    // stale read). The first read since sets the bit (the engine makes
    // the thread a stale reader); a read that finds it set is owned.
    // The other kinds store back what they loaded.
    uint64_t& m = memo_[e.target & (kMemoSlots - 1)];
    const uint64_t old = m;
    const uint64_t mine =
        uint64_t{e.target >> kSlotBits} << (kTokenBits + 1) | txn.token << 1;
    const bool is_write = e.op == Op::kWrite;
    const bool owned_read = (e.op == Op::kRead) & (txn.token != 0) &
                            ((old | 1) == (mine | 1));
    // A mask, not ?:, which the compiler turns back into a branch.
    const uint64_t w = 0 - uint64_t{is_write};
    m = (mine & w) | ((old | owned_read) & ~w);
    return !(owned_read & (old & 1));
}

void
OwnedRereadFilter::observe(const Event* events, size_t n)
{
    for (size_t j = 0; j < n; ++j)
        keep(events[j]);
}

size_t
OwnedRereadFilter::compact(Event* events, size_t n, uint16_t* offsets)
{
    AERO_ASSERT(n <= size_t{UINT16_MAX} + 1,
                "block too large for 16-bit offsets");
    size_t kept = 0;
    for (size_t j = 0; j < n; ++j) {
        // Write unconditionally and advance only past a kept event: no
        // branch on the verdict. kept <= j, so nothing unread is lost.
        const bool k = keep(events[j]);
        events[kept] = events[j];
        offsets[kept] = static_cast<uint16_t>(j);
        kept += k;
    }
    return kept;
}

} // namespace aero
