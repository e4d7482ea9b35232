#include "vc/adaptive_clock.hpp"

namespace aero {

void
AdaptiveClockTable::grow_member(UpdWindow& w, size_t word)
{
    w.member.resize(word + 1);
}

size_t
AdaptiveClockTable::alloc_row()
{
    if (!free_rows_.empty()) {
        // Reclaimed rows are bottom already (gc_reclaim clears them).
        size_t r = free_rows_.back();
        free_rows_.pop_back();
        return r;
    }
    arena_.ensure_rows(arena_rows_ + 1);
    return arena_rows_++;
}

ClockRef
AdaptiveClockTable::inflate(size_t i, bool copy_contents)
{
    Epoch e = Epoch::from_bits(entries_[i]);
    size_t r = alloc_row();
    entries_[i] = kInflatedTag | static_cast<uint64_t>(r);
    ClockRef row = arena_[r];
    // Fresh arena rows are bottom (the bank zero-fills growth), so only
    // the epoch's one component needs writing.
    if (copy_contents && !e.is_bottom())
        row.set(e.thread(), e.value());
    ++stats_.inflations;
    return row;
}

ClockRef
AdaptiveClockTable::unshare(size_t i, bool copy_contents)
{
    const size_t shared = entries_[i] & kRowMask;
    if (drop_ref(entries_[i])) {
        // The last referent takes the row over in place.
        entries_[i] = kInflatedTag | static_cast<uint64_t>(shared);
        return arena_[shared];
    }
    const size_t r = alloc_row(); // may remap the arena: refs after this
    entries_[i] = kInflatedTag | static_cast<uint64_t>(r);
    ClockRef row = arena_[r];
    if (copy_contents)
        row.assign(arena_[shared]);
    return row;
}

bool
AdaptiveClockTable::share_row(size_t i, RowShare& s)
{
    if (s.row == RowShare::kNoRow)
        return false;
    const uint64_t word = kInflatedTag | static_cast<uint64_t>(s.row);
    if (s.refs == nullptr) {
        // First reuse: the owner still holds the row privately, so it
        // becomes the row's first counted referent.
        if (entries_[s.owner] != word) {
            s.row = RowShare::kNoRow;
            return false;
        }
        auto [it, fresh] = shared_refs_.emplace(s.row, 1);
        assert(fresh);
        (void)fresh;
        s.refs = &it->second;
        entries_[s.owner] = word | kSharedTag;
    }
    ++*s.refs;
    entries_[i] = word | kSharedTag;
    ++stats_.inflations;
    ++stats_.rows_shared;
    return true;
}

void
AdaptiveClockTable::assign_slow(size_t i, ConstClockRef c, ThreadId t,
                                bool c_pure)
{
    ClockRef row = is_inflated(i) ? own_row(i, /*copy_contents=*/false)
                                  : inflate(i, /*copy_contents=*/false);
    if (c_pure) {
        // Inflated entries never demote: write bot[c[t]/t] as a full row.
        row.clear();
        row.set(t, c.get(t));
    } else {
        row.assign(c);
    }
    ++stats_.vector_ops;
}

void
AdaptiveClockTable::join_slow(size_t i, ConstClockRef c, ThreadId t,
                              bool c_pure)
{
    ClockRef row = is_inflated(i) ? own_row(i, /*copy_contents=*/true)
                                  : inflate(i, /*copy_contents=*/true);
    if (c_pure) {
        // Reached only when the entry is a foreign-thread epoch: the
        // result has two components, so inflate and fold in the one new
        // component.
        ClockValue v = c.get(t);
        if (v > row.get(t))
            row.set(t, v);
    } else {
        row.join(c);
    }
    ++stats_.vector_ops;
}

void
AdaptiveClockTable::join_except_slow(size_t i, ConstClockRef c, ThreadId t)
{
    if (is_inflated(i)) {
        own_row(i, /*copy_contents=*/true).join_except(c, t);
        ++stats_.vector_ops;
        return;
    }
    // Epoch entry e, impure source: result = e |_| c[0/t]. If c has no
    // foreign components beyond t, the source contributes bottom and the
    // epoch survives.
    bool contributes = false;
    for (size_t j = 0; j < c.dim(); ++j) {
        if (j != t && c.get(j) != 0) {
            contributes = true;
            break;
        }
    }
    ++stats_.vector_ops;
    if (!contributes)
        return;
    Epoch e = Epoch::from_bits(entries_[i]);
    ClockRef row = inflate(i, /*copy_contents=*/false);
    row.assign(c);
    row.set(t, 0);
    if (!e.is_bottom()) {
        ClockValue v = e.value();
        if (v > row.get(e.thread()))
            row.set(e.thread(), v);
    }
}

bool
AdaptiveClockTable::rows_consistent() const
{
    std::unordered_map<size_t, uint32_t> tagged;
    std::vector<uint8_t> seen(arena_rows_, 0);
    for (uint64_t bits : entries_) {
        if (!(bits & kInflatedTag))
            continue;
        const size_t r = bits & kRowMask;
        if (r >= arena_rows_)
            return false;
        if (bits & kSharedTag) {
            ++tagged[r];
        } else if (seen[r]++ != 0 || shared_refs_.count(r) != 0) {
            return false; // a private row with two referents, or counted
        }
        if (seen[r] != 0 && tagged.count(r) != 0)
            return false; // one row both private and shared
    }
    if (tagged != shared_refs_)
        return false;
    for (size_t r : free_rows_) {
        if (r >= arena_rows_ || seen[r] != 0 || tagged.count(r) != 0)
            return false;
    }
    return true;
}

} // namespace aero
