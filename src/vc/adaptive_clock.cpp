#include "vc/adaptive_clock.hpp"

namespace aero {

ClockRef
AdaptiveClockTable::inflate(size_t i, bool copy_contents)
{
    Epoch e = Epoch::from_bits(entries_[i]);
    size_t r;
    if (!free_rows_.empty()) {
        // Reclaimed rows are bottom already (gc_reclaim clears them).
        r = free_rows_.back();
        free_rows_.pop_back();
    } else {
        r = arena_rows_++;
        arena_.ensure_rows(arena_rows_);
    }
    entries_[i] = kInflatedTag | static_cast<uint64_t>(r);
    ClockRef row = arena_[r];
    // Fresh arena rows are bottom (the bank zero-fills growth), so only
    // the epoch's one component needs writing.
    if (copy_contents && !e.is_bottom())
        row.set(e.thread(), e.value());
    ++stats_.inflations;
    return row;
}

void
AdaptiveClockTable::assign_slow(size_t i, ConstClockRef c, ThreadId t,
                                bool c_pure)
{
    ClockRef row = is_inflated(i) ? mut_row(entries_[i])
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
    if (c_pure) {
        // Reached only when the entry is a foreign-thread epoch (or the
        // table runs with epochs off): the result has two components, so
        // inflate and fold in the one new component.
        ClockRef row = is_inflated(i) ? mut_row(entries_[i])
                                      : inflate(i, /*copy_contents=*/true);
        ClockValue v = c.get(t);
        if (v > row.get(t))
            row.set(t, v);
        ++stats_.vector_ops;
        return;
    }
    ClockRef row = is_inflated(i) ? mut_row(entries_[i])
                                  : inflate(i, /*copy_contents=*/true);
    row.join(c);
    ++stats_.vector_ops;
}

void
AdaptiveClockTable::join_except_slow(size_t i, ConstClockRef c, ThreadId t)
{
    if (is_inflated(i)) {
        mut_row(entries_[i]).join_except(c, t);
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

} // namespace aero
