#pragma once

/**
 * @file
 * AdaptiveClockTable — epoch-adaptive storage for a family of clocks that
 * are epochs (vc/epoch.hpp) in the uncontended common case and ClockBank
 * rows once contended.
 *
 * Every entry is one tagged 64-bit word:
 *
 *   bit 63 = 0:  the entry IS the vector bot[v/t], packed as an Epoch
 *                (value v in bits 0..31, thread t in bits 32..62);
 *   bit 63 = 1:  bits 0..61 index a row of the shared inflation arena
 *                (a ClockBank) holding the full vector; bit 62 set
 *                marks the row as *shared* with other entries.
 *
 * Promotion is one-way: the first operation whose result is not
 * epoch-shaped inflates the entry into an arena row, and the entry
 * stays inflated for the rest of the run ("promote on first contention,
 * never demote"). Because only contended entries ever inflate, the arena
 * is a *combined bank region* holding exactly the slow-path rows of every
 * clock family an engine hands to one table (W_x, R_x and hR_x in the
 * optimized engine's variable table, L_l in its lock table).
 *
 * Exactness. The table is a representation change, not an approximation:
 * after every operation, the abstract vector an entry denotes equals the
 * one a plain VectorClock would hold (enforced by the model fuzz in
 * tests/adaptive_clock_test.cpp). The O(1) fast paths rely on callers
 * passing a *purity* bit for source clocks — "this clock equals
 * bot[c[t]/t]" — that must be sound (may be conservatively false, never
 * wrongly true).
 *
 * Shared rows. A flush of one source clock into many bottom entries
 * (join_shared / join_except_shared: opt's end-event stale flushes)
 * points the 2nd and later entries at the first one's row instead of
 * copying it. Only shared rows carry a reference count, in a side
 * table. A shared row is immutable: every in-place mutation first
 * copies it (copy-on-write, own_row), and the last referent takes the
 * row over instead. Reclamation frees a row at its last referent.
 * Promotion stays one-way per entry: a sharer is inflated, and a copy
 * only moves it to a private row.
 *
 * There is one configuration: epochs and update windows are always on.
 * The independent references are Algorithm 1 on plain VectorClocks
 * (aerodrome-basic), the offline oracle and the table-level model fuzz.
 */

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/counter.hpp"
#include "trace/event.hpp"
#include "vc/clock_bank.hpp"
#include "vc/epoch.hpp"
#include "vc/gc.hpp"
#include "vc/zeroed_storage.hpp"

namespace aero {

/** Counters for the evaluation harness and the runner's report.
 *  Single-writer relaxed atomics (support/counter.hpp): safe to read
 *  from another thread while the owning engine keeps counting. */
struct AdaptiveClockStats {
    /** Operations resolved in O(1): the entry stayed (or was read as) an
     *  epoch, or a pure source reduced the update to one component of an
     *  inflated row. The "fast path carried it" count. */
    RelaxedCounter epoch_fast;
    /** O(dim) operations on inflated entries (the bank slow path). */
    RelaxedCounter vector_ops;
    /** Entries promoted epoch -> arena row. */
    RelaxedCounter inflations;
    /** Codes enrolled into a thread's update window (unique per
     *  (code, open window); see open_update_window). */
    RelaxedCounter upd_enrolled;
    /** Dead entries reset to bottom by gc_reclaim (README,
     *  "Reclamation"). */
    RelaxedCounter gc_reclaimed;
    /** Arena rows returned to the row free-list by gc_reclaim. */
    RelaxedCounter gc_rows_freed;
    /** Inflations that took an existing (shared) row instead of a fresh
     *  one; also counted in `inflations`. */
    RelaxedCounter rows_shared;
};

/**
 * Join `src` (the clock of thread `src_thread`, pure iff `src_pure`) into
 * `dst` (the clock of thread `dst_thread`), maintaining dst's purity flag.
 * This is the engines' C_t := C_t |_| clk step with the O(1) pure-source
 * fast path.
 */
inline void
join_qualified(ClockRef dst, ThreadId dst_thread, uint8_t& dst_pure,
               ConstClockRef src, ThreadId src_thread, bool src_pure)
{
    if (src_pure) {
        // src == bot[v/src_thread]: a one-component join.
        ClockValue v = src.get(src_thread);
        if (v > dst.get(src_thread)) {
            dst.set(src_thread, v);
            if (src_thread != dst_thread)
                dst_pure = 0;
        }
        return;
    }
    if (dst.data() == src.data())
        return; // self-join is the identity
    if (dst_pure && src.is_bottom())
        return; // joining bottom preserves purity
    dst.join(src);
    dst_pure = 0; // conservative: src may have foreign components
}

/** A family of epoch-adaptive clocks sharing one inflation arena. */
class AdaptiveClockTable {
public:
    size_t size() const { return entries_.size(); }
    size_t dim() const { return arena_.dim(); }

    /** Append one bottom entry; returns its index. */
    uint32_t
    add_entry()
    {
        entries_.resize(entries_.size() + 1);
        return static_cast<uint32_t>(entries_.size() - 1);
    }

    /** Append n bottom entries with consecutive indices. The zero word
     *  is the bottom epoch, so a whole id range costs no write: its
     *  pages are first touched by the operations on them. */
    void add_entries(size_t n) { entries_.resize(entries_.size() + n); }

    /** Grow the arena clock dimension (threads seen; engines keep all
     *  their banks and tables at one shared dimension). */
    void ensure_dim(size_t d) { arena_.ensure_dim(d); }

    // --- Per-thread update windows (Algorithm 3's update sets, lifted to
    // --- table entries) -----------------------------------------------------
    //
    // A window tracks, for one thread t with an active transaction, every
    // clock whose end-event gate `cb_t(t) <= clock(t)` can possibly fire.
    // The gate value cb_t(t) is minted fresh by the tick at t's outermost
    // begin, so no clock can satisfy the gate when the window opens; a
    // clock can only come to satisfy it through a later assign/join whose
    // *source clock* already carries component t at or above the gate —
    // which is exactly when enroll() puts the clock's window code into
    // the window. Window sweeps at end events may therefore visit only
    // the enrolled codes instead of every clock; enrollment is an
    // over-approximation (assign can lower a component again), so sweeps
    // still apply the real gate. Gate values are frozen for the life of
    // a transaction.
    //
    // A window code is a 32-bit number the engine decodes. assign and
    // join enroll their own entry index; join_except enrolls nothing (its
    // caller pairs it with a join of the same source into a partner
    // entry, which enrolls for both). An engine may enroll codes that
    // name clocks kept outside the table, through enroll(), as long as
    // they never collide with the indices of entries that assign or join
    // touch: AeroDromeOpt's L_l rides code 3l+2, the index of an hR_x.

    /**
     * Open thread t's window with gate `gate` (= cb_t(t) right after the
     * outermost begin, so at least 1), clearing any previous enrollment.
     */
    void
    open_update_window(ThreadId t, ClockValue gate)
    {
        assert(gate != 0);
        if (t >= upd_.size()) {
            upd_.resize(t + 1);
            upd_gate_.resize(t + 1, 0);
        }
        close_update_window(t);
        upd_gate_[t] = gate;
        open_windows_.push_back(t);
    }

    /** Stop enrolling into t's window but keep its entries readable —
     *  called at the top of an end sweep so the sweep's own joins no
     *  longer append to the list being iterated. */
    void
    seal_update_window(ThreadId t)
    {
        if (t < upd_gate_.size() && upd_gate_[t] != 0) {
            upd_gate_[t] = 0;
            for (size_t k = 0; k < open_windows_.size(); ++k) {
                if (open_windows_[k] == t) {
                    open_windows_[k] = open_windows_.back();
                    open_windows_.pop_back();
                    break;
                }
            }
        }
    }

    /** Drop t's window entirely (after its end sweep). */
    void
    close_update_window(ThreadId t)
    {
        if (t >= upd_.size())
            return;
        seal_update_window(t);
        UpdWindow& w = upd_[t];
        for (uint32_t i : w.list)
            w.member[i >> 6] &= ~(uint64_t{1} << (i & 63));
        w.list.clear();
    }

    /**
     * Enroll window code i into the window of every thread u whose gate
     * the mutation `clock_i op= c` could make fireable: c's component u
     * is at or above u's gate. assign and join call it for their own
     * entry; an engine calls it for a clock it keeps outside the table
     * under code i. A pure source (c == bot[v/t]) carries only component
     * t, so only t's window needs the test.
     */
    void
    enroll(size_t i, ConstClockRef c, ThreadId t, bool c_pure)
    {
        if (c_pure) {
            if (t < upd_gate_.size()) {
                ClockValue g = upd_gate_[t];
                if (g != 0 && c.get(t) >= g)
                    enroll_into(t, static_cast<uint32_t>(i));
            }
            return;
        }
        for (uint32_t u : open_windows_) {
            if (c.get(u) >= upd_gate_[u])
                enroll_into(u, static_cast<uint32_t>(i));
        }
    }

    /** Enroll entry i into t's open window without touching the entry:
     *  for a deferred (lazy) update of i that some later flush applies.
     *  No-op when t has no open window. */
    void
    enroll_pending(size_t i, ThreadId t)
    {
        if (t < upd_gate_.size() && upd_gate_[t] != 0)
            enroll_into(t, static_cast<uint32_t>(i));
    }

    /** The codes enrolled in t's window (valid while sealed, until
     *  close_update_window). Unordered; duplicates never occur. t's
     *  window must have been opened. */
    const std::vector<uint32_t>&
    update_entries(ThreadId t) const
    {
        assert(t < upd_.size());
        return upd_[t].list;
    }

    bool
    is_inflated(size_t i) const
    {
        return (entries_[i] & kInflatedTag) != 0;
    }

    /** True iff entry i points at a shared (counted, copy-on-write)
     *  arena row. */
    bool
    is_shared(size_t i) const
    {
        return (entries_[i] & (kInflatedTag | kSharedTag)) ==
               (kInflatedTag | kSharedTag);
    }

    /** The entry as an epoch; valid iff !is_inflated(i). */
    Epoch
    epoch_at(size_t i) const
    {
        assert(!is_inflated(i));
        return Epoch::from_bits(entries_[i]);
    }

    /** The entry's arena row; valid iff is_inflated(i). Invalidated by
     *  any operation that may inflate another entry. */
    ConstClockRef
    row_at(size_t i) const
    {
        assert(is_inflated(i));
        return arena_[entries_[i] & kRowMask];
    }

    /** Component t of entry i. O(1) for both representations. */
    ClockValue
    get(size_t i, size_t t) const
    {
        uint64_t bits = entries_[i];
        if (bits & kInflatedTag)
            return arena_[bits & kRowMask].get(t);
        return Epoch::from_bits(bits).get(t);
    }

    bool
    is_bottom(size_t i) const
    {
        uint64_t bits = entries_[i];
        if (bits & kInflatedTag)
            return arena_[bits & kRowMask].is_bottom();
        return Epoch::from_bits(bits).is_bottom();
    }

    /** entry_i := c, where c is thread t's clock (pure iff c_pure). */
    void
    assign(size_t i, ConstClockRef c, ThreadId t, bool c_pure)
    {
        if (!open_windows_.empty())
            enroll(i, c, t, c_pure);
        if (c_pure && !is_inflated(i)) {
            entries_[i] = Epoch(c.get(t), t).bits();
            ++stats_.epoch_fast;
            return;
        }
        assign_slow(i, c, t, c_pure);
    }

    /** entry_i := entry_i |_| c. */
    void
    join(size_t i, ConstClockRef c, ThreadId t, bool c_pure)
    {
        if (!open_windows_.empty())
            enroll(i, c, t, c_pure);
        uint64_t bits = entries_[i];
        if (c_pure) {
            ClockValue v = c.get(t);
            if (bits & kInflatedTag) {
                // One-component join into the existing row.
                if (v > arena_[bits & kRowMask].get(t))
                    own_row(i, /*copy_contents=*/true).set(t, v);
                ++stats_.epoch_fast;
                return;
            }
            Epoch e = Epoch::from_bits(bits);
            if (e.is_bottom() || e.thread() == t) {
                ClockValue cur = e.thread() == t ? e.value() : 0;
                entries_[i] = Epoch(v > cur ? v : cur, t).bits();
                ++stats_.epoch_fast;
                return;
            }
            if (v == 0) {
                ++stats_.epoch_fast;
                return; // joining bottom
            }
        }
        join_slow(i, c, t, c_pure);
    }

    /** entry_i := entry_i |_| c[0/t] (the hR_x update). A pure source is
     *  a complete no-op: bot[v/t] with component t zeroed is bottom.
     *  Enrolls nothing: every hR_x update comes with an R_x update from
     *  the same clock, whose enrollment and gate drive both. */
    void
    join_except(size_t i, ConstClockRef c, ThreadId t, bool c_pure)
    {
        if (c_pure) {
            ++stats_.epoch_fast;
            return;
        }
        join_except_slow(i, c, t);
    }

    /**
     * One source clock's flushes into bottom entries, as a batch. The
     * first join_shared (join_except_shared) of an impure c into a bottom
     * entry inflates a fresh row holding c (c[0/t]); the 2nd and later
     * ones point their entry at that row. Use one RowShare per source
     * and per operation; it is valid while c and t stay the same and no
     * entry it has served is mutated or reclaimed (one end's window
     * walk, where each entry is touched once).
     */
    class RowShare {
        friend class AdaptiveClockTable;
        static constexpr size_t kNoRow = SIZE_MAX;
        size_t row = kNoRow;
        size_t owner = 0;          ///< the entry that inflated `row`
        uint32_t* refs = nullptr;  ///< row's count, once shared
    };

    /** join(i, c, t, c_pure), sharing the row of `s`'s first copy. */
    void
    join_shared(size_t i, ConstClockRef c, ThreadId t, bool c_pure,
                RowShare& s)
    {
        flush_shared(i, c, t, c_pure, s, /*zero_t=*/false);
    }

    /** join_except(i, c, t, c_pure), sharing the row of `s`'s first
     *  copy. */
    void
    join_except_shared(size_t i, ConstClockRef c, ThreadId t, bool c_pure,
                       RowShare& s)
    {
        flush_shared(i, c, t, c_pure, s, /*zero_t=*/true);
    }

    /** dst := dst |_| entry_i, maintaining dst's purity flag (dst is the
     *  clock of dst_thread). The engines' C_t |_|= W_x / R_x step. */
    void
    join_into(ClockRef dst, size_t i, ThreadId dst_thread, uint8_t& dst_pure)
    {
        uint64_t bits = entries_[i];
        if (!(bits & kInflatedTag)) {
            Epoch e = Epoch::from_bits(bits);
            if (e.is_bottom())
                return; // joining bottom: no work, no accounting
            if (e.value() > dst.get(e.thread())) {
                dst.set(e.thread(), e.value());
                if (e.thread() != dst_thread)
                    dst_pure = 0;
            }
            ++stats_.epoch_fast;
            return;
        }
        ConstClockRef row = arena_[bits & kRowMask];
        ++stats_.vector_ops;
        if (dst_pure && row.is_bottom())
            return;
        dst.join(row);
        dst_pure = 0;
    }

    /** Materialise entry i as a scalar VectorClock (tests, reports). */
    VectorClock
    to_vector_clock(size_t i) const
    {
        if (is_inflated(i))
            return row_at(i).to_vector_clock();
        return epoch_at(i).to_vector_clock();
    }

    // --- Reclamation (gc) ---------------------------------------------------
    //
    // The frontier argument is the live-thread minimum of vc/gc.hpp. An
    // entry strictly below it at every non-bottom component can never
    // fire a gate again and every live clock already strictly dominates
    // it (its future joins are no-ops), so resetting it to bottom is
    // invisible to verdicts — see src/vc/README.md, "Reclamation". This
    // is the one sanctioned exception to one-way promotion: a reclaimed
    // inflated entry demotes to the bottom *epoch* word, and its arena
    // row joins a free-list that inflate() drains before growing the
    // arena. A row is freed at its last referent: reclaiming one sharer
    // of a shared row only drops its count.

    /** True iff entry i can never fire a gate again under frontier f.
     *  Bottom epoch entries report false (nothing to reclaim); bottom
     *  arena rows report true (the row itself is reclaimable). */
    bool
    gc_dead(size_t i, const GcFrontier& f) const
    {
        uint64_t bits = entries_[i];
        if (bits & kInflatedTag)
            return f.dead_row(arena_[bits & kRowMask]);
        Epoch e = Epoch::from_bits(bits);
        return !e.is_bottom() && f.dead_component(e.thread(), e.value());
    }

    /** Reset dead entry i to bottom in place, returning its arena row
     *  (if any) to the row free-list. The caller must have established
     *  deadness via gc_dead. */
    void
    gc_reclaim(size_t i)
    {
        uint64_t bits = entries_[i];
        if ((bits & kInflatedTag) && drop_ref(bits)) {
            size_t r = bits & kRowMask;
            arena_[r].clear();
            free_rows_.push_back(r);
            ++stats_.gc_rows_freed;
        }
        entries_[i] = 0;
        ++stats_.gc_reclaimed;
    }

    /** Sweep the whole table against f, reclaiming every dead entry in
     *  place. Returns the number of live (non-bottom) entries left.
     *  Bottom entries are the zero word, so a group of eight whose OR is
     *  zero is stepped over without a deadness test. */
    size_t
    gc_sweep(const GcFrontier& f)
    {
        size_t live = 0;
        const size_t n = entries_.size();
        const uint64_t* w = entries_.data();
        size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            if ((w[i] | w[i + 1] | w[i + 2] | w[i + 3] | w[i + 4] |
                 w[i + 5] | w[i + 6] | w[i + 7]) == 0)
                continue; // eight bottom entries
            for (size_t j = i; j < i + 8; ++j)
                live += gc_sweep_entry(j, f);
        }
        for (; i < n; ++i)
            live += gc_sweep_entry(i, f);
        return live;
    }

    /** Arena rows currently backing inflated entries (total rows ever
     *  allocated minus the free-list) — the gc pressure signal. */
    size_t arena_rows_live() const { return arena_rows_ - free_rows_.size(); }

    /** Debug invariant (O(entries), tests): every shared row's count
     *  equals its tagged referents, every untagged row has exactly one
     *  referent and no count, and no free-list row is referenced. */
    bool rows_consistent() const;

    const AdaptiveClockStats& stats() const { return stats_; }

    /** The inflation arena (tests, benchmarks). */
    const ClockBank& arena() const { return arena_; }
    size_t arena_rows() const { return arena_rows_; }

    /** Bytes held by the entry words, the inflation arena and the
     *  update-window bookkeeping (memory accounting). */
    size_t
    memory_bytes() const
    {
        size_t n = entries_.memory_bytes() +
                   arena_.memory_bytes() +
                   upd_gate_.capacity() * sizeof(ClockValue) +
                   open_windows_.capacity() * sizeof(uint32_t) +
                   free_rows_.capacity() * sizeof(size_t) +
                   shared_refs_.bucket_count() * sizeof(void*) +
                   shared_refs_.size() *
                       (sizeof(size_t) + sizeof(uint32_t) + 2 * sizeof(void*));
        for (const UpdWindow& w : upd_) {
            n += sizeof(UpdWindow) + w.list.capacity() * sizeof(uint32_t) +
                 w.member.memory_bytes();
        }
        return n;
    }

private:
    static constexpr uint64_t kInflatedTag = uint64_t{1} << 63;
    /** On inflated entries only: the row is shared (counted in
     *  shared_refs_). On epochs bit 62 is part of the thread field. */
    static constexpr uint64_t kSharedTag = uint64_t{1} << 62;
    static constexpr uint64_t kRowMask = kSharedTag - 1;

    /** One entry of gc_sweep: 1 if it is left live, else 0. */
    size_t
    gc_sweep_entry(size_t i, const GcFrontier& f)
    {
        if (entries_[i] == 0)
            return 0; // already bottom
        if (gc_dead(i, f)) {
            gc_reclaim(i);
            return 0;
        }
        return 1;
    }

    /** One thread's update window: enrolled codes as a list plus a
     *  membership bitset (bit i of word i / 64, sized by the highest
     *  code enrolled) for O(1) dedup. The bitset reads zero as "not a
     *  member", so a window that enrolls a high code writes only the
     *  word it sets. */
    struct UpdWindow {
        std::vector<uint32_t> list;
        ZeroedArray<uint64_t> member;
    };

    void
    enroll_into(ThreadId u, uint32_t i)
    {
        UpdWindow& w = upd_[u];
        const size_t word = i >> 6;
        const uint64_t bit = uint64_t{1} << (i & 63);
        if (word >= w.member.size())
            grow_member(w, word);
        if (!(w.member[word] & bit)) {
            w.member[word] |= bit;
            w.list.push_back(i);
            ++stats_.upd_enrolled;
        }
    }

    /** Give w's bitset word `word`. Out of line, so enroll_into's
     *  inlined fast path carries no resize. */
    static void grow_member(UpdWindow& w, size_t word);

    /** Inflated entry i's row, ready for an in-place write: a shared
     *  row is first made private (copy-on-write; its old contents are
     *  copied iff copy_contents). */
    ClockRef
    own_row(size_t i, bool copy_contents)
    {
        const uint64_t bits = entries_[i];
        if (bits & kSharedTag)
            return unshare(i, copy_contents);
        return arena_[bits & kRowMask];
    }

    ClockRef unshare(size_t i, bool copy_contents);

    /** Drop one referent of inflated word `bits`'s row; true iff that
     *  was the last one (the row may be freed). */
    bool
    drop_ref(uint64_t bits)
    {
        if (!(bits & kSharedTag))
            return true;
        auto it = shared_refs_.find(bits & kRowMask);
        assert(it != shared_refs_.end() && it->second > 0);
        if (--it->second != 0)
            return false;
        shared_refs_.erase(it);
        return true;
    }

    /** join (zero_t: join_except) of c into entry i. A bottom entry and
     *  an impure c make the result a copy of c (c[0/t]): it takes s's
     *  row if s has one, else it becomes s's row. */
    void
    flush_shared(size_t i, ConstClockRef c, ThreadId t, bool c_pure,
                 RowShare& s, bool zero_t)
    {
        const bool copy = !c_pure && entries_[i] == 0;
        if (copy && share_row(i, s)) {
            if (!zero_t && !open_windows_.empty())
                enroll(i, c, t, /*c_pure=*/false);
            ++stats_.vector_ops;
            return;
        }
        if (zero_t)
            join_except(i, c, t, c_pure);
        else
            join(i, c, t, c_pure);
        if (copy && is_inflated(i)) {
            s.row = entries_[i] & kRowMask;
            s.owner = i;
            s.refs = nullptr;
        }
    }

    /** Point bottom entry i at s's row; false when s has none (or its
     *  first owner has since moved off it). */
    bool share_row(size_t i, RowShare& s);

    /** A bottom row: off the free-list, else a fresh arena row. */
    size_t alloc_row();

    /** Promote entry i into a fresh (bottom) arena row; copies the old
     *  epoch's contents iff copy_contents. */
    ClockRef inflate(size_t i, bool copy_contents);

    void assign_slow(size_t i, ConstClockRef c, ThreadId t, bool c_pure);
    void join_slow(size_t i, ConstClockRef c, ThreadId t, bool c_pure);
    void join_except_slow(size_t i, ConstClockRef c, ThreadId t);

    ZeroedArray<uint64_t> entries_;
    ClockBank arena_;
    size_t arena_rows_ = 0;
    /** Arena rows freed by gc_reclaim, drained by inflate() before the
     *  arena grows; rows on the list are bottom. */
    std::vector<size_t> free_rows_;
    /** Reference counts of shared rows only (row -> tagged referents).
     *  Node-based, so a RowShare may hold a pointer to its count. */
    std::unordered_map<size_t, uint32_t> shared_refs_;
    /** Window per thread; upd_gate_[t] != 0 iff t's window is open (still
     *  enrolling); open_windows_ lists exactly those threads. */
    std::vector<UpdWindow> upd_;
    std::vector<ClockValue> upd_gate_;
    std::vector<uint32_t> open_windows_;
    AdaptiveClockStats stats_;
};

} // namespace aero
