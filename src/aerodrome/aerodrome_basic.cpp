#include "aerodrome/aerodrome_basic.hpp"

namespace aero {

AeroDromeBasic::AeroDromeBasic(uint32_t num_threads, uint32_t num_vars,
                               uint32_t num_locks)
    : txns_(num_threads)
{
    grow_dim(num_threads);
    c_.ensure_rows(num_threads);
    cb_.ensure_rows(num_threads);
    c_pure_.assign(num_threads, 1);
    cb_pure_.assign(num_threads, 1);
    for (uint32_t t = 0; t < num_threads; ++t)
        c_[t].set(t, 1); // C_t := bot[1/t]
    if (num_vars > 0)
        ensure_var(num_vars - 1);
    if (num_locks > 0)
        ensure_lock(num_locks - 1);
}

void
AeroDromeBasic::reserve(uint32_t threads, uint32_t vars, uint32_t locks)
{
    // Under gc, rows are slots handed out densely by the slot map;
    // pre-sizing by external tid range would defeat recycling.
    if (threads > 0 && !gc_)
        ensure_thread(threads - 1);
    if (vars > 0)
        ensure_var(vars - 1);
    if (locks > 0)
        ensure_lock(locks - 1);
}

void
AeroDromeBasic::grow_dim(size_t n)
{
    c_.ensure_dim(n);
    cb_.ensure_dim(n);
    tbl_.ensure_dim(n);
}

void
AeroDromeBasic::ensure_thread(ThreadId t)
{
    if (t >= c_.rows()) {
        size_t old = c_.rows();
        size_t n = t + 1;
        grow_dim(n);
        c_.ensure_rows(n);
        cb_.ensure_rows(n);
        c_pure_.resize(n, 1);
        cb_pure_.resize(n, 1);
        for (size_t u = old; u < n; ++u)
            c_[u].set(u, 1);
        txns_.ensure(static_cast<uint32_t>(n));
    }
}

void
AeroDromeBasic::ensure_var(VarId x)
{
    // Only the per-variable bookkeeping is sized by id range; the table
    // entry is allocated by w_slot() on first access.
    while (x >= w_slot_.size()) {
        w_slot_.push_back(kNoSlot);
        r_slot_.emplace_back();
        orphan_r_.emplace_back();
        last_w_thr_.push_back(kNoThread);
    }
}

uint32_t
AeroDromeBasic::w_slot(VarId x)
{
    if (w_slot_[x] == kNoSlot)
        w_slot_[x] = tbl_.add_entry();
    return w_slot_[x];
}

void
AeroDromeBasic::ensure_lock(LockId l)
{
    while (l >= lock_slot_.size()) {
        lock_slot_.push_back(tbl_.add_entry());
        last_rel_thr_.push_back(kNoThread);
    }
}

uint32_t
AeroDromeBasic::reader_slot(VarId x, ThreadId t)
{
    auto& slots = r_slot_[x];
    if (t >= slots.size())
        slots.resize(t + 1, kNoSlot);
    if (slots[t] == kNoSlot)
        slots[t] = tbl_.add_entry_reusable();
    return slots[t];
}

bool
AeroDromeBasic::check_and_get_entry(size_t slot, ThreadId t, size_t index,
                                    const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t) &&
        tbl_.vector_leq_entry(cb_[t], slot, t, begin_pure_of(t)))
        return report(index, rid(t), reason);
    ++stats_.joins;
    tbl_.join_into(c_[t], slot, t, c_pure_[t]);
    return false;
}

bool
AeroDromeBasic::check_and_get_clock(ConstClockRef clk, ThreadId src,
                                    bool src_pure, ThreadId t, size_t index,
                                    const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t)) {
        // C_t^b sqsubseteq clk; O(1) when the begin clock is pure.
        bool ordered = begin_pure_of(t) ? cb_[t].get(t) <= clk.get(t)
                                        : cb_[t].leq(clk);
        if (ordered)
            return report(index, rid(t), reason);
    }
    ++stats_.joins;
    join_qualified(c_[t], t, c_pure_[t], clk, src, src_pure);
    return false;
}

bool
AeroDromeBasic::handle_end(ThreadId t, size_t index)
{
    // Propagate the completed transaction's final timestamp C_t into every
    // clock that is ordered after its begin event (Algorithm 1, lines
    // 38-46): this is what makes the timestamps prefix-relative and lets
    // later events observe paths through this (now completed) transaction.
    ConstClockRef ct = c_[t];
    ConstClockRef cbt = cb_[t];
    const bool ct_pure = pure_of(t);
    const bool cbt_pure = begin_pure_of(t);

    for (ThreadId u = 0; u < c_.rows(); ++u) {
        if (u == t)
            continue;
        ++stats_.comparisons;
        bool ordered = cbt_pure ? cbt.get(t) <= c_[u].get(t)
                                : cbt.leq(c_[u]);
        if (ordered) {
            if (check_and_get_clock(ct, t, ct_pure, u, index,
                                    "active peer ordered into "
                                    "completed transaction")) {
                return true;
            }
        }
    }

    // Fused propagation sweep: Algorithm 1 applies the same gate-and-join
    // to every L_l, W_x and R_{u,x}, and they all live in one adaptive
    // table, so the per-lock and per-variable loops collapse into one
    // homogeneous pass. With update sets tracked, the pass visits only
    // the entries enrolled since this transaction's begin — every entry
    // whose gate could fire is among them — instead of the whole table.
    // The window is sealed first so the sweep's own joins enroll into
    // *other* threads' windows without growing the list being iterated.
    auto sweep = [&](size_t i) {
        ++stats_.comparisons;
        ++stats_.end_swept_entries;
        if (tbl_.vector_leq_entry(cbt, i, t, cbt_pure)) {
            ++stats_.joins;
            tbl_.join(i, ct, t, ct_pure);
        } else {
            ++stats_.end_gate_skipped;
        }
    };
    tbl_.seal_update_window(t);
    if (tbl_.update_window_tracked(t)) {
        for (uint32_t i : tbl_.update_entries(t))
            sweep(i);
    } else {
        const size_t n = tbl_.size();
        for (size_t i = 0; i < n; ++i)
            sweep(i);
    }
    tbl_.close_update_window(t);
    return false;
}

bool
AeroDromeBasic::process(const Event& e, size_t index)
{
    ThreadId t = e.tid;
    ThreadId target = e.target;
    if (gc_) {
        // Rows are recycled slots: translate the actor — and, for the two
        // thread-target ops, the target — through the slot map. All other
        // targets are variable/lock ids and pass through.
        t = slot_of(e.tid);
        if (e.op == Op::kFork || e.op == Op::kJoin)
            target = slot_of(e.target);
    } else {
        ensure_thread(t);
    }

    switch (e.op) {
      case Op::kBegin:
        if (txns_.on_begin(t)) {
            c_[t].tick(t); // purity preserved: the own component grew
            cb_[t].assign(c_[t]);
            cb_pure_[t] = c_pure_[t];
            // The tick minted cb_t(t) fresh: no table entry satisfies the
            // end gate yet, so the window starts provably empty.
            tbl_.open_update_window(t, cb_[t].get(t));
        }
        return false;

      case Op::kEnd:
        if (txns_.on_end(t)) {
            if (handle_end(t, index))
                return true;
            if (gc_)
                maybe_gc_sweep();
        }
        return false;

      case Op::kAcquire: {
        ensure_lock(target);
        if (last_rel_thr_[target] != t) {
            return check_and_get_entry(lock_slot_[target], t, index,
                                       "acquire saw conflicting release");
        }
        return false;
      }

      case Op::kRelease:
        ensure_lock(target);
        tbl_.assign(lock_slot_[target], c_[t], t, pure_of(t));
        last_rel_thr_[target] = t;
        return false;

      case Op::kFork: {
        ensure_thread(target);
        ++stats_.joins;
        join_qualified(c_[target], target, c_pure_[target], c_[t], t,
                       pure_of(t));
        return false;
      }

      case Op::kJoin: {
        ensure_thread(target);
        if (check_and_get_clock(c_[target], target, pure_of(target), t,
                                index, "join saw child's events")) {
            return true;
        }
        // The joined thread is dead: its clock was just absorbed, so its
        // row can be retired for reissue.
        if (gc_ && target != t)
            retire_slot(target);
        return false;
      }

      case Op::kRead: {
        ensure_var(target);
        if (last_w_thr_[target] != t) {
            if (check_and_get_entry(w_slot(target), t, index,
                                    "read saw conflicting write")) {
                return true;
            }
        }
        uint32_t slot = reader_slot(target, t);
        tbl_.assign(slot, c_[t], t, pure_of(t));
        return false;
      }

      case Op::kWrite: {
        ensure_var(target);
        if (last_w_thr_[target] != t) {
            if (check_and_get_entry(w_slot(target), t, index,
                                    "write saw conflicting write")) {
                return true;
            }
        }
        const auto& readers = r_slot_[target];
        for (ThreadId u = 0; u < readers.size(); ++u) {
            if (u == t || readers[u] == kNoSlot)
                continue;
            if (check_and_get_entry(readers[u], t, index,
                                    "write saw conflicting read")) {
                return true;
            }
        }
        // Retired threads' R_{t,x} keep gating writes until proven dead;
        // the retiree can't be the writer, so no own-slot skip applies.
        for (uint32_t i : orphan_r_[target]) {
            if (check_and_get_entry(i, t, index,
                                    "write saw conflicting read")) {
                return true;
            }
        }
        tbl_.assign(w_slot(target), c_[t], t, pure_of(t));
        last_w_thr_[target] = t;
        return false;
      }
    }
    return false;
}

void
AeroDromeBasic::retire_slot(uint32_t s)
{
    if (txns_.active(s))
        return; // ill-formed join mid-transaction: leak the row, stay safe
    // Scrub cached same-owner facts: the reissued thread must not inherit
    // the dead thread's check-skipping rights.
    for (ThreadId& r : last_rel_thr_) {
        if (r == s)
            r = kNoThread;
    }
    for (ThreadId& w : last_w_thr_) {
        if (w == s)
            w = kNoThread;
    }
    // Detach the dead thread's R_{s,x} entries so the reissued thread
    // starts with none. A still-live entry becomes a per-var orphan —
    // writers keep checking it (Algorithm 1 checks every reader of x)
    // until a sweep proves it dead; an already-bottom one (reclaimed by
    // an earlier sweep) hands its index back immediately.
    for (VarId x = 0; x < r_slot_.size(); ++x) {
        auto& slots = r_slot_[x];
        if (s >= slots.size() || slots[s] == kNoSlot)
            continue;
        if (tbl_.is_bottom(slots[s]))
            tbl_.gc_recycle_index(slots[s]);
        else
            orphan_r_[x].push_back(slots[s]);
        slots[s] = kNoSlot;
    }
    // Continue the clock one past every value the dead thread minted, so
    // reissued begin gates exceed every stale epoch still naming this row.
    const ClockValue v = c_[s].get(s);
    c_[s].clear();
    c_[s].set(s, v + 1);
    cb_[s].clear();
    c_pure_[s] = 1;
    cb_pure_[s] = 1;
    tbl_.close_update_window(s);
    slots_.retire(s);
}

void
AeroDromeBasic::gc_sweep_now()
{
    gcf_.reset(c_.dim());
    const std::vector<ThreadId>& bound = slots_.bindings();
    for (uint32_t s = 0; s < bound.size(); ++s) {
        if (bound[s] != kNoThread)
            gcf_.accumulate(c_[s]);
    }
    for (uint32_t s = 0; s < bound.size(); ++s) {
        if (bound[s] != kNoThread && txns_.active(s))
            gcf_.cap_active(s, c_[s].get(s));
    }
    gc_live_entries_ = tbl_.gc_sweep(gcf_);
    // Orphans the sweep reset to bottom can never gate again: drop them
    // from the writers' check lists and recycle their indices.
    for (auto& orphans : orphan_r_) {
        size_t keep = 0;
        for (uint32_t i : orphans) {
            if (tbl_.is_bottom(i))
                tbl_.gc_recycle_index(i);
            else
                orphans[keep++] = i;
        }
        orphans.resize(keep);
    }
    ++gc_sweeps_;
    gc_rows_baseline_ = tbl_.arena_rows_live();
    gc_ends_ = 0;
}

void
AeroDromeBasic::maybe_gc_sweep()
{
    if (gc_sweep_every_ != 0) {
        if (++gc_ends_ >= gc_sweep_every_)
            gc_sweep_now();
        return;
    }
    // Growth trigger: the live arena doubled since the last sweep.
    const size_t rows = tbl_.arena_rows_live();
    if (rows >= 128 && rows >= 2 * gc_rows_baseline_)
        gc_sweep_now();
}

StatList
AeroDromeBasic::counters() const
{
    const AdaptiveClockStats& es = tbl_.stats();
    return {
        {"joins", stats_.joins},
        {"comparisons", stats_.comparisons},
        {"epoch_fast_ops", es.epoch_fast},
        {"vector_ops", es.vector_ops},
        {"inflations", es.inflations},
        {"upd_enrolled", es.upd_enrolled},
        {"end_swept_entries", stats_.end_swept_entries},
        {"end_gate_skipped", stats_.end_gate_skipped},
        {"gc_reclaimed", es.gc_reclaimed},
        {"gc_rows_freed", es.gc_rows_freed},
        {"gc_sweeps", gc_sweeps_},
        {"gc_live_entries", gc_live_entries_},
        {"slots_retired", slots_.retired()},
        {"slots_recycled", slots_.recycled()},
    };
}

size_t
AeroDromeBasic::memory_bytes() const
{
    size_t n = c_.memory_bytes() + cb_.memory_bytes() + tbl_.memory_bytes();
    n += (lock_slot_.capacity() + w_slot_.capacity()) * sizeof(uint32_t);
    for (const auto& slots : r_slot_)
        n += slots.capacity() * sizeof(uint32_t);
    for (const auto& orphans : orphan_r_)
        n += orphans.capacity() * sizeof(uint32_t);
    n += c_pure_.capacity() + cb_pure_.capacity();
    n += (last_rel_thr_.capacity() + last_w_thr_.capacity()) *
         sizeof(ThreadId);
    n += slots_.memory_bytes() + gcf_.memory_bytes() + txns_.memory_bytes();
    return n;
}

} // namespace aero
