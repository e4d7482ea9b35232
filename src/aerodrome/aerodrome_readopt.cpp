#include "aerodrome/aerodrome_readopt.hpp"

namespace aero {

AeroDromeReadOpt::AeroDromeReadOpt(uint32_t num_threads, uint32_t num_vars,
                                   uint32_t num_locks)
    : txns_(num_threads)
{
    grow_dim(num_threads);
    c_.ensure_rows(num_threads);
    cb_.ensure_rows(num_threads);
    c_pure_.assign(num_threads, 1);
    for (uint32_t t = 0; t < num_threads; ++t)
        c_[t].set(t, 1);
    if (num_vars > 0)
        ensure_var(num_vars - 1);
    if (num_locks > 0)
        ensure_lock(num_locks - 1);
}

void
AeroDromeReadOpt::reserve(uint32_t threads, uint32_t vars, uint32_t locks)
{
    // With gc on the hint counts *external* tids (possibly millions on a
    // churning stream) while rows are recycled slots sized by the live
    // thread count — pre-sizing would defeat the recycling.
    if (threads > 0 && !gc_)
        ensure_thread(threads - 1);
    if (vars > 0)
        ensure_var(vars - 1);
    if (locks > 0)
        ensure_lock(locks - 1);
}

void
AeroDromeReadOpt::grow_dim(size_t n)
{
    c_.ensure_dim(n);
    cb_.ensure_dim(n);
    tbl_.ensure_dim(n);
}

void
AeroDromeReadOpt::ensure_thread(ThreadId t)
{
    if (t >= c_.rows()) {
        size_t old = c_.rows();
        size_t n = t + 1;
        grow_dim(n);
        c_.ensure_rows(n);
        cb_.ensure_rows(n);
        c_pure_.resize(n, 1);
        for (size_t u = old; u < n; ++u)
            c_[u].set(u, 1);
        txns_.ensure(static_cast<uint32_t>(n));
    }
}

void
AeroDromeReadOpt::ensure_var(VarId x)
{
    // Only the per-variable bookkeeping is sized by id range; the three
    // table entries are allocated by var_slots() on first access.
    while (x >= var_base_.size()) {
        var_base_.push_back(kNoSlot);
        last_w_thr_.push_back(kNoThread);
    }
}

size_t
AeroDromeReadOpt::var_slots(VarId x)
{
    if (var_base_[x] == kNoSlot) {
        var_base_[x] = add_entry(kWEntry);
        add_entry(kREntry);
        add_entry(kHREntry);
    }
    return var_base_[x];
}

void
AeroDromeReadOpt::ensure_lock(LockId l)
{
    while (l >= lock_slot_.size()) {
        lock_slot_.push_back(add_entry(kLockEntry));
        last_rel_thr_.push_back(kNoThread);
    }
}

bool
AeroDromeReadOpt::check_and_get_entry(size_t slot, ThreadId t, size_t index,
                                      const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t) && cb_[t].get(t) <= tbl_.get(slot, t))
        return report(index, rid(t), reason);
    ++stats_.joins;
    tbl_.join_into(c_[t], slot, t, c_pure_[t]);
    return false;
}

bool
AeroDromeReadOpt::check_and_get_clock(ConstClockRef clk, ThreadId src,
                                      bool src_pure, ThreadId t,
                                      size_t index, const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t) && cb_[t].get(t) <= clk.get(t))
        return report(index, rid(t), reason);
    ++stats_.joins;
    join_qualified(c_[t], t, c_pure_[t], clk, src, src_pure);
    return false;
}

bool
AeroDromeReadOpt::handle_end(ThreadId t, size_t index)
{
    ConstClockRef ct = c_[t];
    const ClockValue cbt_t = cb_[t].get(t);
    const bool ct_pure = pure_of(t);

    for (ThreadId u = 0; u < c_.rows(); ++u) {
        if (u == t)
            continue;
        ++stats_.comparisons;
        if (cbt_t <= c_[u].get(t)) {
            if (check_and_get_clock(ct, t, ct_pure, u, index,
                                    "active peer ordered into completed "
                                    "transaction")) {
                return true;
            }
        }
    }

    // Fused propagation sweep: locks, W_x, R_x and hR_x all live in one
    // adaptive table, so the per-lock and per-variable loops of the
    // original algorithm collapse into a single pass — epoch entries are
    // one-word gates, inflated entries stream through the shared arena.
    // hR_x is driven by its R_x partner (the algorithm gates both updates
    // on R_x, which subsumes hR_x). With update sets tracked the pass
    // visits only the entries enrolled since this transaction's begin —
    // every entry whose gate could fire is among them (the gate tests
    // only the R/W/L entry, so an enrolled hR entry is skipped here like
    // in the full sweep). The window is sealed first so the sweep's own
    // joins enroll into *other* threads' windows without growing the list
    // being iterated; sweep order is immaterial (gates read only their
    // own entry, joins touch distinct entries).
    auto sweep = [&](size_t i) {
        ++stats_.end_swept_entries;
        switch (static_cast<EntryKind>(kinds_[i])) {
          case kLockEntry:
          case kWEntry:
            ++stats_.comparisons;
            if (cbt_t <= tbl_.get(i, t)) {
                ++stats_.joins;
                tbl_.join(i, ct, t, ct_pure);
            } else {
                ++stats_.end_gate_skipped;
            }
            break;
          case kREntry:
            ++stats_.comparisons;
            if (cbt_t <= tbl_.get(i, t)) {
                stats_.joins += 2;
                tbl_.join(i, ct, t, ct_pure);
                tbl_.join_except(i + 1, ct, t, ct_pure);
            } else {
                ++stats_.end_gate_skipped;
            }
            break;
          case kHREntry:
            ++stats_.end_gate_skipped;
            break; // handled with its R_x partner at i - 1
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
AeroDromeReadOpt::process(const Event& e, size_t index)
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

      case Op::kAcquire:
        ensure_lock(target);
        if (last_rel_thr_[target] != t) {
            return check_and_get_entry(lock_slot_[target], t, index,
                                       "acquire saw conflicting release");
        }
        return false;

      case Op::kRelease:
        ensure_lock(target);
        tbl_.assign(lock_slot_[target], c_[t], t, pure_of(t));
        last_rel_thr_[target] = t;
        return false;

      case Op::kFork:
        ensure_thread(target);
        ++stats_.joins;
        join_qualified(c_[target], target, c_pure_[target], c_[t], t,
                       pure_of(t));
        return false;

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
        const VarId x = target;
        ensure_var(x);
        const size_t base = var_slots(x);
        if (last_w_thr_[x] != t) {
            if (check_and_get_entry(base, t, index,
                                    "read saw conflicting write")) {
                return true;
            }
        }
        stats_.joins += 2;
        const bool pure = pure_of(t);
        tbl_.join(base + 1, c_[t], t, pure);        // R_x
        tbl_.join_except(base + 2, c_[t], t, pure); // hR_x
        return false;
      }

      case Op::kWrite: {
        const VarId x = target;
        ensure_var(x);
        const size_t base = var_slots(x);
        if (last_w_thr_[x] != t) {
            if (check_and_get_entry(base, t, index,
                                    "write saw conflicting write")) {
                return true;
            }
        }
        ++stats_.comparisons;
        if (txns_.active(t) && cb_[t].get(t) <= tbl_.get(base + 2, t))
            return report(index, rid(t), "write saw conflicting read");
        ++stats_.joins;
        tbl_.join_into(c_[t], base + 1, t, c_pure_[t]);
        tbl_.assign(base, c_[t], t, pure_of(t));
        last_w_thr_[x] = t;
        return false;
      }
    }
    return false;
}

void
AeroDromeReadOpt::retire_slot(uint32_t s)
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
    // Continue the clock one past every value the dead thread minted, so
    // reissued begin gates exceed every stale epoch still naming this row.
    const ClockValue v = c_[s].get(s);
    c_[s].clear();
    c_[s].set(s, v + 1);
    cb_[s].clear();
    c_pure_[s] = 1;
    tbl_.close_update_window(s);
    slots_.retire(s);
}

void
AeroDromeReadOpt::gc_sweep_now()
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
    ++gc_sweeps_;
    gc_rows_baseline_ = tbl_.arena_rows_live();
    gc_ends_ = 0;
}

void
AeroDromeReadOpt::maybe_gc_sweep()
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
AeroDromeReadOpt::counters() const
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
AeroDromeReadOpt::memory_bytes() const
{
    size_t n = c_.memory_bytes() + cb_.memory_bytes() + tbl_.memory_bytes();
    n += (lock_slot_.capacity() + var_base_.capacity()) * sizeof(uint32_t);
    n += kinds_.capacity() + c_pure_.capacity();
    n += (last_rel_thr_.capacity() + last_w_thr_.capacity()) *
         sizeof(ThreadId);
    n += slots_.memory_bytes() + gcf_.memory_bytes() + txns_.memory_bytes();
    return n;
}

} // namespace aero
