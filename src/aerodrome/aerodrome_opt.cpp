#include "aerodrome/aerodrome_opt.hpp"

#include <algorithm>

namespace aero {

AeroDromeOpt::AeroDromeOpt(uint32_t num_threads, uint32_t num_vars,
                           uint32_t num_locks)
    : txns_(num_threads)
{
    grow_dim(num_threads);
    c_.ensure_rows(num_threads);
    cb_.ensure_rows(num_threads);
    c_pure_.assign(num_threads, 1);
    for (uint32_t t = 0; t < num_threads; ++t)
        c_[t].set(t, 1);
    upd_r_.resize(num_threads);
    upd_w_.resize(num_threads);
    parent_thread_.assign(num_threads, kNoThread);
    parent_txn_seq_.assign(num_threads, 0);
    if (num_vars > 0)
        ensure_var(num_vars - 1);
    if (num_locks > 0)
        ensure_lock(num_locks - 1);
}

void
AeroDromeOpt::reserve(uint32_t threads, uint32_t vars, uint32_t locks)
{
    // With gc on the hint counts external tids; rows are recycled slots.
    if (threads > 0 && !gc_)
        ensure_thread(threads - 1);
    if (vars > 0)
        ensure_var(vars - 1);
    if (locks > 0)
        ensure_lock(locks - 1);
}

void
AeroDromeOpt::grow_dim(size_t n)
{
    c_.ensure_dim(n);
    cb_.ensure_dim(n);
    tbl_.ensure_dim(n);
}

void
AeroDromeOpt::ensure_thread(ThreadId t)
{
    if (t >= c_.rows()) {
        size_t old = c_.rows();
        size_t n = t + 1;
        grow_dim(n);
        c_.ensure_rows(n);
        cb_.ensure_rows(n);
        c_pure_.resize(n, 1);
        upd_r_.resize(n);
        upd_w_.resize(n);
        parent_thread_.resize(n, kNoThread);
        parent_txn_seq_.resize(n, 0);
        for (size_t u = old; u < n; ++u)
            c_[u].set(u, 1);
        txns_.ensure(static_cast<uint32_t>(n));
    }
}

void
AeroDromeOpt::ensure_var(VarId x)
{
    while (x >= var_base_.size()) {
        uint32_t base = tbl_.add_entry(); // W_x
        tbl_.add_entry();                 // R_x
        tbl_.add_entry();                 // hR_x
        var_base_.push_back(base);
        last_w_thr_.push_back(kNoThread);
        stale_write_.push_back(0);
        stale_readers_.emplace_back();
    }
}

void
AeroDromeOpt::ensure_lock(LockId l)
{
    while (l >= lock_slot_.size()) {
        lock_slot_.push_back(tbl_.add_entry());
        last_rel_thr_.push_back(kNoThread);
    }
}

bool
AeroDromeOpt::check_and_get_entry(size_t slot, ThreadId t, size_t index,
                                  const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t) && begin_before(t, tbl_.get(slot, t)))
        return report(index, rid(t), reason);
    ++stats_.joins;
    tbl_.join_into(c_[t], slot, t, c_pure_[t]);
    return false;
}

bool
AeroDromeOpt::check_and_get_entry2(size_t check_slot, size_t join_slot,
                                   ThreadId t, size_t index,
                                   const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t) && begin_before(t, tbl_.get(check_slot, t)))
        return report(index, rid(t), reason);
    ++stats_.joins;
    tbl_.join_into(c_[t], join_slot, t, c_pure_[t]);
    return false;
}

bool
AeroDromeOpt::check_and_get_clock(ConstClockRef clk, ThreadId src,
                                  bool src_pure, ThreadId t, size_t index,
                                  const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t) && begin_before(t, clk.get(t)))
        return report(index, rid(t), reason);
    ++stats_.joins;
    join_qualified(c_[t], t, c_pure_[t], clk, src, src_pure);
    return false;
}

bool
AeroDromeOpt::has_incoming_edge(ThreadId t) const
{
    // "parentTr is alive": the transaction that forked this thread is still
    // active, so the fork edge into every transaction of this thread may
    // yet participate in a cycle.
    ThreadId p = parent_thread_[t];
    if (p != kNoThread && parent_txn_seq_[t] != 0 && txns_.active(p) &&
        txns_.seq(p) == parent_txn_seq_[t]) {
        return true;
    }
    // Did C_t grow beyond C_t^b in any foreign component, i.e. did this
    // transaction receive an ordering from elsewhere since begin?
    ConstClockRef ct = c_[t];
    ConstClockRef cbt = cb_[t];
    for (size_t u = 0; u < ct.dim(); ++u) {
        if (u != t && ct.get(u) != cbt.get(u))
            return true;
    }
    // Transit-ancestry guard. The literal check above (the paper's
    // C_t^b[0/t] != C_t[0/t]) only sees orderings received *during* the
    // transaction, but skipping the propagation also drops orderings the
    // thread absorbed *before* the begin and that later readers would
    // inherit through this transaction's accesses (program-order transit:
    // P -> T -> future-reader). That transit chain can only close a cycle
    // through a transaction that was already active when T ended (a
    // completed transaction's incoming edges are final), and any such
    // candidate's begin clock is necessarily contained in C_t^b. So the
    // fast path stays sound-and-complete if we propagate whenever some
    // *other still-active* transaction's begin is visible in C_t^b.
    for (ThreadId u = 0; u < c_.rows(); ++u) {
        if (u != t && txns_.active(u) && cb_[u].get(u) > 0 &&
            cb_[u].get(u) <= cbt.get(u)) {
            return true;
        }
    }
    return false;
}

void
AeroDromeOpt::flush_stale_readers(VarId x)
{
    const size_t base = var_base_[x];
    for (ThreadId u : stale_readers_[x]) {
        stats_.joins += 2;
        const bool pure = pure_of(u);
        tbl_.join(base + 1, c_[u], u, pure);        // R_x
        tbl_.join_except(base + 2, c_[u], u, pure); // hR_x
    }
    stale_readers_[x].clear();
}

void
AeroDromeOpt::enroll_update_sets(ThreadId t, VarId x, bool is_write)
{
    // Enroll x with every thread whose active transaction is ordered
    // before the current access: those transactions must push their final
    // timestamps into R_x/W_x when they complete (Algorithm 3, lines 34-36
    // and 50-52). The one-component test keeps this O(|Thr|).
    auto& sets = is_write ? upd_w_ : upd_r_;
    for (ThreadId u = 0; u < c_.rows(); ++u) {
        if (txns_.active(u) && cb_[u].get(u) <= c_[t].get(u))
            sets[u].insert(x);
    }
}

bool
AeroDromeOpt::handle_end(ThreadId t, size_t index)
{
    if (!has_incoming_edge(t)) {
        // Garbage-collected end: this transaction can never lie on a
        // cycle, so skip the propagation entirely and only tidy the lazy
        // bookkeeping (Algorithm 3, lines 75-86).
        ++opt_stats_.gc_skipped_ends;
        for (VarId x : upd_r_[t].list) {
            auto& sr = stale_readers_[x];
            sr.erase(std::remove(sr.begin(), sr.end(), t), sr.end());
        }
        upd_r_[t].clear();
        for (VarId x : upd_w_[t].list) {
            if (last_w_thr_[x] == t) {
                stale_write_[x] = 0;
                last_w_thr_[x] = kNoThread;
            }
        }
        upd_w_[t].clear();
        for (LockId l = 0; l < last_rel_thr_.size(); ++l) {
            if (last_rel_thr_[l] == t)
                last_rel_thr_[l] = kNoThread;
        }
        return false;
    }

    ++opt_stats_.propagated_ends;
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
    for (size_t l = 0; l < lock_slot_.size(); ++l) {
        ++stats_.comparisons;
        if (cbt_t <= tbl_.get(lock_slot_[l], t)) {
            ++stats_.joins;
            tbl_.join(lock_slot_[l], ct, t, ct_pure);
        }
    }
    for (VarId x : upd_w_[t].list) {
        // If another thread's *stale* write supersedes ours, skip: future
        // readers will pick the ordering up from that thread's live clock
        // (which already absorbed C_t via the thread loop above).
        if (!stale_write_[x] || last_w_thr_[x] == t) {
            ++stats_.joins;
            tbl_.join(var_base_[x], ct, t, ct_pure);
        }
        if (last_w_thr_[x] == t)
            stale_write_[x] = 0;
    }
    upd_w_[t].clear();
    for (VarId x : upd_r_[t].list) {
        stats_.joins += 2;
        const size_t base = var_base_[x];
        tbl_.join(base + 1, ct, t, ct_pure);
        tbl_.join_except(base + 2, ct, t, ct_pure);
        auto& sr = stale_readers_[x];
        sr.erase(std::remove(sr.begin(), sr.end(), t), sr.end());
    }
    upd_r_[t].clear();
    return false;
}

bool
AeroDromeOpt::process(const Event& e, size_t index)
{
    ThreadId t = e.tid;
    ThreadId target = e.target;
    if (gc_) {
        // Rows are recycled slots: translate the actor and, for the two
        // thread-target ops, the target through the slot map.
        t = slot_of(e.tid);
        if (e.op == Op::kFork || e.op == Op::kJoin)
            target = slot_of(e.target);
    } else {
        ensure_thread(t);
    }

    switch (e.op) {
      case Op::kBegin:
        if (txns_.on_begin(t)) {
            c_[t].tick(t); // purity preserved
            cb_[t].assign(c_[t]);
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
        parent_thread_[target] = t;
        parent_txn_seq_[target] = txns_.active(t) ? txns_.seq(t) : 0;
        return false;

      case Op::kJoin: {
        ensure_thread(target);
        if (check_and_get_clock(c_[target], target, pure_of(target), t,
                                index, "join saw child's events")) {
            return true;
        }
        if (gc_ && target != t)
            retire_slot(target);
        return false;
      }

      case Op::kRead: {
        const VarId x = target;
        ensure_var(x);
        const size_t base = var_base_[x];
        if (last_w_thr_[x] != t) {
            bool v;
            if (stale_write_[x]) {
                ThreadId lw = last_w_thr_[x];
                v = check_and_get_clock(c_[lw], lw, pure_of(lw), t,
                                        index,
                                        "read saw conflicting write");
            } else {
                v = check_and_get_entry(base, t, index,
                                        "read saw conflicting write");
            }
            if (v)
                return true;
        }
        if (txns_.active(t)) {
            // Lazy: defer the R_x/hR_x update to the next write of x or to
            // our transaction end.
            auto& sr = stale_readers_[x];
            if (std::find(sr.begin(), sr.end(), t) == sr.end())
                sr.push_back(t);
            ++opt_stats_.lazy_reads;
        } else {
            // Unary read: its transaction completes now; flush eagerly so
            // the live-clock proxy is never applied to a finished
            // transaction.
            stats_.joins += 2;
            const bool pure = pure_of(t);
            tbl_.join(base + 1, c_[t], t, pure);
            tbl_.join_except(base + 2, c_[t], t, pure);
        }
        enroll_update_sets(t, x, /*is_write=*/false);
        return false;
      }

      case Op::kWrite: {
        const VarId x = target;
        ensure_var(x);
        const size_t base = var_base_[x];
        if (last_w_thr_[x] != t) {
            bool v;
            if (stale_write_[x]) {
                ThreadId lw = last_w_thr_[x];
                v = check_and_get_clock(c_[lw], lw, pure_of(lw), t,
                                        index,
                                        "write saw conflicting write");
            } else {
                v = check_and_get_entry(base, t, index,
                                        "write saw conflicting write");
            }
            if (v)
                return true;
        }
        flush_stale_readers(x);
        if (check_and_get_entry2(base + 2, base + 1, t, index,
                                 "write saw conflicting read")) {
            return true;
        }
        if (txns_.active(t)) {
            stale_write_[x] = 1;
            ++opt_stats_.lazy_writes;
        } else {
            stale_write_[x] = 0;
            tbl_.assign(base, c_[t], t, pure_of(t));
        }
        last_w_thr_[x] = t;
        enroll_update_sets(t, x, /*is_write=*/true);
        return false;
      }
    }
    return false;
}

void
AeroDromeOpt::retire_slot(uint32_t s)
{
    if (txns_.active(s))
        return; // ill-formed join mid-transaction: leak the row, stay safe
    // Scrub every cached fact that names this row. The lazy proxies must
    // be materialized/flushed BEFORE the clock reset: they stand in for
    // c_[s], which is about to become the reissue continuation.
    for (VarId x = 0; x < var_base_.size(); ++x) {
        if (last_w_thr_[x] == s) {
            if (stale_write_[x]) {
                // Defensive: a well-formed trace cleared this at s's last
                // end. Materialize W_x from the proxy before it vanishes.
                tbl_.assign(var_base_[x], c_[s], s, pure_of(s));
                stale_write_[x] = 0;
            }
            last_w_thr_[x] = kNoThread;
        }
        auto& sr = stale_readers_[x];
        for (size_t k = 0; k < sr.size(); ++k) {
            if (sr[k] == s) {
                stats_.joins += 2;
                const size_t base = var_base_[x];
                const bool pure = pure_of(s);
                tbl_.join(base + 1, c_[s], s, pure);
                tbl_.join_except(base + 2, c_[s], s, pure);
                sr.erase(sr.begin() + static_cast<ptrdiff_t>(k));
                break;
            }
        }
    }
    for (ThreadId& r : last_rel_thr_) {
        if (r == s)
            r = kNoThread;
    }
    upd_r_[s].clear();
    upd_w_[s].clear();
    parent_thread_[s] = kNoThread;
    parent_txn_seq_[s] = 0;
    const ClockValue v = c_[s].get(s);
    c_[s].clear();
    c_[s].set(s, v + 1);
    cb_[s].clear();
    c_pure_[s] = 1;
    slots_.retire(s);
}

void
AeroDromeOpt::gc_sweep_now()
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
AeroDromeOpt::maybe_gc_sweep()
{
    if (gc_sweep_every_ != 0) {
        if (++gc_ends_ >= gc_sweep_every_)
            gc_sweep_now();
        return;
    }
    const size_t rows = tbl_.arena_rows_live();
    if (rows >= 128 && rows >= 2 * gc_rows_baseline_)
        gc_sweep_now();
}

StatList
AeroDromeOpt::counters() const
{
    const AdaptiveClockStats& es = tbl_.stats();
    return {
        {"joins", stats_.joins},
        {"comparisons", stats_.comparisons},
        {"lazy_reads", opt_stats_.lazy_reads},
        {"lazy_writes", opt_stats_.lazy_writes},
        {"propagated_ends", opt_stats_.propagated_ends},
        {"gc_skipped_ends", opt_stats_.gc_skipped_ends},
        {"epoch_fast_ops", es.epoch_fast},
        {"vector_ops", es.vector_ops},
        {"inflations", es.inflations},
        {"gc_reclaimed", es.gc_reclaimed},
        {"gc_rows_freed", es.gc_rows_freed},
        {"gc_sweeps", gc_sweeps_},
        {"gc_live_entries", gc_live_entries_},
        {"slots_retired", slots_.retired()},
        {"slots_recycled", slots_.recycled()},
    };
}

size_t
AeroDromeOpt::memory_bytes() const
{
    size_t n = c_.memory_bytes() + cb_.memory_bytes() + tbl_.memory_bytes();
    n += (lock_slot_.capacity() + var_base_.capacity()) * sizeof(uint32_t);
    n += c_pure_.capacity() + stale_write_.capacity();
    n += (last_rel_thr_.capacity() + last_w_thr_.capacity() +
          parent_thread_.capacity()) *
         sizeof(ThreadId);
    n += parent_txn_seq_.capacity() * sizeof(uint64_t);
    for (const auto& sr : stale_readers_)
        n += sr.capacity() * sizeof(ThreadId);
    for (const auto* sets : {&upd_r_, &upd_w_}) {
        for (const auto& s : *sets)
            n += s.list.capacity() * sizeof(VarId) + s.member.capacity();
    }
    n += slots_.memory_bytes() + gcf_.memory_bytes() + txns_.memory_bytes();
    return n;
}

} // namespace aero
