#include "aerodrome/aerodrome_tuned.hpp"

#include <algorithm>

namespace aero {

AeroDromeTuned::AeroDromeTuned(uint32_t num_threads, uint32_t num_vars,
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
    active_pos_.assign(num_threads, kNoActive);
    clock_version_.assign(num_threads, 1);
    if (num_vars > 0)
        ensure_var(num_vars - 1);
    if (num_locks > 0)
        ensure_lock(num_locks - 1);
}

void
AeroDromeTuned::reserve(uint32_t threads, uint32_t vars, uint32_t locks)
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
AeroDromeTuned::grow_dim(size_t n)
{
    c_.ensure_dim(n);
    cb_.ensure_dim(n);
    tbl_.ensure_dim(n);
}

void
AeroDromeTuned::ensure_thread(ThreadId t)
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
        active_pos_.resize(n, kNoActive);
        clock_version_.resize(n, 1);
        for (size_t u = old; u < n; ++u)
            c_[u].set(u, 1);
        txns_.ensure(static_cast<uint32_t>(n));
    }
}

void
AeroDromeTuned::ensure_var(VarId x)
{
    while (x >= var_base_.size()) {
        uint32_t base = tbl_.add_entry(); // W_x
        tbl_.add_entry();                 // R_x
        tbl_.add_entry();                 // hR_x
        var_base_.push_back(base);
        last_w_thr_.push_back(kNoThread);
        stale_write_.push_back(0);
        stale_readers_.emplace_back();
        var_version_.push_back(1);
        last_reader_.push_back(kNoThread);
        last_reader_cv_.push_back(0);
        last_reader_vv_.push_back(0);
        last_writer_cv_.push_back(0);
        last_writer_vv_.push_back(0);
    }
}

void
AeroDromeTuned::ensure_lock(LockId l)
{
    while (l >= lock_slot_.size()) {
        lock_slot_.push_back(tbl_.add_entry());
        last_rel_thr_.push_back(kNoThread);
    }
}

void
AeroDromeTuned::add_active(ThreadId t)
{
    if (active_pos_[t] == kNoActive) {
        active_pos_[t] = static_cast<uint32_t>(active_threads_.size());
        active_threads_.push_back(t);
    }
}

void
AeroDromeTuned::remove_active(ThreadId t)
{
    uint32_t pos = active_pos_[t];
    if (pos == kNoActive)
        return;
    ThreadId moved = active_threads_.back();
    active_threads_[pos] = moved;
    active_pos_[moved] = pos;
    active_threads_.pop_back();
    active_pos_[t] = kNoActive;
}

bool
AeroDromeTuned::check_and_get_entry(size_t slot, ThreadId t, size_t index,
                                    const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t) && begin_before(t, tbl_.get(slot, t)))
        return report(index, rid(t), reason);
    ++stats_.joins;
    tbl_.join_into(c_[t], slot, t, c_pure_[t]);
    bump_clock_version(t);
    return false;
}

bool
AeroDromeTuned::check_and_get_entry2(size_t check_slot, size_t join_slot,
                                     ThreadId t, size_t index,
                                     const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t) && begin_before(t, tbl_.get(check_slot, t)))
        return report(index, rid(t), reason);
    ++stats_.joins;
    tbl_.join_into(c_[t], join_slot, t, c_pure_[t]);
    bump_clock_version(t);
    return false;
}

bool
AeroDromeTuned::check_and_get_clock(ConstClockRef clk, ThreadId src,
                                    bool src_pure, ThreadId t, size_t index,
                                    const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t) && begin_before(t, clk.get(t)))
        return report(index, rid(t), reason);
    ++stats_.joins;
    join_qualified(c_[t], t, c_pure_[t], clk, src, src_pure);
    bump_clock_version(t);
    return false;
}

bool
AeroDromeTuned::has_incoming_edge(ThreadId t) const
{
    ThreadId p = parent_thread_[t];
    if (p != kNoThread && parent_txn_seq_[t] != 0 && txns_.active(p) &&
        txns_.seq(p) == parent_txn_seq_[t]) {
        return true;
    }
    ConstClockRef ct = c_[t];
    ConstClockRef cbt = cb_[t];
    for (size_t u = 0; u < ct.dim(); ++u) {
        if (u != t && ct.get(u) != cbt.get(u))
            return true;
    }
    // Transit-ancestry guard (see aerodrome_opt.cpp for the argument):
    // propagate when another still-active transaction's begin is already
    // visible in C_t^b, because dropping this transaction's lazy state
    // would sever a program-order transit chain that active transaction
    // may still need to close a cycle.
    for (ThreadId u : active_threads_) {
        if (u != t && cb_[u].get(u) > 0 && cb_[u].get(u) <= cbt.get(u))
            return true;
    }
    return false;
}

void
AeroDromeTuned::flush_stale_readers(VarId x)
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
AeroDromeTuned::enroll_update_sets(ThreadId t, VarId x, bool is_write)
{
    // Only transaction-holding threads can qualify: scan the active list
    // instead of all of Thr.
    auto& sets = is_write ? upd_w_ : upd_r_;
    for (ThreadId u : active_threads_) {
        if (cb_[u].get(u) <= c_[t].get(u))
            sets[u].insert(x);
    }
}

bool
AeroDromeTuned::handle_end(ThreadId t, size_t index)
{
    if (!has_incoming_edge(t)) {
        ++opt_stats_.gc_skipped_ends;
        for (VarId x : upd_r_[t].list) {
            auto& sr = stale_readers_[x];
            sr.erase(std::remove(sr.begin(), sr.end(), t), sr.end());
            if (last_reader_[x] == t)
                last_reader_[x] = kNoThread;
            ++var_version_[x];
        }
        upd_r_[t].clear();
        for (VarId x : upd_w_[t].list) {
            if (last_w_thr_[x] == t) {
                stale_write_[x] = 0;
                last_w_thr_[x] = kNoThread;
            }
            ++var_version_[x];
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
        if (!stale_write_[x] || last_w_thr_[x] == t) {
            ++stats_.joins;
            tbl_.join(var_base_[x], ct, t, ct_pure);
        }
        if (last_w_thr_[x] == t)
            stale_write_[x] = 0;
        ++var_version_[x];
    }
    upd_w_[t].clear();
    for (VarId x : upd_r_[t].list) {
        stats_.joins += 2;
        const size_t base = var_base_[x];
        tbl_.join(base + 1, ct, t, ct_pure);
        tbl_.join_except(base + 2, ct, t, ct_pure);
        auto& sr = stale_readers_[x];
        sr.erase(std::remove(sr.begin(), sr.end(), t), sr.end());
        if (last_reader_[x] == t)
            last_reader_[x] = kNoThread;
        ++var_version_[x];
    }
    upd_r_[t].clear();
    return false;
}

bool
AeroDromeTuned::process(const Event& e, size_t index)
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
            bump_clock_version(t);
            add_active(t);
        }
        return false;

      case Op::kEnd:
        if (txns_.on_end(t)) {
            remove_active(t);
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
        bump_clock_version(target);
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
        // Same-epoch fast path: this exact read already happened and
        // nothing observable changed since.
        if (txns_.active(t) && last_reader_[x] == t &&
            last_reader_cv_[x] == clock_version_[t] &&
            last_reader_vv_[x] == var_version_[x]) {
            ++tuned_stats_.same_epoch_reads;
            return false;
        }
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
            auto& sr = stale_readers_[x];
            if (std::find(sr.begin(), sr.end(), t) == sr.end()) {
                sr.push_back(t);
                ++var_version_[x];
            }
            ++opt_stats_.lazy_reads;
            last_reader_[x] = t;
            last_reader_cv_[x] = clock_version_[t];
            last_reader_vv_[x] = var_version_[x];
        } else {
            stats_.joins += 2;
            const bool pure = pure_of(t);
            tbl_.join(base + 1, c_[t], t, pure);
            tbl_.join_except(base + 2, c_[t], t, pure);
            ++var_version_[x];
        }
        enroll_update_sets(t, x, /*is_write=*/false);
        return false;
      }

      case Op::kWrite: {
        const VarId x = target;
        ensure_var(x);
        // Same-epoch fast path: t already is the pending stale writer,
        // its clock is unchanged, and no read of x intervened.
        if (txns_.active(t) && stale_write_[x] && last_w_thr_[x] == t &&
            last_writer_cv_[x] == clock_version_[t] &&
            last_writer_vv_[x] == var_version_[x]) {
            ++tuned_stats_.same_epoch_writes;
            return false;
        }
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
        ++var_version_[x];
        last_writer_cv_[x] = clock_version_[t];
        last_writer_vv_[x] = var_version_[x];
        // The write invalidates pending same-epoch reads of x.
        last_reader_[x] = kNoThread;
        enroll_update_sets(t, x, /*is_write=*/true);
        return false;
      }
    }
    return false;
}

void
AeroDromeTuned::retire_slot(uint32_t s)
{
    if (txns_.active(s))
        return; // ill-formed join mid-transaction: leak the row, stay safe
    // Scrub every cached fact naming this row; flush the lazy proxies
    // BEFORE the clock reset (they stand in for c_[s]).
    for (VarId x = 0; x < var_base_.size(); ++x) {
        if (last_w_thr_[x] == s) {
            if (stale_write_[x]) {
                // Defensive: a well-formed trace cleared this at s's end.
                tbl_.assign(var_base_[x], c_[s], s, pure_of(s));
                stale_write_[x] = 0;
            }
            last_w_thr_[x] = kNoThread;
            ++var_version_[x];
        }
        if (last_reader_[x] == s) {
            last_reader_[x] = kNoThread;
            ++var_version_[x];
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
                ++var_version_[x];
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
    remove_active(s);
    const ClockValue v = c_[s].get(s);
    c_[s].clear();
    c_[s].set(s, v + 1);
    cb_[s].clear();
    c_pure_[s] = 1;
    // Any remembered (clock version, s) pair must die with the binding.
    bump_clock_version(s);
    slots_.retire(s);
}

void
AeroDromeTuned::gc_sweep_now()
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
AeroDromeTuned::maybe_gc_sweep()
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
AeroDromeTuned::counters() const
{
    const AdaptiveClockStats& es = tbl_.stats();
    return {
        {"joins", stats_.joins},
        {"comparisons", stats_.comparisons},
        {"lazy_reads", opt_stats_.lazy_reads},
        {"lazy_writes", opt_stats_.lazy_writes},
        {"propagated_ends", opt_stats_.propagated_ends},
        {"gc_skipped_ends", opt_stats_.gc_skipped_ends},
        {"same_epoch_reads", tuned_stats_.same_epoch_reads},
        {"same_epoch_writes", tuned_stats_.same_epoch_writes},
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
AeroDromeTuned::memory_bytes() const
{
    size_t n = c_.memory_bytes() + cb_.memory_bytes() + tbl_.memory_bytes();
    n += (lock_slot_.capacity() + var_base_.capacity() +
          active_pos_.capacity()) *
         sizeof(uint32_t);
    n += c_pure_.capacity() + stale_write_.capacity();
    n += (last_rel_thr_.capacity() + last_w_thr_.capacity() +
          parent_thread_.capacity() + active_threads_.capacity() +
          last_reader_.capacity()) *
         sizeof(ThreadId);
    n += (parent_txn_seq_.capacity() + clock_version_.capacity() +
          var_version_.capacity() + last_reader_cv_.capacity() +
          last_reader_vv_.capacity() + last_writer_cv_.capacity() +
          last_writer_vv_.capacity()) *
         sizeof(uint64_t);
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
