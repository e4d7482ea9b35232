#include "aerodrome/aerodrome_opt.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace aero {

AeroDromeOpt::AeroDromeOpt(uint32_t num_threads, uint32_t num_vars,
                           uint32_t num_locks)
    : txns_(num_threads)
{
    if (num_threads > 0)
        ensure_thread(num_threads - 1);
    if (num_vars > 0)
        ensure_var(num_vars - 1);
    if (num_locks > 0)
        ensure_lock(num_locks - 1);
}

void
AeroDromeOpt::grow_dim(size_t n)
{
    c_.ensure_dim(n);
    cb_.ensure_dim(n);
    tbl_.ensure_dim(n);
    locks_.ensure_dim(n);
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
        parent_thread_.resize(n, kNoThread);
        parent_txn_seq_.resize(n, 0);
        acted_.resize(n, 0);
        for (size_t u = old; u < n; ++u)
            c_[u].set(u, 1);
        txns_.ensure(static_cast<uint32_t>(n));
    }
}

void
AeroDromeOpt::ensure_var(VarId x)
{
    // The id range at least doubles, so a trace that names one fresh
    // variable after another grows every array a logarithmic number of
    // times, and each stays within 2x of the highest id used. Each array
    // reads zero as empty, so the resize writes nothing: a variable's
    // pages are first touched by its first access.
    if (x < last_w_thr_.size())
        return;
    const size_t n = std::max(size_t{x} + 1, 2 * last_w_thr_.size());
    tbl_.add_entries(3 * (n - last_w_thr_.size()));
    last_w_thr_.resize(n);
    stale_write_.resize(n);
    stale_readers_.resize(n);
}

void
AeroDromeOpt::ensure_lock(LockId l)
{
    if (l < last_rel_thr_.size())
        return;
    const size_t n = std::max(size_t{l} + 1, 2 * last_rel_thr_.size());
    locks_.add_entries(n - last_rel_thr_.size());
    last_rel_thr_.resize(n);
}

bool
AeroDromeOpt::check_and_get_entry(AdaptiveClockTable& tbl,
                                  size_t check_slot, size_t join_slot,
                                  ThreadId t, size_t index,
                                  const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t) && begin_before(t, tbl.get(check_slot, t)))
        return report(index, rid(t), reason);
    ++stats_.joins;
    tbl.join_into(c_[t], join_slot, t, c_pure_[t]);
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
AeroDromeOpt::has_incoming_edge(ThreadId t)
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
        if (u != t && ct.get(u) != cbt.get(u)) {
            thread_rows_walked_ += u + 1;
            return true;
        }
    }
    thread_rows_walked_ += ct.dim();
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
            thread_rows_walked_ += u + 1;
            return true;
        }
    }
    thread_rows_walked_ += c_.rows();
    return false;
}

void
AeroDromeOpt::flush_stale_readers(VarId x)
{
    const size_t base = w_entry(x);
    stale_readers_.drain(x, [&](ThreadId u) {
        stats_.joins += 2;
        const bool pure = pure_of(u);
        tbl_.join(base + 1, c_[u], u, pure);        // R_x
        tbl_.join_except(base + 2, c_[u], u, pure); // hR_x
    });
}

bool
AeroDromeOpt::handle_end(ThreadId t, size_t index)
{
    // Seal first, so the walk's own joins enroll only into *other*
    // threads' windows, never into the list being iterated.
    tbl_.seal_update_window(t);
    if (!has_incoming_edge(t)) {
        // Garbage-collected end: this transaction can never lie on a
        // cycle, so skip the propagation entirely and only drop its own
        // lazy bookkeeping (Algorithm 3, lines 75-86). Its stale reads
        // and write were enrolled into its window when they were made;
        // lock codes need nothing.
        ++opt_stats_.gc_skipped_ends;
        for (uint32_t i : tbl_.update_entries(t)) {
            ++stats_.end_swept_entries;
            const VarId x = static_cast<VarId>(i / 3);
            if (i % 3 == 0) {
                if (stale_write_[x] && last_w_thr_[x] == t) {
                    stale_write_[x] = 0;
                    last_w_thr_[x] = kNoThread;
                }
            } else if (i % 3 == 1) {
                stale_readers_.erase(x, t);
            }
        }
        tbl_.close_update_window(t);
        return false;
    }

    ++opt_stats_.propagated_ends;
    ConstClockRef ct = c_[t];
    const ClockValue cbt_t = cb_[t].get(t);
    const bool ct_pure = pure_of(t);

    thread_rows_walked_ += c_.rows();
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
    // The window holds this transaction's own stale reads and write
    // (enrolled when made) plus every W_x, R_x and L_l whose gate a
    // mutation could have made fireable; no other clock can fire.
    // Entries are independent, so the visit order is immaterial.
    // Flushes of C_t (C_t[0/t]) into bottom entries all store the same
    // vector: the 2nd and later share the first one's arena row.
    AdaptiveClockTable::RowShare share_ct, share_ct_except;
    for (uint32_t i : tbl_.update_entries(t)) {
        ++stats_.end_swept_entries;
        const VarId x = static_cast<VarId>(i / 3);
        switch (i % 3) {
          case 0: // W_x
            if (stale_write_[x]) {
                // Our own stale write lands now. Another thread's stale
                // write supersedes ours: future readers pick the ordering
                // up from that thread's live clock (which absorbed C_t in
                // the thread loop above).
                if (last_w_thr_[x] == t) {
                    ++stats_.joins;
                    tbl_.join_shared(i, ct, t, ct_pure, share_ct);
                    stale_write_[x] = 0;
                } else {
                    ++stats_.end_gate_skipped;
                }
                break;
            }
            ++stats_.comparisons;
            if (cbt_t <= tbl_.get(i, t)) {
                ++stats_.joins;
                tbl_.join(i, ct, t, ct_pure);
            } else {
                ++stats_.end_gate_skipped;
            }
            break;
          case 1: { // R_x, driving its hR_x partner
            bool fire;
            if (stale_readers_.erase(x, t)) {
                fire = true; // our own stale read lands now
            } else {
                ++stats_.comparisons;
                fire = cbt_t <= tbl_.get(i, t);
            }
            if (fire) {
                stats_.joins += 2;
                tbl_.join_shared(i, ct, t, ct_pure, share_ct);
                tbl_.join_except_shared(i + 1, ct, t, ct_pure,
                                        share_ct_except);
            } else {
                ++stats_.end_gate_skipped;
            }
            break;
          }
          default: { // L_l for lock l = i / 3 (hR_x never enrolls)
            const LockId l = x;
            ++stats_.comparisons;
            if (cbt_t <= locks_.get(l, t)) {
                ++stats_.joins;
                locks_.join(l, ct, t, ct_pure);
                tbl_.enroll(i, ct, t, ct_pure);
            } else {
                ++stats_.end_gate_skipped;
            }
            break;
          }
        }
    }
    tbl_.close_update_window(t);
    return false;
}

bool
AeroDromeOpt::process(const Event& e, size_t index)
{
    // Rows are recycled slots: translate the actor and, for the two
    // thread-target ops, the target through the slot map.
    const ThreadId t = slot_of(e.tid);
    ThreadId target = e.target;
    if (e.op == Op::kFork || e.op == Op::kJoin)
        target = slot_of(e.target);
    acted_[t] = 1;

    switch (e.op) {
      case Op::kBegin:
        if (txns_.on_begin(t)) {
            c_[t].tick(t); // purity preserved
            cb_[t].assign(c_[t]);
            // The tick minted cb_t(t) fresh: the window starts empty.
            tbl_.open_update_window(t, cb_[t].get(t));
        }
        return false;

      case Op::kEnd:
        if (txns_.on_end(t)) {
            if (handle_end(t, index))
                return true;
            maybe_gc_sweep();
        }
        return false;

      case Op::kAcquire:
        ensure_lock(target);
        // Same-releaser fast path: while last_rel_thr_[l] == t, L_l is
        // contained in C_t, so the join adds nothing, and any ordering of
        // t's current transaction that reached L_l through a peer was
        // already checked when it reached C_t. The containment holds from
        // t's release, which assigned C_t to L_l, and survives everything
        // that touches L_l or C_t before the next release: only another
        // thread u's propagated end joins into L_l, when its window walk
        // reaches L_l's code and the gate cb_u(u) <= L_l(u) holds; as
        // L_l(u) <= C_t(u), that gate also joins C_u into C_t (with its
        // check) in the same end's peer loop, which runs first. A gc
        // sweep only demotes entries to bottom; C_t only grows;
        // retire_slot scrubs the entry when t's row is reissued. So no
        // end, propagated or skipped, needs to clear it.
        if (last_rel_thr_[target] != t) {
            return check_and_get_entry(locks_, target, target, t, index,
                                       "acquire saw conflicting release");
        }
        return false;

      case Op::kRelease:
        ensure_lock(target);
        locks_.assign(target, c_[t], t, pure_of(t));
        tbl_.enroll(lock_code(target), c_[t], t, pure_of(t));
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
        if (eventless_child(target, t)) {
            ++stats_.joins;
            join_qualified(c_[t], t, c_pure_[t], c_[target], target,
                           pure_of(target));
        } else if (check_and_get_clock(c_[target], target, pure_of(target),
                                       t, index, "join saw child's events")) {
            return true;
        }
        if (target != t)
            retire_slot(target);
        return false;
      }

      case Op::kRead: {
        // An owned reread changes nothing here but lazy_reads, which is
        // why owned_rereads_are_noops() holds. Say t wrote x inside its
        // current outermost transaction and read x since, with no write
        // to x in between. That write set last_w_thr_[x] = t, and only
        // a later write to x, t's outermost end or retire_slot (never
        // for an active t) changes it; so the check below is skipped.
        // The read since then put t in staleReaders_x, and only a write
        // to x (its flush) or t's outermost end removes it; so insert()
        // returns false and enrolls nothing. t's slot stays bound while
        // t is active, acted_[t] is already set and x was ensured by the
        // write, so nothing above changes either. (Algorithm 1,
        // aerodrome-basic, differs: its reread assigns a C_t that may
        // have grown since into R_{t,x}.)
        const VarId x = target;
        ensure_var(x);
        const size_t base = w_entry(x);
        if (last_w_thr_[x] != t) {
            bool v;
            if (stale_write_[x]) {
                ThreadId lw = last_w_thr_[x];
                v = check_and_get_clock(c_[lw], lw, pure_of(lw), t,
                                        index,
                                        "read saw conflicting write");
            } else {
                v = check_and_get_entry(tbl_, base, base, t, index,
                                        "read saw conflicting write");
            }
            if (v)
                return true;
        }
        if (txns_.active(t)) {
            // Lazy: defer the R_x/hR_x update to the next write of x or to
            // our transaction end, which finds R_x in our window.
            if (stale_readers_.insert(x, t))
                tbl_.enroll_pending(base + 1, t);
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
        return false;
      }

      case Op::kWrite: {
        const VarId x = target;
        ensure_var(x);
        const size_t base = w_entry(x);
        if (last_w_thr_[x] != t) {
            bool v;
            if (stale_write_[x]) {
                ThreadId lw = last_w_thr_[x];
                v = check_and_get_clock(c_[lw], lw, pure_of(lw), t,
                                        index,
                                        "write saw conflicting write");
            } else {
                v = check_and_get_entry(tbl_, base, base, t, index,
                                        "write saw conflicting write");
            }
            if (v)
                return true;
        }
        flush_stale_readers(x);
        if (check_and_get_entry(tbl_, base + 2, base + 1, t, index,
                                "write saw conflicting read")) {
            return true;
        }
        if (txns_.active(t)) {
            if (!stale_write_[x] || last_w_thr_[x] != t)
                tbl_.enroll_pending(base, t); // newly the stale writer
            stale_write_[x] = 1;
            ++opt_stats_.lazy_writes;
        } else {
            stale_write_[x] = 0;
            tbl_.assign(base, c_[t], t, pure_of(t));
        }
        last_w_thr_[x] = t;
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
    retire_scanned_words_ += last_w_thr_.size() + last_rel_thr_.size();
    // Scrub every cached fact that names this row. The lazy proxies must
    // be materialized/flushed BEFORE the clock reset: they stand in for
    // c_[s], which is about to become the reissue continuation.
    for (VarId x = 0; x < last_w_thr_.size(); ++x) {
        if (last_w_thr_[x] == s) {
            if (stale_write_[x]) {
                // Defensive: a well-formed trace cleared this at s's last
                // end. Materialize W_x from the proxy before it vanishes.
                tbl_.assign(w_entry(x), c_[s], s, pure_of(s));
                stale_write_[x] = 0;
            }
            last_w_thr_[x] = kNoThread;
        }
        // No stale read names s: s is not active, so its last end was
        // outermost and its window walk unlinked its own (a violation
        // there ends the run).
        assert(!stale_readers_.contains(x, s));
    }
    for (size_t l = 0; l < last_rel_thr_.size(); ++l) {
        if (last_rel_thr_[l] == s)
            last_rel_thr_[l] = kNoThread;
    }
    tbl_.close_update_window(s);
    parent_thread_[s] = kNoThread;
    parent_txn_seq_[s] = 0;
    acted_[s] = 0;
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
    // The last scan reclaimed nothing at this very frontier: skip the
    // scans. Only entries written since could die now, and the next scan
    // finds them, so skipping only defers reclamation (vc/gc.hpp). The
    // test hook always scans.
    if (gc_sweep_every_ == 0 && gc_fruitless_ && gcf_ == gc_scanned_) {
        ++gc_sweeps_skipped_;
    } else {
        const uint64_t before = epoch_stats().gc_reclaimed;
        gc_live_entries_ = tbl_.gc_sweep(gcf_) + locks_.gc_sweep(gcf_);
        gc_scanned_words_ += tbl_.size() + locks_.size();
        gc_fruitless_ = epoch_stats().gc_reclaimed == before;
        std::swap(gcf_, gc_scanned_);
    }
    ++gc_sweeps_;
    gc_rows_baseline_ = arena_rows_live();
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
    const size_t rows = arena_rows_live();
    if (rows >= 128 && rows >= 2 * gc_rows_baseline_)
        gc_sweep_now();
}

AdaptiveClockStats
AeroDromeOpt::epoch_stats() const
{
    const AdaptiveClockStats& v = tbl_.stats();
    const AdaptiveClockStats& l = locks_.stats();
    AdaptiveClockStats sum;
    sum.epoch_fast = v.epoch_fast + l.epoch_fast;
    sum.vector_ops = v.vector_ops + l.vector_ops;
    sum.inflations = v.inflations + l.inflations;
    sum.upd_enrolled = v.upd_enrolled + l.upd_enrolled;
    sum.gc_reclaimed = v.gc_reclaimed + l.gc_reclaimed;
    sum.gc_rows_freed = v.gc_rows_freed + l.gc_rows_freed;
    sum.rows_shared = v.rows_shared + l.rows_shared;
    return sum;
}

StatList
AeroDromeOpt::counters() const
{
    const AdaptiveClockStats es = epoch_stats();
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
        {"upd_enrolled", es.upd_enrolled},
        {"end_swept_entries", stats_.end_swept_entries},
        {"end_gate_skipped", stats_.end_gate_skipped},
        {"gc_reclaimed", es.gc_reclaimed},
        {"gc_rows_freed", es.gc_rows_freed},
        {"rows_shared", es.rows_shared},
        {"gc_sweeps", gc_sweeps_},
        {"gc_sweeps_skipped", gc_sweeps_skipped_},
        {"gc_scanned_words", gc_scanned_words_},
        {"retire_scanned_words", retire_scanned_words_},
        {"thread_rows_walked", thread_rows_walked_},
        // As of the last sweep that scanned, not the last sweep.
        {"gc_live_entries", gc_live_entries_},
        {"slots_retired", slots_.retired()},
        {"slots_recycled", slots_.recycled()},
    };
}

size_t
AeroDromeOpt::memory_bytes() const
{
    size_t n = c_.memory_bytes() + cb_.memory_bytes() + tbl_.memory_bytes() +
               locks_.memory_bytes();
    n += c_pure_.capacity() + stale_write_.memory_bytes();
    n += last_rel_thr_.memory_bytes() + last_w_thr_.memory_bytes();
    n += parent_thread_.capacity() * sizeof(ThreadId);
    n += parent_txn_seq_.capacity() * sizeof(uint64_t) + acted_.capacity();
    n += stale_readers_.memory_bytes();
    n += slots_.memory_bytes() + gcf_.memory_bytes() +
         gc_scanned_.memory_bytes() + txns_.memory_bytes();
    return n;
}

} // namespace aero
