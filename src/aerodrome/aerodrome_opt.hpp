#pragma once

/**
 * @file
 * AeroDrome, fully optimized — the paper's Algorithm 3 (Appendix C.2).
 *
 * Three optimizations over Algorithm 2:
 *
 * 1. Lazy clock updates ("Stale" sets). A variable repeatedly read (or
 *    written) by a thread inside one transaction does not update R_x/hR_x
 *    (resp. W_x) at every access. Instead the reader is recorded in the
 *    per-variable set staleReaders_x (resp. the flag staleWrite_x is set),
 *    and the flush happens at the next write to x or at transaction end.
 *    While a write is stale, conflict checks use the *live* clock of the
 *    writing thread: within one transaction that clock only adds orderings
 *    that hold at transaction granularity anyway, so verdicts are
 *    unaffected. Events *outside* transactions (unary transactions) are
 *    handled eagerly — their "transaction" completes immediately, so the
 *    live-clock proxy would be unsound for them.
 *
 * 2. Per-thread update sets. Algorithm 2 scans every variable at each end
 *    event. Here each read/write enrolls the variable in UpdateSet^r/w_u of
 *    exactly those threads u whose active transaction is ordered before the
 *    access, so an end event touches only the variables it must.
 *
 * 3. Garbage collection ("hasIncomingEdge"). A completed transaction that
 *    received no orderings from other threads since its begin (its clock is
 *    unchanged outside its own component) and whose forking transaction is
 *    no longer alive can never be part of a violating cycle — mirroring
 *    Velodrome's no-incoming-edge rule — so its end event skips the entire
 *    propagation phase.
 *
 * All ordering tests use the one-component ("lightweight timestamp") form;
 * see aerodrome_readopt.hpp for why this is equivalent.
 *
 * Storage is epoch-adaptive (vc/adaptive_clock.hpp): L_l, W_x, R_x and
 * hR_x share one AdaptiveClockTable (a variable's W/R/hR are adjacent
 * entries), giving O(1) conflict checks and updates while the touched
 * state stays epoch-shaped, inflating into the shared arena on first
 * contention. Purity bits on C_t drive the fast paths.
 */

#include <cstdint>
#include <vector>

#include "aerodrome/aerodrome_basic.hpp" // for AeroDromeStats
#include "analysis/checker.hpp"
#include "analysis/thread_slots.hpp"
#include "analysis/txn_tracker.hpp"
#include "trace/trace.hpp"
#include "vc/adaptive_clock.hpp"
#include "vc/clock_bank.hpp"
#include "vc/gc.hpp"

namespace aero {

/** Extra statistics for the optimized engine. */
struct AeroDromeOptStats {
    /** End events whose propagation was skipped by hasIncomingEdge. */
    RelaxedCounter gc_skipped_ends;
    /** End events that ran the full propagation. */
    RelaxedCounter propagated_ends;
    /** Lazy read enrollments that avoided an eager clock join. */
    RelaxedCounter lazy_reads;
    /** Lazy write enrollments that avoided an eager clock copy. */
    RelaxedCounter lazy_writes;
};

/** AeroDrome, Algorithm 3 (lazy updates + update sets + GC). */
class AeroDromeOpt : public CheckerBase {
public:
    AeroDromeOpt(uint32_t num_threads, uint32_t num_vars,
                 uint32_t num_locks);

    std::string_view name() const override { return "AeroDrome"; }

    bool process(const Event& e, size_t index) override;

    void reserve(uint32_t threads, uint32_t vars, uint32_t locks) override;

    const AeroDromeStats& stats() const { return stats_; }
    const AeroDromeOptStats& opt_stats() const { return opt_stats_; }

    /** Epoch-adaptive storage statistics (hits, inflations). */
    const AdaptiveClockStats& epoch_stats() const { return tbl_.stats(); }

    /** Toggle the epoch representation and its purity fast paths; call
     *  before the first event. Off reproduces the full-vector baseline. */
    void
    set_epochs(bool on)
    {
        epochs_ = on;
        tbl_.set_epochs_enabled(on);
    }

    /** Toggle dead-state reclamation (clock-entry GC + thread-slot
     *  recycling); call before the first event. */
    void set_gc(bool on) override { gc_ = on; }

    /** Test hook: with gc on, sweep every n outermost ends (0 restores
     *  the arena-growth trigger). */
    void set_gc_sweep_every(uint32_t n) { gc_sweep_every_ = n; }

    uint64_t gc_sweeps() const { return gc_sweeps_; }
    const ThreadSlotMap& thread_slots() const { return slots_; }

    StatList counters() const override;

    size_t memory_bytes() const override;

private:
    /** Purity of C_u as consumed by fast paths (gated by the toggle). */
    bool
    pure_of(ThreadId u) const
    {
        return epochs_ && c_pure_[u] != 0;
    }

    /** External tid a violation at row t is charged to. */
    ThreadId
    rid(ThreadId t) const
    {
        if (!gc_)
            return t;
        ThreadId ext = slots_.ext_of(t);
        return ext == kNoThread ? t : ext;
    }

    /** Row for external tid `ext` under gc (allocating reuse-first). */
    uint32_t
    slot_of(ThreadId ext)
    {
        bool fresh = false;
        uint32_t s = slots_.resolve(ext, fresh);
        ensure_thread(s);
        return s;
    }

    void retire_slot(uint32_t s);
    void gc_sweep_now();
    void maybe_gc_sweep();

    /** checkAndGet where both the check and the join use table entry
     *  `slot` (locks, W_x). */
    bool check_and_get_entry(size_t slot, ThreadId t, size_t index,
                             const char* reason);

    /** checkAndGet checking `check_slot` but joining `join_slot` (the
     *  hR_x / R_x pair at writes). */
    bool check_and_get_entry2(size_t check_slot, size_t join_slot,
                              ThreadId t, size_t index, const char* reason);

    /** checkAndGet against the clock of thread `src` (pure iff src_pure). */
    bool check_and_get_clock(ConstClockRef clk, ThreadId src, bool src_pure,
                             ThreadId t, size_t index, const char* reason);

    bool
    begin_before(ThreadId t, ClockValue comp) const
    {
        return cb_[t].get(t) <= comp;
    }

    /** Algorithm 3's hasIncomingEdge(t), evaluated at t's end event. */
    bool has_incoming_edge(ThreadId t) const;

    /** Flush staleReaders_x into R_x / hR_x (before a write's checks). */
    void flush_stale_readers(VarId x);

    /** Enroll x in the read/write update set of every thread with an
     *  active transaction ordered before C_t. */
    void enroll_update_sets(ThreadId t, VarId x, bool is_write);

    void ensure_thread(ThreadId t);
    void ensure_var(VarId x);
    void ensure_lock(LockId l);
    void grow_dim(size_t n);

    bool handle_end(ThreadId t, size_t index);

    TxnTracker txns_;

    ClockBank c_;  // one row per thread
    ClockBank cb_; // one row per thread

    /** L_l, W_x, R_x, hR_x — one adaptive table; var x occupies entries
     *  var_base_[x] + {0: W, 1: R, 2: hR}. */
    AdaptiveClockTable tbl_;
    std::vector<uint32_t> lock_slot_; // LockId -> entry
    std::vector<uint32_t> var_base_;  // VarId -> W entry

    /** c_pure_[t] != 0 iff C_t == bot[v/t]; sound but conservative. */
    std::vector<uint8_t> c_pure_;
    bool epochs_ = true;

    std::vector<ThreadId> last_rel_thr_;
    std::vector<ThreadId> last_w_thr_;

    /** staleWrite_x: W_x lags behind the last write, whose timestamp is
     *  the live clock of last_w_thr_[x] (within that thread's still-active
     *  transaction). */
    std::vector<uint8_t> stale_write_;
    /** staleReaders_x: threads whose last read of x is not yet in R_x. */
    std::vector<std::vector<ThreadId>> stale_readers_;

    /** UpdateSet^r_t / UpdateSet^w_t as a list plus membership bytes. */
    struct UpdateSet {
        std::vector<VarId> list;
        std::vector<uint8_t> member; // indexed by VarId
        void
        insert(VarId x)
        {
            if (x >= member.size())
                member.resize(x + 1, 0);
            if (!member[x]) {
                member[x] = 1;
                list.push_back(x);
            }
        }
        void
        clear()
        {
            for (VarId x : list)
                member[x] = 0;
            list.clear();
        }
    };
    std::vector<UpdateSet> upd_r_;
    std::vector<UpdateSet> upd_w_;

    /** Fork bookkeeping for hasIncomingEdge's "parentTr is alive". */
    std::vector<ThreadId> parent_thread_;
    std::vector<uint64_t> parent_txn_seq_; // 0 = fork outside a transaction

    /** Dead-state reclamation (src/vc/README.md, "Reclamation"). */
    bool gc_ = true;
    ThreadSlotMap slots_;
    GcFrontier gcf_;
    uint64_t gc_sweeps_ = 0;
    uint64_t gc_live_entries_ = 0;
    size_t gc_rows_baseline_ = 0;
    uint32_t gc_sweep_every_ = 0;
    uint32_t gc_ends_ = 0;

    AeroDromeStats stats_;
    AeroDromeOptStats opt_stats_;
};

} // namespace aero
