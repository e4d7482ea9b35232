#pragma once

/**
 * @file
 * AeroDrome, fully optimized — the paper's Algorithm 3 (Appendix C.2).
 *
 * Algorithm 3 keeps Algorithm 2's read-clock reduction: instead of one
 * read clock R_{t,x} per (thread, variable) pair, each variable has
 *
 *   - R_x  = |_|_u R_{u,x}          (used to *update* C_t at writes)
 *   - hR_x = |_|_u R_{u,x}[0/u]     (used to *check* violations at writes)
 *
 * hR_x zeroes each reader's own component so a thread's own reads cannot
 * trigger a self-violation. Algorithm 2 lives on only inside this engine;
 * a separate Algorithm-2 engine was neither the reference nor ever faster
 * (aerocheck median wall time over 7 runs on a 4-vCPU box, perfbench
 * seed-1 traces: star 241 ms against this engine's 130 ms, naive 105
 * against 65, rolling 75 against 48), so it was deleted.
 *
 * Three optimizations on top of the reduction:
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
 * 2. Per-thread update sets, as the table's update windows
 *    (vc/adaptive_clock.hpp, shared with Algorithm 1). Each
 *    outermost begin opens a window; every eager mutation of a W_x, R_x
 *    or hR_x entry enrolls it into the window of each thread whose end
 *    gate it could make fireable, and a lazy access enrolls its entry
 *    into the accessing thread's own window (enroll_pending) when the
 *    thread newly becomes a stale reader or the stale writer. An end
 *    event visits only its window's entries, never the variable table:
 *    no access scans the thread rows. A thread ordered before a lazy
 *    access needs no entry of its own for it: if its window is still
 *    open when the stale value is flushed, the flush's join enrolls the
 *    entry; if it ended first, its end joined its clock into the lazy
 *    accessor's clock, which the flush carries.
 *
 * 3. Garbage collection ("hasIncomingEdge"). A completed transaction that
 *    received no orderings from other threads since its begin (its clock is
 *    unchanged outside its own component) and whose forking transaction is
 *    no longer alive can never be part of a violating cycle — mirroring
 *    Velodrome's no-incoming-edge rule — so its end event skips the entire
 *    propagation phase.
 *
 * All ordering tests use the one-component ("lightweight timestamp") form.
 * For an event e1 of thread t1, C_{e1} sqsubseteq C_{e2} holds iff
 * C_{e1}(t1) <= C_{e2}(t1), so a comparison against the begin clock C_t^b
 * reduces to its component t; against a *join* of clocks (R_x, hR_x) that
 * component-wise test is exactly "exists u with C_t^b sqsubseteq R_{u,x}",
 * so the joined read clocks lose no violation that Algorithm 1's
 * per-thread R_{u,x} would report.
 *
 * Storage is epoch-adaptive (vc/adaptive_clock.hpp): W_x, R_x and hR_x
 * are entries 3x, 3x+1 and 3x+2 of one AdaptiveClockTable, so an entry's
 * kind and variable follow from its index; the L_l live in a second,
 * window-less table that propagated ends sweep in full. Both give O(1)
 * conflict checks and updates while the touched state stays
 * epoch-shaped, inflating into their arena on first contention. Purity
 * bits on C_t drive the fast paths. The staleReaders_x sets are chains in
 * one pooled node array (StaleReaderPool), so a variable without stale
 * readers costs a 4-byte head and no allocation of its own.
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

    /** Epoch-adaptive storage statistics (hits, inflations), summed over
     *  the variable and lock tables. */
    AdaptiveClockStats epoch_stats() const;

    /** Toggle the epoch representation and its purity fast paths; call
     *  before the first event. Off reproduces the full-vector baseline. */
    void
    set_epochs(bool on)
    {
        epochs_ = on;
        tbl_.set_epochs_enabled(on);
        locks_.set_epochs_enabled(on);
    }

    /** Toggle end-event update windows; call before the first event. Off
     *  sweeps the whole variable table at every end — the reference the
     *  update-set tests compare against. */
    void set_update_sets(bool on) { tbl_.set_update_sets_enabled(on); }

    /** Toggle dead-state reclamation (clock-entry GC + thread-slot
     *  recycling); call before the first event. */
    void set_gc(bool on) override { gc_ = on; }

    /** Test hook: with gc on, sweep every n outermost ends (0 restores
     *  the arena-growth trigger). */
    void set_gc_sweep_every(uint32_t n) { gc_sweep_every_ = n; }

    uint64_t gc_sweeps() const { return gc_sweeps_; }
    /** Arena rows ever allocated by the variable and lock tables (the
     *  high-water mark; shared rows count once). */
    size_t
    arena_rows() const
    {
        return tbl_.arena_rows() + locks_.arena_rows();
    }
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

    /** Arena rows backing inflated entries of both tables (the gc
     *  pressure signal). */
    size_t
    arena_rows_live() const
    {
        return tbl_.arena_rows_live() + locks_.arena_rows_live();
    }

    /** checkAndGet checking `check_slot` of `tbl` but joining
     *  `join_slot` (equal for locks and W_x; the hR_x / R_x pair at
     *  writes). */
    bool check_and_get_entry(AdaptiveClockTable& tbl, size_t check_slot,
                             size_t join_slot, ThreadId t, size_t index,
                             const char* reason);

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

    /** Call f(i) for every entry of t's sealed window, or for every
     *  variable-table entry when the window is untracked. */
    template <typename F> void for_each_window_entry(ThreadId t, F f);

    /** Variable x's W_x entry; R_x and hR_x follow it. */
    static size_t w_entry(VarId x) { return 3 * size_t{x}; }

    void ensure_thread(ThreadId t);
    void ensure_var(VarId x);
    void ensure_lock(LockId l);
    void grow_dim(size_t n);

    bool handle_end(ThreadId t, size_t index);

    TxnTracker txns_;

    ClockBank c_;  // one row per thread
    ClockBank cb_; // one row per thread

    /** W_x, R_x, hR_x at entries w_entry(x) + {0, 1, 2}; update windows
     *  open at outermost begins. */
    AdaptiveClockTable tbl_;
    /** L_l at entry l; no windows (ends sweep it in full). */
    AdaptiveClockTable locks_;

    /** c_pure_[t] != 0 iff C_t == bot[v/t]; sound but conservative. */
    std::vector<uint8_t> c_pure_;
    bool epochs_ = true;

    std::vector<ThreadId> last_rel_thr_;
    std::vector<ThreadId> last_w_thr_;

    /** staleWrite_x: W_x lags behind the last write, whose timestamp is
     *  the live clock of last_w_thr_[x] (within that thread's still-active
     *  transaction). */
    std::vector<uint8_t> stale_write_;
    /**
     * staleReaders_x for every variable x: one 4-byte chain head per
     * variable into a shared pool of {thread, next} nodes with a free list.
     * A variable with no stale reader costs only its head, and the pool
     * holds as many nodes as stale reads are outstanding at once, not one
     * allocation per variable. Chains keep insertion order, so a flush
     * joins the readers in the order they read.
     */
    class StaleReaderPool {
    public:
        static constexpr uint32_t kNoNode = UINT32_MAX;

        /** Give variables [0, n) a head (new ones empty). */
        void resize(size_t n) { head_.resize(n, kNoNode); }

        /** Add t to x's set; false if it is already there. */
        bool
        insert(VarId x, ThreadId t)
        {
            uint32_t tail = kNoNode;
            for (uint32_t n = head_[x]; n != kNoNode; n = pool_[n].next) {
                if (pool_[n].t == t)
                    return false;
                tail = n;
            }
            uint32_t fresh = free_;
            if (fresh != kNoNode) {
                free_ = pool_[fresh].next;
                pool_[fresh] = {t, kNoNode};
            } else {
                fresh = static_cast<uint32_t>(pool_.size());
                pool_.push_back({t, kNoNode});
            }
            (tail == kNoNode ? head_[x] : pool_[tail].next) = fresh;
            return true;
        }

        bool
        contains(VarId x, ThreadId t) const
        {
            for (uint32_t n = head_[x]; n != kNoNode; n = pool_[n].next) {
                if (pool_[n].t == t)
                    return true;
            }
            return false;
        }

        /** Remove t from x's set; false if it was not there. */
        bool
        erase(VarId x, ThreadId t)
        {
            for (uint32_t* link = &head_[x]; *link != kNoNode;
                 link = &pool_[*link].next) {
                Node& n = pool_[*link];
                if (n.t == t) {
                    const uint32_t dead = *link;
                    *link = n.next;
                    n.next = free_;
                    free_ = dead;
                    return true;
                }
            }
            return false;
        }

        /** Call f(t) for every thread of x's set in insertion order, then
         *  empty the set by splicing its chain onto the free list. f must
         *  not touch the pool. */
        template <typename F>
        void
        drain(VarId x, F f)
        {
            const uint32_t first = head_[x];
            if (first == kNoNode)
                return;
            uint32_t last = first;
            for (uint32_t n = first; n != kNoNode; n = pool_[n].next) {
                last = n;
                f(pool_[n].t);
            }
            pool_[last].next = free_;
            free_ = first;
            head_[x] = kNoNode;
        }

        size_t
        memory_bytes() const
        {
            return head_.capacity() * sizeof(uint32_t) +
                   pool_.capacity() * sizeof(Node);
        }

    private:
        struct Node {
            ThreadId t;
            uint32_t next;
        };

        std::vector<uint32_t> head_; ///< per variable; kNoNode = empty set
        std::vector<Node> pool_;
        uint32_t free_ = kNoNode; ///< free-list head, linked through next
    };

    /** staleReaders_x: threads whose last read of x is not yet in R_x,
     *  as chains in one pooled node array (4 bytes per variable plus
     *  8 per outstanding stale read). */
    StaleReaderPool stale_readers_;

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
