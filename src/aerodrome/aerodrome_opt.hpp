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
 * 2. Per-thread update sets, as the variable table's update windows
 *    (vc/adaptive_clock.hpp). Each outermost begin opens a window;
 *    every eager mutation of a W_x or R_x entry, every release into
 *    L_l and every end's join into L_l enrolls the clock into the
 *    window of each thread whose end gate it could make fireable, and a
 *    lazy access enrolls its entry into the accessing thread's own
 *    window (enroll_pending) when the thread newly becomes a stale
 *    reader or the stale writer. hR_x enrolls nothing: each of its
 *    updates comes with an R_x update from the same clock, and R_x's
 *    gate drives both. An end event visits only its window's entries,
 *    never the variable or the lock table: one window walk reaches W_x,
 *    R_x and L_l, and no access scans the thread rows. A thread ordered
 *    before a lazy access needs no entry of its own for it: if its
 *    window is still open when the stale value is flushed, the flush's
 *    join enrolls the entry; if it ended first, its end joined its clock
 *    into the lazy accessor's clock, which the flush carries.
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
 * kind and variable follow from its index. The L_l live in a second
 * table that opens no windows; lock l rides the first table's windows
 * under code 3l+2, which no hR_x takes since hR_x never enrolls. Both
 * tables and every per-id array grow with the ids the events use (at
 * most 2x the highest), never with a trace header's declared counts.
 * Both give O(1) conflict checks and updates while the touched state
 * stays epoch-shaped, inflating into their arena on first contention.
 * Purity bits on C_t drive the fast paths. The staleReaders_x sets are
 * chains in one pooled node array (StaleReaderPool), so a variable
 * without stale readers costs a 4-byte head and no allocation of its
 * own.
 */

#include <cstdint>
#include <vector>

#include "analysis/checker.hpp"
#include "analysis/thread_slots.hpp"
#include "analysis/txn_tracker.hpp"
#include "support/counter.hpp"
#include "trace/trace.hpp"
#include "vc/adaptive_clock.hpp"
#include "vc/clock_bank.hpp"
#include "vc/gc.hpp"
#include "vc/zeroed_storage.hpp"

namespace aero {

/** Statistics for the evaluation harness. */
struct AeroDromeStats {
    /** Number of vector-clock join operations performed. */
    RelaxedCounter joins;
    /** Number of vector-clock ordering comparisons performed. */
    RelaxedCounter comparisons;
    /** Variable-table entries visited by end-event window walks (the sum
     *  of the update-window sizes) — the complexity-guard suite asserts
     *  this stays small against a large table. */
    RelaxedCounter end_swept_entries;
    /** Visited entries whose propagation gate was false (enrollment is an
     *  over-approximation). */
    RelaxedCounter end_gate_skipped;
};

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

    const AeroDromeStats& stats() const { return stats_; }
    const AeroDromeOptStats& opt_stats() const { return opt_stats_; }

    /** Epoch-adaptive storage statistics (hits, inflations), summed over
     *  the variable and lock tables. */
    AdaptiveClockStats epoch_stats() const;

    /** Test hook: sweep every n outermost ends (0 restores the
     *  arena-growth trigger). Sweeps it triggers always scan: it is the
     *  no-skip reference for the growth trigger. */
    void set_gc_sweep_every(uint32_t n) { gc_sweep_every_ = n; }

    uint64_t gc_sweeps() const { return gc_sweeps_; }
    /** Sweeps that skipped the table scans (counted in gc_sweeps). */
    uint64_t gc_sweeps_skipped() const { return gc_sweeps_skipped_; }
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
    /** Purity of C_u as consumed by fast paths. */
    bool pure_of(ThreadId u) const { return c_pure_[u] != 0; }

    /** External tid a violation at row t is charged to. */
    ThreadId
    rid(ThreadId t) const
    {
        ThreadId ext = slots_.ext_of(t);
        return ext == kNoThread ? t : ext;
    }

    /** Row for external tid `ext` (allocating reuse-first). */
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

    /** True iff joining u into t adds no transaction to any cycle: u has
     *  performed no event and t forked it inside its current
     *  transaction, so the fork and join edges both stay inside it. */
    bool
    eventless_child(ThreadId u, ThreadId t) const
    {
        return !acted_[u] && parent_thread_[u] == t &&
               parent_txn_seq_[u] != 0 && txns_.active(t) &&
               txns_.seq(t) == parent_txn_seq_[u];
    }

    /** Algorithm 3's hasIncomingEdge(t), evaluated at t's end event. */
    bool has_incoming_edge(ThreadId t);

    /** Flush staleReaders_x into R_x / hR_x (before a write's checks). */
    void flush_stale_readers(VarId x);

    /** Variable x's W_x entry; R_x and hR_x follow it. */
    static size_t w_entry(VarId x) { return 3 * size_t{x}; }
    /** Lock l's window code in tbl_: the index of hR_l, which never
     *  enrolls. */
    static size_t lock_code(LockId l) { return 3 * size_t{l} + 2; }

    void ensure_thread(ThreadId t);
    void ensure_var(VarId x);
    void ensure_lock(LockId l);
    void grow_dim(size_t n);

    bool handle_end(ThreadId t, size_t index);

    TxnTracker txns_;

    ClockBank c_;  // one row per thread
    ClockBank cb_; // one row per thread

    /** W_x, R_x, hR_x at entries w_entry(x) + {0, 1, 2}; update windows
     *  open at outermost begins and also carry L_l, as lock_code(l). */
    AdaptiveClockTable tbl_;
    /** L_l at entry l; it opens no windows of its own. */
    AdaptiveClockTable locks_;

    /** c_pure_[t] != 0 iff C_t == bot[v/t]; sound but conservative. */
    std::vector<uint8_t> c_pure_;

    /** The per-lock and per-variable arrays below live on ZeroedStorage
     *  and read an all-zero element as empty (BiasedId: the zero word is
     *  kNoThread / kNoNode), so growing them to a huge id writes
     *  nothing. */
    ZeroedArray<BiasedId> last_rel_thr_;
    ZeroedArray<BiasedId> last_w_thr_;

    /** staleWrite_x: W_x lags behind the last write, whose timestamp is
     *  the live clock of last_w_thr_[x] (within that thread's still-active
     *  transaction). */
    ZeroedArray<uint8_t> stale_write_;
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
        void resize(size_t n) { head_.resize(n); }

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
            if (tail == kNoNode)
                head_[x] = fresh;
            else
                pool_[tail].next = fresh;
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
            uint32_t prev = kNoNode;
            for (uint32_t n = head_[x]; n != kNoNode; n = pool_[n].next) {
                if (pool_[n].t == t) {
                    if (prev == kNoNode)
                        head_[x] = pool_[n].next;
                    else
                        pool_[prev].next = pool_[n].next;
                    pool_[n].next = free_;
                    free_ = n;
                    return true;
                }
                prev = n;
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
            return head_.memory_bytes() + pool_.capacity() * sizeof(Node);
        }

    private:
        struct Node {
            ThreadId t;
            uint32_t next;
        };

        ZeroedArray<BiasedId> head_; ///< per variable; kNoNode = empty set
        std::vector<Node> pool_;
        uint32_t free_ = kNoNode; ///< free-list head, linked through next
    };

    /** staleReaders_x: threads whose last read of x is not yet in R_x,
     *  as chains in one pooled node array (4 bytes per variable plus
     *  8 per outstanding stale read). */
    StaleReaderPool stale_readers_;

    /** Fork bookkeeping for hasIncomingEdge's "parentTr is alive" and
     *  for eventless_child(). */
    std::vector<ThreadId> parent_thread_;
    std::vector<uint64_t> parent_txn_seq_; // 0 = fork outside a transaction
    /** acted_[s] != 0 once slot s's thread performed an event; cleared
     *  when the slot retires. */
    std::vector<uint8_t> acted_;

    /** Dead-state reclamation (src/vc/README.md, "Reclamation"). */
    ThreadSlotMap slots_;
    GcFrontier gcf_;
    /** The frontier of the last sweep that scanned the tables, and
     *  whether that scan reclaimed nothing: a later sweep at the same
     *  frontier is skipped (gc_sweep_now). */
    GcFrontier gc_scanned_;
    bool gc_fruitless_ = false;
    uint64_t gc_sweeps_ = 0;
    uint64_t gc_sweeps_skipped_ = 0;
    /** Table entries walked by the sweeps that scanned. */
    uint64_t gc_scanned_words_ = 0;
    /** last_w_thr_ and last_rel_thr_ entries walked by retire_slot. */
    uint64_t retire_scanned_words_ = 0;
    /** Thread rows (clock components) walked by has_incoming_edge and
     *  the propagated end's peer loop. */
    uint64_t thread_rows_walked_ = 0;
    /** Live entries found by the last sweep that scanned. */
    uint64_t gc_live_entries_ = 0;
    size_t gc_rows_baseline_ = 0;
    uint32_t gc_sweep_every_ = 0;
    uint32_t gc_ends_ = 0;

    AeroDromeStats stats_;
    AeroDromeOptStats opt_stats_;
};

} // namespace aero
