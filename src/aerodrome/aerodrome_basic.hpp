#pragma once

/**
 * @file
 * AeroDrome, basic variant — a faithful implementation of the paper's
 * Algorithm 1.
 *
 * The algorithm maintains:
 *  - C_t:  timestamp of the last event of thread t;
 *  - C_t^b ("C-begin"): timestamp of the last (outermost) begin of t;
 *  - L_l:  timestamp of the last release of lock l;
 *  - W_x:  timestamp of the last write to variable x;
 *  - R_{t,x}: timestamp of the last read of x by thread t;
 *  - lastRelThr_l / lastWThr_x: thread of the last release/write.
 *
 * All timestamps are prefix-relative (they grow as later events reveal new
 * orderings — the end-event propagation in lines 38-46 of Algorithm 1), and
 * capture the paper's <=_E relation. checkAndGet(clk, t) declares a
 * violation when clk is ordered at-or-after the begin event of t's active
 * transaction (Theorem 2's condition), and otherwise advances C_t.
 *
 * This variant keeps O(|Thr| * Vars) read clocks — exactly the state
 * layout of Algorithm 1. See aerodrome_opt.hpp for the paper's optimized
 * version (Algorithm 3, which contains Algorithm 2). End events,
 * however, no longer scan that whole state: Algorithm 3's per-thread
 * update sets are ported back onto the fused table (the table's update
 * windows, vc/adaptive_clock.hpp), so a sweep visits only the entries
 * whose gate can fire — O(|updated since begin|), not O(locks + vars) —
 * with set_update_sets(false) restoring the literal full sweep.
 *
 * Storage is epoch-adaptive (vc/adaptive_clock.hpp): L_l, W_x and every
 * R_{t,x} are entries of ONE AdaptiveClockTable — a compact (value@thread)
 * epoch until first contention, a shared-arena bank row after. Because
 * Algorithm 1 applies the *same* gate-and-join to every lock, write and
 * read clock at an end event, the per-lock and per-variable propagation
 * loops fuse into a single homogeneous pass over the table (bank-aware
 * end-event batching). Per-thread clocks C_t / C_t^b stay in ClockBanks
 * with purity bits enabling O(1) comparisons in the uncontended case.
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
#include "vc/vector_clock.hpp"

namespace aero {

/** Statistics for the evaluation harness. */
struct AeroDromeStats {
    /** Number of vector-clock join operations performed. */
    RelaxedCounter joins;
    /** Number of vector-clock ordering comparisons performed. */
    RelaxedCounter comparisons;
    /** Table entries visited by end-event sweeps: the update-set size
     *  when tracked, the whole table when not — the complexity-guard
     *  suite asserts this scales with the former. */
    RelaxedCounter end_swept_entries;
    /** Visited entries whose propagation gate was false (enrollment is an
     *  over-approximation; a full sweep skips most of the table). */
    RelaxedCounter end_gate_skipped;
};

/** AeroDrome, Algorithm 1 (basic). */
class AeroDromeBasic : public CheckerBase {
public:
    AeroDromeBasic(uint32_t num_threads, uint32_t num_vars,
                   uint32_t num_locks);

    std::string_view name() const override { return "AeroDrome-basic"; }

    bool process(const Event& e, size_t index) override;

    void reserve(uint32_t threads, uint32_t vars, uint32_t locks) override;

    const AeroDromeStats& stats() const { return stats_; }

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

    /** Toggle end-event update sets (Algorithm 3's sets ported back onto
     *  the fused table); call before the first event. Off reproduces the
     *  full-table end sweep. */
    void set_update_sets(bool on) { tbl_.set_update_sets_enabled(on); }

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

    /** Test hook: current clock of thread t (C_t). */
    VectorClock clock_of(ThreadId t) const
    {
        return c_[t].to_vector_clock();
    }

    /** Test hook: begin clock of thread t (C_t^b). */
    VectorClock begin_clock_of(ThreadId t) const
    {
        return cb_[t].to_vector_clock();
    }

    /** Test hook: last-write clock of variable x (W_x). */
    VectorClock write_clock_of(VarId x) const
    {
        if (x >= w_slot_.size() || w_slot_[x] == kNoSlot)
            return VectorClock(); // never accessed: still bottom
        return tbl_.to_vector_clock(w_slot_[x]);
    }

private:
    static constexpr uint32_t kNoSlot = UINT32_MAX;

    /** Purity of C_u / C_u^b as consumed by fast paths (gated by the
     *  epochs toggle). */
    bool
    pure_of(ThreadId u) const
    {
        return epochs_ && c_pure_[u] != 0;
    }
    bool
    begin_pure_of(ThreadId u) const
    {
        return epochs_ && cb_pure_[u] != 0;
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

    /**
     * The paper's checkAndGet(clk, t) against table entry `slot`: declare
     * a violation if t has an active transaction whose begin clock is
     * ordered before the entry; otherwise C_t := C_t |_| entry.
     * @return true iff a violation was declared.
     */
    bool check_and_get_entry(size_t slot, ThreadId t, size_t index,
                             const char* reason);

    /** checkAndGet against the clock of thread `src` (pure iff src_pure). */
    bool check_and_get_clock(ConstClockRef clk, ThreadId src, bool src_pure,
                             ThreadId t, size_t index, const char* reason);

    /** Entry for R_{t,x}, materialized on t's first read of x. */
    uint32_t reader_slot(VarId x, ThreadId t);

    /** W_x's table entry, allocated on first access of x — untouched
     *  variables own no entries, so the fused end sweep scales with the
     *  variables actually seen. */
    uint32_t w_slot(VarId x);

    void ensure_thread(ThreadId t);
    void ensure_var(VarId x);
    void ensure_lock(LockId l);

    /** Grow the clock dimension of every bank to n (threads seen). */
    void grow_dim(size_t n);

    bool handle_end(ThreadId t, size_t index);

    TxnTracker txns_;

    ClockBank c_;  // C_t, one row per thread
    ClockBank cb_; // C_t^begin, one row per thread

    /** L_l, W_x and R_{t,x} in one adaptive table; Algorithm 1 treats
     *  them uniformly at end events, so the table needs no entry kinds. */
    AdaptiveClockTable tbl_;
    std::vector<uint32_t> lock_slot_; // LockId -> entry
    std::vector<uint32_t> w_slot_;    // VarId -> entry
    /** r_slot_[x][t] -> entry of R_{t,x}, kNoSlot until t reads x
     *  (mirroring Algorithm 1's lazily-extended table). */
    std::vector<std::vector<uint32_t>> r_slot_;
    /** Reader entries of retired slots that were still live (non-bottom)
     *  at retirement. They keep their Algorithm 1 role — every later
     *  write to x checks them — until a sweep proves them dead, which
     *  resets them to bottom and releases their indices for
     *  add_entry_reusable. Only populated under gc. */
    std::vector<std::vector<uint32_t>> orphan_r_;

    /** Purity bits: c_pure_[t] iff C_t == bot[v/t]; cb_pure_[t] the same
     *  for C_t^b. Sound but conservative. */
    std::vector<uint8_t> c_pure_;
    std::vector<uint8_t> cb_pure_;
    bool epochs_ = true;

    std::vector<ThreadId> last_rel_thr_;
    std::vector<ThreadId> last_w_thr_;

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
};

} // namespace aero
