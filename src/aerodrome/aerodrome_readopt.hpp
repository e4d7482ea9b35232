#pragma once

/**
 * @file
 * AeroDrome with the read-clock reduction — the paper's Algorithm 2
 * (Section 4.3 / Appendix C.1).
 *
 * Algorithm 1 keeps a read clock R_{t,x} per (thread, variable) pair:
 * O(|Thr| * V) clocks. This variant replaces them with two clocks per
 * variable:
 *
 *   - R_x  = |_|_u R_{u,x}          (used to *update* C_t at writes)
 *   - hR_x = |_|_u R_{u,x}[0/u]     (used to *check* violations at writes)
 *
 * hR_x zeroes each reader's own component so a thread's own reads cannot
 * trigger a self-violation. Soundness of the single-clock check rests on
 * the paper's lightweight-timestamp invariant: for an event e1 of thread
 * t1, C_{e1} sqsubseteq C_{e2} holds iff C_{e1}(t1) <= C_{e2}(t1), so
 * comparisons against the begin clock C_t^b reduce to its component t —
 * and against a *join* of clocks that component-wise test is exactly
 * "exists u with C_t^b sqsubseteq R_{u,x}". For that reason every ordering
 * test in this variant uses the one-component form.
 *
 * Storage is epoch-adaptive (vc/adaptive_clock.hpp): L_l, W_x, R_x and
 * hR_x live in ONE AdaptiveClockTable whose entries are compact epochs
 * until first contention and rows of a shared inflation arena after. A
 * variable occupies three adjacent entries (W, R, hR) and the end-event
 * propagation is a single fused pass (the bank-aware end-event batching
 * of the ROADMAP) over the entries enrolled in the ending thread's
 * update window (Algorithm 3's update sets ported back onto the table;
 * vc/adaptive_clock.hpp) — O(|updated since begin|) instead of the whole
 * table, with set_update_sets(false) restoring the literal full sweep.
 * Per-thread clocks C_t / C_t^b stay in ClockBanks; a purity
 * bit per thread ("C_t == bot[v/t]") drives the O(1) fast paths.
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

/** AeroDrome, Algorithm 2 (read-clock reduction). */
class AeroDromeReadOpt : public CheckerBase {
public:
    AeroDromeReadOpt(uint32_t num_threads, uint32_t num_vars,
                     uint32_t num_locks);

    std::string_view name() const override { return "AeroDrome-readopt"; }

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

    /** Test hook: with gc on, run a full sweep every n outermost end
     *  events instead of waiting for the arena-growth trigger (0 restores
     *  the trigger). Makes parity fuzzing reclaim as aggressively as
     *  possible. */
    void set_gc_sweep_every(uint32_t n) { gc_sweep_every_ = n; }

    uint64_t gc_sweeps() const { return gc_sweeps_; }
    const ThreadSlotMap& thread_slots() const { return slots_; }

    StatList counters() const override;

    size_t memory_bytes() const override;

private:
    /** What a table entry stores; drives the fused end-event sweep. */
    enum EntryKind : uint8_t { kLockEntry, kWEntry, kREntry, kHREntry };

    /** Purity of C_u as consumed by fast paths (gated by the toggle). */
    bool
    pure_of(ThreadId u) const
    {
        return epochs_ && c_pure_[u] != 0;
    }

    uint32_t
    add_entry(EntryKind kind)
    {
        kinds_.push_back(kind);
        return tbl_.add_entry();
    }

    /**
     * checkAndGet against table entry `slot`: violation if t's active
     * begin is ordered before it (one-component test); else join it into
     * C_t.
     */
    bool check_and_get_entry(size_t slot, ThreadId t, size_t index,
                             const char* reason);

    /** checkAndGet against the clock of thread `src` (C_src or a bank
     *  row owned by src), pure iff src_pure. */
    bool check_and_get_clock(ConstClockRef clk, ThreadId src, bool src_pure,
                             ThreadId t, size_t index, const char* reason);

    void ensure_thread(ThreadId t);
    void ensure_var(VarId x);
    void ensure_lock(LockId l);
    void grow_dim(size_t n);

    /**
     * W/R/hR table entries of x, allocated on first access. Untouched
     * variables own no table entries, so the fused end sweep and the
     * engine's memory scale with the variables actually seen, not with
     * the id space.
     */
    size_t var_slots(VarId x);

    static constexpr uint32_t kNoSlot = UINT32_MAX;

    bool handle_end(ThreadId t, size_t index);

    /** External tid a violation at row t is charged to: the slot binding
     *  under gc, the identity otherwise. */
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

    /** Retire the joined thread in row s: scrub cached same-owner facts,
     *  continue the clock one past every value it minted, and hand the
     *  row back for reissue. Refused (row leaks, stays live) if an
     *  ill-formed trace joins a thread mid-transaction. */
    void retire_slot(uint32_t s);

    /** Recompute the live-row minimum frontier and sweep the table. */
    void gc_sweep_now();

    /** Sweep when due (growth trigger or the sweep-every test hook);
     *  piggybacks on outermost end events, right after their window
     *  sweep. */
    void maybe_gc_sweep();

    TxnTracker txns_;

    ClockBank c_;  // C_t, one row per thread
    ClockBank cb_; // C_t^begin, one row per thread

    /** L_l, W_x, R_x, hR_x — one adaptive table; var x occupies the
     *  adjacent entries var_base_[x] + {0: W, 1: R, 2: hR}. */
    AdaptiveClockTable tbl_;
    std::vector<uint8_t> kinds_;     // EntryKind per table entry
    std::vector<uint32_t> lock_slot_; // LockId -> entry
    std::vector<uint32_t> var_base_;  // VarId -> W entry (R/hR adjacent)

    /** c_pure_[t] != 0 iff C_t == bot[C_t(t)/t] (never received a foreign
     *  ordering); sound but conservative. */
    std::vector<uint8_t> c_pure_;
    bool epochs_ = true;

    std::vector<ThreadId> last_rel_thr_;
    std::vector<ThreadId> last_w_thr_;

    /** Dead-state reclamation (src/vc/README.md, "Reclamation"). With
     *  gc_ on, every per-thread row is a recycled *slot* and events are
     *  translated through slots_ before processing. */
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
