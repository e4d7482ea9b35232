#pragma once

/**
 * @file
 * AeroDrome-tuned — Algorithm 3 plus the engineering fast paths the paper
 * sketches as future work (Section 7: "improving the efficiency of the
 * proposed dynamic analysis ... includes the classic epoch optimizations
 * [FastTrack]"). Two additions, both semantics-preserving:
 *
 * 1. Active-thread list. Algorithm 3 enrolls every access's variable in
 *    the update sets of all threads whose active transaction is ordered
 *    before the access — an O(|Thr|) scan per event. Most threads have
 *    no open transaction most of the time, so this engine maintains the
 *    set of transaction-holding threads and scans only those.
 *
 * 2. Same-epoch skips (FastTrack's owned-access idea). A read of x by
 *    thread t is a complete no-op when t already read x, t's clock has
 *    not changed since, and x has not been written since: the conflict
 *    check would evaluate identically, t is already in staleReaders_x,
 *    and no thread's update-set membership can have changed (a
 *    transaction that began in between has a begin counter strictly
 *    above anything t's unchanged clock has seen). The same reasoning
 *    skips a repeated write when t is the stale last writer, no reader
 *    intervened, and t's clock is unchanged. Tight loops that hammer one
 *    variable — the dominant pattern the paper's lazy updates target —
 *    reduce to two array compares per event.
 *
 * The same-epoch *skips* above elide whole events; the epoch-adaptive
 * *storage* (vc/adaptive_clock.hpp) additionally makes the events that do
 * run O(1) while their state stays epoch-shaped: L_l, W_x, R_x and hR_x
 * share one AdaptiveClockTable, inflating into the shared arena on first
 * contention, with purity bits on C_t driving the fast paths.
 *
 * Every verdict must equal AeroDromeOpt's; the differential suite
 * enforces this on the fuzz corpus.
 */

#include <cstdint>
#include <vector>

#include "aerodrome/aerodrome_basic.hpp" // AeroDromeStats
#include "aerodrome/aerodrome_opt.hpp"   // AeroDromeOptStats
#include "analysis/checker.hpp"
#include "analysis/thread_slots.hpp"
#include "analysis/txn_tracker.hpp"
#include "trace/trace.hpp"
#include "vc/adaptive_clock.hpp"
#include "vc/clock_bank.hpp"
#include "vc/gc.hpp"

namespace aero {

/** Extra statistics for the tuned engine. */
struct AeroDromeTunedStats {
    /** Reads skipped by the same-epoch fast path. */
    RelaxedCounter same_epoch_reads;
    /** Writes skipped by the same-epoch fast path. */
    RelaxedCounter same_epoch_writes;
};

/** AeroDrome with active-thread and same-epoch fast paths. */
class AeroDromeTuned : public CheckerBase {
public:
    AeroDromeTuned(uint32_t num_threads, uint32_t num_vars,
                   uint32_t num_locks);

    std::string_view name() const override { return "AeroDrome-tuned"; }

    bool process(const Event& e, size_t index) override;

    void reserve(uint32_t threads, uint32_t vars, uint32_t locks) override;

    const AeroDromeStats& stats() const { return stats_; }
    const AeroDromeOptStats& opt_stats() const { return opt_stats_; }
    const AeroDromeTunedStats& tuned_stats() const { return tuned_stats_; }

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
    bool gc_enabled() const { return gc_; }

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

    bool check_and_get_entry(size_t slot, ThreadId t, size_t index,
                             const char* reason);
    bool check_and_get_entry2(size_t check_slot, size_t join_slot,
                              ThreadId t, size_t index, const char* reason);
    bool check_and_get_clock(ConstClockRef clk, ThreadId src, bool src_pure,
                             ThreadId t, size_t index, const char* reason);

    bool
    begin_before(ThreadId t, ClockValue comp) const
    {
        return cb_[t].get(t) <= comp;
    }

    bool has_incoming_edge(ThreadId t) const;
    void flush_stale_readers(VarId x);
    void enroll_update_sets(ThreadId t, VarId x, bool is_write);
    bool handle_end(ThreadId t, size_t index);

    /** Record that C_t may have changed (invalidates same-epoch skips). */
    void
    bump_clock_version(ThreadId t)
    {
        ++clock_version_[t];
    }

    void add_active(ThreadId t);
    void remove_active(ThreadId t);

    void ensure_thread(ThreadId t);
    void ensure_var(VarId x);
    void ensure_lock(LockId l);
    void grow_dim(size_t n);

    TxnTracker txns_;

    ClockBank c_;  // one row per thread
    ClockBank cb_; // one row per thread

    /** L_l, W_x, R_x, hR_x — one adaptive table; var x occupies entries
     *  var_base_[x] + {0: W, 1: R, 2: hR}. */
    AdaptiveClockTable tbl_;
    std::vector<uint32_t> lock_slot_;
    std::vector<uint32_t> var_base_;

    /** c_pure_[t] != 0 iff C_t == bot[v/t]; sound but conservative. */
    std::vector<uint8_t> c_pure_;
    bool epochs_ = epochs_enabled_default();

    std::vector<ThreadId> last_rel_thr_;
    std::vector<ThreadId> last_w_thr_;
    std::vector<uint8_t> stale_write_;
    std::vector<std::vector<ThreadId>> stale_readers_;

    struct UpdateSet {
        std::vector<VarId> list;
        std::vector<uint8_t> member;
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

    std::vector<ThreadId> parent_thread_;
    std::vector<uint64_t> parent_txn_seq_;

    // Active-thread list with O(1) insert/remove.
    std::vector<ThreadId> active_threads_;
    std::vector<uint32_t> active_pos_; // kNoActive when absent
    static constexpr uint32_t kNoActive = UINT32_MAX;

    // Same-epoch bookkeeping. A skip is valid only if *nothing* about
    // the variable changed since the access being repeated, so
    // var_version_ is bumped on every mutation of x's analysis state
    // (writes, stale-set changes, R/W/hR clock joins, flushes, GC
    // resets) and the thread's own clock version must match too.
    std::vector<uint64_t> clock_version_;  // per thread
    std::vector<uint64_t> var_version_;    // per var
    std::vector<ThreadId> last_reader_;    // per var
    std::vector<uint64_t> last_reader_cv_; // clock version at that read
    std::vector<uint64_t> last_reader_vv_; // var version after that read
    std::vector<uint64_t> last_writer_cv_; // writer clock version
    std::vector<uint64_t> last_writer_vv_; // var version after the write

    /** Dead-state reclamation (src/vc/README.md, "Reclamation"). */
    bool gc_ = gc_enabled_default();
    ThreadSlotMap slots_;
    GcFrontier gcf_;
    uint64_t gc_sweeps_ = 0;
    uint64_t gc_live_entries_ = 0;
    size_t gc_rows_baseline_ = 0;
    uint32_t gc_sweep_every_ = 0;
    uint32_t gc_ends_ = 0;

    AeroDromeStats stats_;
    AeroDromeOptStats opt_stats_;
    AeroDromeTunedStats tuned_stats_;
};

} // namespace aero
