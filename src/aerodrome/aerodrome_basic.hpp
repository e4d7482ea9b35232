#pragma once

/**
 * @file
 * AeroDrome, basic variant — the paper's Algorithm 1, literally.
 *
 * The algorithm maintains one vector clock for each of:
 *  - C_t:  timestamp of the last event of thread t;
 *  - C_t^b ("C-begin"): timestamp of the last (outermost) begin of t;
 *  - L_l:  timestamp of the last release of lock l;
 *  - W_x:  timestamp of the last write to variable x;
 *  - R_{t,x}: timestamp of the last read of x by thread t;
 * plus lastRelThr_l / lastWThr_x, the thread of the last release/write.
 *
 * All timestamps are prefix-relative (they grow as later events reveal new
 * orderings — the end-event propagation in lines 38-46 of Algorithm 1), and
 * capture the paper's <=_E relation. checkAndGet(clk, t) declares a
 * violation when clk is ordered at-or-after the begin event of t's active
 * transaction (Theorem 2's condition), and otherwise advances C_t.
 *
 * This engine is the reference the differential, golden and paper-trace
 * suites hold the shipped engine (aerodrome_opt.hpp, Algorithm 3) to, so
 * it shares none of that engine's machinery: every clock is a plain
 * VectorClock, every ordering test is a full vector comparison, and an
 * outermost end runs the peer loop and then the gate-and-join over every
 * L_l, W_x and R_{u,x}. That sweep is Algorithm 1's own cost,
 * O(|Thr| * (locks + |Thr| * vars)) per end, so var-heavy traces run
 * quadratic here; Velodrome is the fast independent engine for
 * cross-checking large traces. There are no epochs, update sets or
 * reclamation.
 *
 * Thread state is created at a thread's first event (C_t := bot[1/t]
 * then), so sparse thread ids cost O(max tid), not O(max tid^2).
 */

#include <cstdint>
#include <vector>

#include "analysis/checker.hpp"
#include "analysis/txn_tracker.hpp"
#include "support/counter.hpp"
#include "vc/vector_clock.hpp"

namespace aero {

/** AeroDrome, Algorithm 1 (basic). */
class AeroDromeBasic : public CheckerBase {
public:
    struct Stats {
        /** Vector-clock join operations performed. */
        RelaxedCounter joins;
        /** Vector-clock ordering comparisons. */
        RelaxedCounter comparisons;
    };

    /** State grows with the ids the trace uses; the dimensions are
     *  accepted for interface parity with the other engines. */
    AeroDromeBasic(uint32_t /*num_threads*/, uint32_t /*num_vars*/,
                   uint32_t /*num_locks*/)
    {}

    std::string_view name() const override { return "AeroDrome-basic"; }

    bool process(const Event& e, size_t index) override;

    const Stats& stats() const { return stats_; }

    StatList counters() const override;

    size_t memory_bytes() const override;

    /** Test hook: current clock of thread t (C_t). */
    VectorClock clock_of(ThreadId t) const { return at(c_, t); }

    /** Test hook: begin clock of thread t (C_t^b). */
    VectorClock begin_clock_of(ThreadId t) const { return at(cb_, t); }

    /** Test hook: last-write clock of variable x (W_x). */
    VectorClock write_clock_of(VarId x) const { return at(w_, x); }

private:
    static VectorClock
    at(const std::vector<VectorClock>& v, size_t i)
    {
        return i < v.size() ? v[i] : VectorClock();
    }

    /**
     * The paper's checkAndGet(clk, t): declare a violation if t has an
     * active transaction whose begin clock is ordered before clk;
     * otherwise C_t := C_t |_| clk.
     * @return true iff a violation was declared.
     */
    bool check_and_get(const VectorClock& clk, ThreadId t, size_t index,
                       const char* reason);

    /** True iff joining u into t adds no transaction to any cycle: u has
     *  performed no event and t forked it inside its current
     *  transaction, so the fork and join edges both stay inside it. */
    bool eventless_child(ThreadId u, ThreadId t) const;

    /** Grow per-thread state to cover t and give t its initial clock
     *  bot[1/t] at its first appearance. */
    void ensure_thread(ThreadId t);
    void ensure_var(VarId x);
    void ensure_lock(LockId l);

    bool handle_end(ThreadId t, size_t index);

    TxnTracker txns_;

    std::vector<VectorClock> c_;  // C_t
    std::vector<VectorClock> cb_; // C_t^b
    std::vector<VectorClock> l_;  // L_l
    std::vector<VectorClock> w_;  // W_x
    /** r_[x][u] = R_{u,x}; bottom (dimension 0) until u reads x. */
    std::vector<std::vector<VectorClock>> r_;

    std::vector<ThreadId> last_rel_thr_;
    std::vector<ThreadId> last_w_thr_;

    /** Fork bookkeeping for eventless_child(). */
    std::vector<ThreadId> parent_thread_;
    std::vector<uint64_t> parent_txn_seq_; // 0 = fork outside a transaction
    std::vector<uint8_t> acted_;           // thread performed an event

    Stats stats_;
};

} // namespace aero
