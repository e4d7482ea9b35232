#pragma once

/**
 * @file
 * GcFrontier — the live-thread minimum frontier that drives clock-entry
 * reclamation (AdaptiveClockTable::gc_sweep and the engines' thread-slot
 * retirement; see src/vc/README.md, "Reclamation").
 *
 * F[u] = min over the clocks C_w of every *live* thread w of C_w(u). An
 * entry E every non-bottom component u of which satisfies E(u) <= F[u]
 * is invisible to clock evolution: every live clock dominates it, so any
 * join the entry would have contributed downstream is a no-op.
 *
 * Deadness must additionally guarantee the entry can never fire a begin
 * gate again. A gate of thread u tests component u against cb_u(u), and
 * u's own component only grows at u's outermost begins, so:
 *
 *   - while u has NO active transaction, every future gate of u is
 *     minted by a begin tick and is therefore strictly larger than
 *     C_u(u) >= F[u] >= E(u) — non-strict domination already blocks it;
 *   - while u's transaction IS active, cb_u(u) == C_u(u) and an entry
 *     exactly at that value could still satisfy the gate. cap_active()
 *     lowers F[u] to C_u(u) - 1 for exactly those threads, restoring
 *     strictness only where a live gate actually exists;
 *   - a retired (joined) thread's component is never the subject of a
 *     gate until its slot is reissued, and reissue continues the dead
 *     clock (the new thread starts one past the dead thread's own
 *     component), so reissued gates exceed every value the dead thread
 *     ever minted.
 *
 * The non-strict form matters in practice: a live thread that never
 * begins transactions (e.g. the forking main thread) never ticks its
 * own component, so F at that component is pinned at its initial value
 * — which fork propagation puts into every clock in the system. Under a
 * strict rule nothing would ever die; under <=, such components are
 * simply "settled" and entries carrying them reclaim normally.
 *
 * Frontiers may be cached between sweeps: a stale frontier is pointwise
 * <= any later legitimate one (live clocks only grow; retirement only
 * removes rows from the minimum after their values were absorbed by the
 * joiner; a stale active-cap is at most one below the clock it capped),
 * so a stale frontier is merely more conservative, never wrong.
 *
 * The shipped engine uses this to skip sweeps that cannot reclaim
 * (AeroDromeOpt::gc_sweep_now): it keeps the frontier of the last sweep
 * that scanned, and when that scan reclaimed nothing and the new
 * frontier equals it component for component (same dim), it skips both
 * table scans. Entries that were already there survived that frontier
 * and survive it again; an entry written since that would die under it
 * only waits for the next scan, which runs once the frontier moves.
 * Skipping only defers reclamation. The set_gc_sweep_every test hook
 * always scans, so it stays the no-skip reference. A scan itself steps
 * over eight bottom entry words at a time (AdaptiveClockTable::gc_sweep).
 */

#include <cstdint>
#include <vector>

#include "vc/clock_bank.hpp"

namespace aero {

/** Pointwise minimum over a set of live-thread clocks, with per-component
 *  caps at active-transaction gates. */
class GcFrontier {
public:
    /** Start a new accumulation over `dim` components. */
    void
    reset(size_t dim)
    {
        f_.assign(dim, 0);
        rows_ = 0;
    }

    /** Fold one live thread's clock into the pointwise minimum.
     *  Components at or beyond c.dim() are bottom in that clock and pin
     *  the minimum to zero. */
    void
    accumulate(ConstClockRef c)
    {
        const size_t shared = c.dim() < f_.size() ? c.dim() : f_.size();
        if (rows_++ == 0) {
            for (size_t j = 0; j < shared; ++j)
                f_[j] = c.get(j);
        } else {
            for (size_t j = 0; j < shared; ++j) {
                const ClockValue v = c.get(j);
                if (v < f_[j])
                    f_[j] = v;
            }
        }
        for (size_t j = shared; j < f_.size(); ++j)
            f_[j] = 0;
    }

    /** Thread u has an active transaction whose begin gate equals its
     *  current own component `own` (cb_u(u) == C_u(u)): cap F[u] one
     *  below so an entry exactly at the gate survives. Call after all
     *  accumulate() calls. */
    void
    cap_active(size_t u, ClockValue own)
    {
        if (u >= f_.size())
            return;
        const ClockValue cap = own == 0 ? 0 : own - 1;
        if (f_[u] > cap)
            f_[u] = cap;
    }

    /** True when no live clock has been accumulated (an all-zero
     *  frontier: nothing non-bottom is dead). */
    bool empty() const { return rows_ == 0; }

    size_t dim() const { return f_.size(); }

    /** Same dim and the same value at every component: deadness under
     *  the two frontiers is the same predicate. */
    bool operator==(const GcFrontier& o) const { return f_ == o.f_; }

    ClockValue get(size_t u) const { return u < f_.size() ? f_[u] : 0; }

    /** Is epoch value v at component u bottom or at-or-below the
     *  frontier? */
    bool
    dead_component(size_t u, ClockValue v) const
    {
        return v == 0 || (u < f_.size() && v <= f_[u]);
    }

    /** Is the row at or below the frontier at every non-bottom
     *  component? (A bottom row is trivially dead.) */
    bool
    dead_row(ConstClockRef row) const
    {
        for (size_t j = 0; j < row.dim(); ++j) {
            const ClockValue v = row.get(j);
            if (v != 0 && !(j < f_.size() && v <= f_[j]))
                return false;
        }
        return true;
    }

    size_t memory_bytes() const { return f_.capacity() * sizeof(ClockValue); }

private:
    std::vector<ClockValue> f_;
    size_t rows_ = 0;
};

} // namespace aero
