#pragma once

/**
 * @file
 * The common streaming interface implemented by every atomicity checker in
 * this repository (AeroDrome variants, Velodrome, and adapters around the
 * offline oracle).
 *
 * Checkers are online: they see one event at a time, never the whole trace,
 * and halt at the first violation — matching the paper's setting where the
 * algorithm "exits" when a conflict-serializability violation is declared.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/event.hpp"

namespace aero {

/** Named statistic counters a checker exposes for reports. */
using StatList = std::vector<std::pair<std::string, uint64_t>>;

/** Evidence attached to a detected conflict-serializability violation. */
struct Violation {
    /** Index in the trace of the event at which the violation fired. */
    size_t event_index = 0;
    /** Thread whose active transaction the violation was charged to. */
    ThreadId thread = kNoThread;
    /** Which check fired (human-readable, e.g. "read saw write clock"). */
    std::string reason;
};

/** Streaming conflict-serializability checker. */
class AtomicityChecker {
public:
    virtual ~AtomicityChecker() = default;

    /** Checker name for reports ("AeroDrome", "Velodrome", ...). */
    virtual std::string_view name() const = 0;

    /**
     * Process the next event of the trace.
     *
     * @param e the event
     * @param index its position in the trace (for violation reporting)
     * @return true if this event triggered a violation; the checker must
     *         not be fed further events afterwards.
     */
    virtual bool process(const Event& e, size_t index) = 0;

    /**
     * A no-op that no engine overrides: engines size their state by the
     * ids the events use, never by a trace header. It stays only because
     * perfbench's aerobench replays the runner's former set-up, which
     * called it.
     */
    virtual void reserve(uint32_t /*threads*/, uint32_t /*vars*/,
                         uint32_t /*locks*/)
    {}

    /**
     * Named throughput counters (joins, comparisons, epoch hits,
     * inflations, ...) for the runner's report output. Engines override
     * this to surface their internal statistics; the default is empty.
     *
     * Engines back these with single-writer relaxed atomics
     * (support/counter.hpp), so counters() may be called from another
     * thread while the engine is still processing events.
     */
    virtual StatList counters() const { return {}; }

    /**
     * Approximate bytes of analysis state this engine holds (clock banks,
     * adaptive tables, bookkeeping vectors); 0 when the engine does not
     * account for itself.
     */
    virtual size_t memory_bytes() const { return 0; }

    /** True once a violation has been detected. */
    virtual bool has_violation() const = 0;

    /** Violation details, present iff has_violation(). */
    virtual const std::optional<Violation>& violation() const = 0;
};

/**
 * Shared base handling violation storage; subclasses call report() and
 * return its value from process().
 */
class CheckerBase : public AtomicityChecker {
public:
    bool has_violation() const override { return violation_.has_value(); }

    const std::optional<Violation>&
    violation() const override
    {
        return violation_;
    }

protected:
    /** Record a violation; returns true for convenient tail-return. */
    bool report(size_t index, ThreadId thread, std::string reason);

    std::optional<Violation> violation_;
};

} // namespace aero
