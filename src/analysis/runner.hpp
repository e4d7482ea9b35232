#pragma once

/**
 * @file
 * Timed checker execution with budget enforcement.
 *
 * The paper ran each analysis with a 10-hour timeout and reports "TO" where
 * Velodrome exceeded it (Table 1). The runner reproduces those semantics at
 * laptop scale: a wall-clock budget polled at least once per ingest block
 * and, inside a block, at an event interval derived from the observed
 * cost per event, so a run stops within max(5%, 50 ms) of its budget
 * unless one event alone takes longer.
 *
 * Every run ends in a structured RunStatus — ok, violation, timeout,
 * degraded (resync skipped corrupt records), stream_error (corrupt
 * input), or internal_error (a contained panic / resource-cap breach) —
 * never a hang or a torn result. aerocheck maps these to distinct exit
 * codes.
 */

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/checker.hpp"
#include "trace/stream_error.hpp"
#include "trace/trace.hpp"

namespace aero {

/** Budget for one checker run. */
struct RunBudget {
    /** Wall-clock limit in seconds; <= 0 means unlimited. */
    double max_seconds = 0;
    /** Cap on the checker's reported memory_bytes(), polled at
     *  check_interval; 0 means uncapped. A breach ends the run with
     *  RunStatus::kInternalError rather than an OOM kill. */
    uint64_t max_memory_bytes = 0;
    /** How often (in events) to poll memory; also the longest event
     *  interval between two clock polls of a limited budget. */
    uint64_t check_interval = 65536;
};

/** How a run ended. Ordered by reporting priority (status() below). */
enum class RunStatus : uint8_t {
    kOk = 0,
    kViolation,     ///< definitive: a real violation was found
    kTimeout,       ///< budget expired mid-trace
    kDegraded,      ///< finished, but resync skipped corrupt records
    kStreamError,   ///< corrupt input ended the run (strict mode)
    kInternalError, ///< contained panic / resource cap; result unusable
};

const char* run_status_name(RunStatus status);

/** Outcome of streaming one trace through one checker. */
struct RunResult {
    /** True if the checker declared a conflict-serializability violation. */
    bool violation = false;
    /** True if the budget expired before the trace was exhausted. */
    bool timed_out = false;
    /** Structured cause when corrupt input ended the run (strict mode). */
    std::optional<StreamError> stream_error;
    /** Corrupt records skipped by a resync-mode source: the run
     *  completes, but without an exactness guarantee — a reported
     *  violation is still real, "no violation" is no longer a proof. */
    uint64_t stream_errors_recovered = 0;
    /** Contained internal failure (panic routed through
     *  throwing_panic_handler, memory-cap breach). */
    std::string internal_error;
    /** Events consumed (including the violating event, if any). */
    uint64_t events_processed = 0;
    /** Wall-clock seconds spent inside the checker loop. */
    double seconds = 0;
    /** Violation evidence when violation is true. */
    std::optional<Violation> details;
    /** The checker's named statistic counters, captured after the run
     *  (epoch hits, inflations, joins, ... — see counters()). */
    StatList counters;

    /**
     * Collapse the flags into one status. A found violation dominates
     * everything (it is definitive evidence no failure can retract);
     * then the reasons the run is *not* a proof of serializability, most
     * specific first.
     */
    RunStatus
    status() const
    {
        if (violation)
            return RunStatus::kViolation;
        if (!internal_error.empty())
            return RunStatus::kInternalError;
        if (stream_error)
            return RunStatus::kStreamError;
        if (timed_out)
            return RunStatus::kTimeout;
        if (stream_errors_recovered > 0)
            return RunStatus::kDegraded;
        return RunStatus::kOk;
    }

    /** Paper-style verdict cell: "x" (violation) / "ok" / "TO". */
    const char*
    verdict() const
    {
        if (timed_out)
            return "TO";
        return violation ? "x" : "ok";
    }
};

/** True when these header dimensions have modest products. Nothing in
 *  src/ calls it: engines size state by the ids the events use, never by
 *  a header. It stays only because perfbench's aerobench replays the
 *  runner's former set-up, which gated AtomicityChecker::reserve on it. */
bool reserve_hint_sane(uint32_t threads, uint32_t vars, uint32_t locks);

/** Stream `trace` through `checker` under `budget`: run_checker_stream
 *  over a TraceSource. */
RunResult run_checker(AtomicityChecker& checker, const Trace& trace,
                      const RunBudget& budget = {});

class EventSource;

/**
 * Pull events from `source` through `checker` under `budget` — the
 * constant-memory path for logs too large to materialize. Strict-mode
 * stream corruption and contained panics end the run with the matching
 * RunStatus instead of propagating.
 *
 * Events are pulled in blocks of `block` via EventSource::next_n so
 * block-decoding sources (MappedBinaryEventSource) amortize per-event
 * overhead; 0 means kDefaultIngestBlock (resolve_ingest_block).
 * Memory polls fire on the first event boundary at-or-after each
 * check_interval regardless of the block size. A limited budget reads
 * the clock at least once per block, at intervals paced by the observed
 * ns/event (see RunBudget), so neither a huge block nor a slow engine
 * blows past max_seconds.
 */
RunResult run_checker_stream(AtomicityChecker& checker, EventSource& source,
                             const RunBudget& budget = {},
                             size_t block = 0);

} // namespace aero
