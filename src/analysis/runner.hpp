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
 *
 * The check itself is one online pass on one thread (Algorithm 3 reads
 * one event at a time), but decoding the trace need not wait for it:
 * run_checker_stream decodes blocks ahead on a second thread while the
 * engine checks, a two-stage pipeline (see run_checker_stream).
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
    /** Seconds spent inside the source's next_n: the checking thread's
     *  inline decodes (the first block, or every block when nothing
     *  decoded ahead) plus the decode worker's busy time. */
    double decode_seconds = 0;
    /** Seconds the checking thread waited for its next block: decoding
     *  it inline, or finding the decode-ahead ring empty. Where decode
     *  runs ahead and keeps up, this is about one block's decode; where
     *  it does not, it equals decode_seconds. */
    double wait_seconds = 0;
    /** True when a worker thread decoded blocks ahead of the checker. */
    bool decoded_ahead = false;
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
 * constant-memory path for logs too large to materialize, and the one
 * run loop. Strict-mode stream corruption and contained panics end the
 * run with the matching RunStatus instead of propagating; any other
 * exception propagates.
 *
 * Events are pulled in blocks of kDefaultIngestBlock via
 * EventSource::next_n so block-decoding sources
 * (MappedBinaryEventSource) amortize per-event overhead. Memory polls
 * fire on the first event boundary at-or-after each check_interval,
 * inside a block too. A limited budget reads the clock at least once
 * per block, at intervals paced by the observed ns/event (see
 * RunBudget), so a slow engine cannot blow past max_seconds.
 *
 * Decode ahead. The first block is decoded on the calling thread, so a
 * trace shorter than one block starts no thread. When that block comes
 * back full, the source cannot block (EventSource::may_block) and
 * sched_getaffinity allows at least two CPUs, one worker thread takes
 * the source over: it fills a ring of three blocks with next_n while
 * the checker reads the oldest in place. The worker starts on another
 * CPU than the calling thread's (a kernel that does not balance load
 * would leave the two sharing one). A full ring parks the worker in
 * 20 us sleeps; the checker never wakes it. Under a one-CPU affinity
 * mask, or when no thread can be created, every block is decoded on
 * the calling thread. What next_n throws on the worker is rethrown on the
 * calling thread after every block decoded before it, so the status,
 * the error and events_processed are those of decoding inline, and so
 * is stream_errors_recovered (counted as of the last block checked,
 * not the last decoded). The worker is stopped and joined before this
 * function returns or throws, on every exit: end of stream, violation,
 * budget, memory cap or exception; the source is the worker's alone
 * from its start to that join.
 */
RunResult run_checker_stream(AtomicityChecker& checker, EventSource& source,
                             const RunBudget& budget = {});

} // namespace aero
