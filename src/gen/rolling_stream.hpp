#pragma once

/**
 * @file
 * Rolling-stream generator — an unbounded, violation-free synthetic
 * workload for the reclamation soak tests (tests/soak_memory_test.cpp)
 * and perfbench's `rolling` workload.
 *
 * The stream models a long-running server: a fixed-size pool of worker
 * threads runs strict-2PL transactions (stripe lock acquired before the
 * begin, released after the end, every accessed variable guarded by that
 * stripe — conflict serializable by construction, so every checker must
 * answer "no violation" on any prefix), while
 *
 *  - thread churn: every churn_every events the main thread joins the
 *    oldest worker and forks a replacement with a fresh external thread
 *    id, so the set of *live* threads stays at `workers` but the id
 *    space grows without bound — exactly the load thread-slot recycling
 *    exists for; and
 *  - working-set drift: every drift_every events the hot window slides
 *    by half its width around a fixed ring of `vars` variables, so old
 *    clock entries go cold and become reclaimable while the live
 *    footprint stays put.
 *
 * An engine that kept every thread's state would grow with the trace;
 * under reclamation the soak test asserts memory_bytes() plateaus.
 *
 * Events are produced one transaction at a time (workers round-robin),
 * deterministically from the seed: the same options always yield the
 * same stream, and two sources with the same options can be drawn
 * independently (e.g. one per engine).
 */

#include <cstdint>
#include <deque>

#include "support/rng.hpp"
#include "trace/stream.hpp"

namespace aero::gen {

/** Shape parameters for the rolling stream. */
struct RollingStreamOptions {
    /** Live worker threads (besides the forking main thread). */
    uint32_t workers = 8;
    /** Events between join-oldest/fork-fresh churn steps (0 = never). */
    uint32_t churn_every = 4096;
    /** Size of the variable ring (rounded up to a multiple of locks). */
    uint32_t vars = 4096;
    /** Width of the hot window the accesses draw from. */
    uint32_t hot_window = 256;
    /** Events between hot-window slides (0 = never). */
    uint32_t drift_every = 8192;
    /** Stripe locks; variable v is guarded by lock v % locks. */
    uint32_t locks = 8;
    /** Reads/writes per transaction. */
    uint32_t txn_accesses = 8;
    /** Percentage of accesses that are writes. */
    uint32_t write_pct = 40;
    /** Stop after this many events (0 = unbounded). */
    uint64_t max_events = 0;
    uint64_t seed = 1;
};

/** Pull-based unbounded violation-free workload (see file comment). */
class RollingStreamSource : public EventSource {
public:
    explicit RollingStreamSource(const RollingStreamOptions& opts);

    bool next(Event& out) override;

    /** External thread ids ever issued (grows with churn). */
    uint32_t threads_issued() const { return next_tid_; }
    /** Events produced so far. */
    uint64_t produced() const { return produced_; }

private:
    void emit_txn();
    void emit_churn();

    RollingStreamOptions opts_;
    Rng rng_;
    std::deque<Event> pending_;
    /** Live worker tids, oldest first. */
    std::deque<ThreadId> live_;
    uint32_t next_tid_ = 0;
    uint32_t rr_ = 0; // round-robin cursor into live_
    uint32_t hot_base_ = 0;
    uint64_t produced_ = 0;
    uint64_t next_churn_ = 0;
    uint64_t next_drift_ = 0;
};

} // namespace aero::gen
