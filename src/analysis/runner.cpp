#include "analysis/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <system_error>
#include <thread>

#include <sched.h>

#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/stopwatch.hpp"
#include "trace/stream.hpp"

namespace aero {

namespace {

/** Memory-cap poll at each budget check. @return true when the run
 *  must stop (internal_error set). */
bool
memory_breached(AtomicityChecker& checker, const RunBudget& budget,
                RunResult& result)
{
    const bool fault_armed =
        FaultInjector::instance().armed_for(FaultSite::kAlloc);
    if (budget.max_memory_bytes == 0 && !fault_armed)
        return false;
    const uint64_t bytes = checker.memory_bytes();
    if (fault_armed && FaultInjector::instance().alloc_breach(bytes)) {
        result.internal_error =
            "memory cap breached (injected) at " + std::to_string(bytes) +
            " bytes";
        return true;
    }
    if (budget.max_memory_bytes != 0 && bytes > budget.max_memory_bytes) {
        result.internal_error =
            "memory cap breached: " + std::to_string(bytes) + " > " +
            std::to_string(budget.max_memory_bytes) + " bytes";
        return true;
    }
    return false;
}

/**
 * Where the next wall-clock poll of a limited budget falls. Each poll
 * measures the cost per event since the previous one and schedules the
 * next about one slice of work later: a quarter of the overshoot the
 * budget allows, max(5% of it, 50 ms). The interval at most doubles
 * per poll, so a run that turns slow is caught within a few polls, and
 * never exceeds check_interval. Polls land on multiples of the
 * interval, so a steady fast run polls on check_interval boundaries.
 * A measurement that spans a block's decode only re-baselines.
 */
class PollPace {
public:
    PollPace(double max_seconds, uint64_t check_interval)
        : slice_(std::max(0.05 * max_seconds, 0.05) / 4),
          cap_(std::max<uint64_t>(check_interval, 1))
    {
    }

    /** Index of the next poll after one at event i, `now` seconds in. */
    uint64_t
    next(uint64_t i, double now)
    {
        if (i > last_i_ && !new_block_) {
            // Events that fit in one slice at the cost just measured.
            const double fit = slice_ * static_cast<double>(i - last_i_) /
                               std::max(now - last_t_, 1e-9);
            const uint64_t grown = std::min(cap_, 2 * interval_);
            interval_ = fit < 1 ? 1
                        : fit < static_cast<double>(grown)
                            ? static_cast<uint64_t>(fit)
                            : grown;
        }
        new_block_ = false;
        last_i_ = i;
        last_t_ = now;
        return (i / interval_ + 1) * interval_;
    }

    /** A block was decoded since the last poll. */
    void start_block() { new_block_ = true; }

private:
    double slice_;
    uint64_t cap_;
    uint64_t interval_ = 1;
    uint64_t last_i_ = 0;
    double last_t_ = 0;
    bool new_block_ = false;
};

/** Blocks in the decode-ahead ring: the one being checked and up to
 *  two decoded ahead of it. */
constexpr uint64_t kRingDepth = 3;
/** The worker's sleep between two looks at a full ring. */
constexpr auto kFullRingPoll = std::chrono::microseconds(20);

using Clock = std::chrono::steady_clock;

uint64_t
ns_between(Clock::time_point from, Clock::time_point to)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

/** The CPUs this thread may run on, into `set`. @return true when
 *  there are at least two. */
bool
second_cpu_allowed(cpu_set_t& set)
{
    CPU_ZERO(&set);
    return sched_getaffinity(0, sizeof set, &set) == 0 &&
           CPU_COUNT(&set) >= 2;
}

/**
 * Hands the run loop its blocks. The first block is decoded inline;
 * when it comes back full, the source may not block and a second CPU is
 * allowed, a worker thread takes the source over and fills a ring of
 * kRingDepth blocks while the loop checks the oldest one in place.
 *
 * The ring is two counters and no lock: the worker publishes a slot by
 * advancing filled_, the loop frees one by advancing drained_. The
 * worker sleeps kFullRingPoll between looks at a full ring; the loop
 * yields its CPU between looks at an empty one (a pause-spin would
 * invite the hypervisor to deschedule it). Neither side wakes the
 * other. The worker's last slot is terminal: empty at end of stream, or
 * holding what next_n threw, which next() rethrows after every block
 * before it, where the sequential loop would have thrown it.
 */
class BlockFeed {
public:
    BlockFeed(EventSource& source, size_t block)
        : source_(source), block_(block)
    {
        // Default-initialised: a block is written before it is read.
        slots_[0].events.reset(new Event[block]);
    }

    ~BlockFeed() { stop(); }

    BlockFeed(const BlockFeed&) = delete;
    BlockFeed& operator=(const BlockFeed&) = delete;

    /** Free the block last returned and point `events` at the next.
     *  @return its event count, 0 at end of stream; rethrows what the
     *  source threw. */
    size_t
    next(const Event*& events)
    {
        if (!worker_.joinable())
            return next_inline(events);
        const uint64_t d = drained_.load(std::memory_order_relaxed) + 1;
        drained_.store(d, std::memory_order_release);
        if (filled_.load(std::memory_order_acquire) == d) {
            const Clock::time_point from = Clock::now();
            while (filled_.load(std::memory_order_acquire) == d)
                std::this_thread::yield();
            wait_ns_ += ns_between(from, Clock::now());
        }
        const Slot& slot = slots_[d % kRingDepth];
        recovered_ = slot.recovered;
        if (slot.error)
            std::rethrow_exception(slot.error);
        events = slot.events.get();
        return slot.got;
    }

    /** Stop and join the worker, if one runs. */
    void
    stop()
    {
        if (worker_.joinable()) {
            stop_.store(true, std::memory_order_relaxed);
            worker_.join();
        }
    }

    /** Tally the run's ingest figures into `result`, after stop(). */
    void
    report(RunResult& result) const
    {
        result.stream_errors_recovered = recovered_;
        result.decode_seconds =
            static_cast<double>(inline_ns_ + worker_ns_) * 1e-9;
        result.wait_seconds =
            static_cast<double>(inline_ns_ + wait_ns_) * 1e-9;
        result.decoded_ahead = decoded_ahead_;
    }

private:
    struct Slot {
        std::unique_ptr<Event[]> events;
        size_t got = 0;
        /** The source's recovered_error_count() after this block. */
        uint64_t recovered = 0;
        std::exception_ptr error;
    };

    size_t
    next_inline(const Event*& events)
    {
        const Clock::time_point from = Clock::now();
        const size_t got = source_.next_n(slots_[0].events.get(), block_);
        inline_ns_ += ns_between(from, Clock::now());
        recovered_ = source_.recovered_error_count();
        events = slots_[0].events.get();
        if (first_) {
            first_ = false;
            cpu_set_t allowed;
            if (got == block_ && !source_.may_block() &&
                second_cpu_allowed(allowed))
                start(allowed);
        }
        return got;
    }

    /** Slot 0 holds the block being checked; the worker fills on. */
    void
    start(const cpu_set_t& allowed)
    {
        for (uint64_t k = 1; k < kRingDepth; ++k)
            slots_[k].events.reset(new Event[block_]);
        filled_.store(1, std::memory_order_relaxed);
        try {
            worker_ = std::thread(&BlockFeed::work, this, allowed,
                                  sched_getcpu());
            decoded_ahead_ = true;
        } catch (const std::system_error&) {
            // No thread to be had: keep decoding inline.
        }
    }

    /** The worker: leave the checker's CPU, then fill the ring. A new
     *  thread starts on its creator's CPU, and where the kernel does not
     *  balance load (a cpuset with sched_load_balance off) it would stay
     *  there, taking turns with the checker. Narrowing the mask moves
     *  it; restoring the mask at once leaves the kernel free to move it
     *  again. */
    void
    work(cpu_set_t allowed, int checker_cpu)
    {
        if (checker_cpu >= 0) {
            cpu_set_t elsewhere = allowed;
            CPU_CLR(checker_cpu, &elsewhere);
            sched_setaffinity(0, sizeof elsewhere, &elsewhere);
            sched_setaffinity(0, sizeof allowed, &allowed);
        }
        Clock::time_point from = Clock::now();
        for (uint64_t f = 1;; ++f) {
            if (f - drained_.load(std::memory_order_acquire) == kRingDepth) {
                do {
                    if (stop_.load(std::memory_order_relaxed))
                        return;
                    std::this_thread::sleep_for(kFullRingPoll);
                } while (f - drained_.load(std::memory_order_acquire) ==
                         kRingDepth);
                from = Clock::now();
            }
            if (stop_.load(std::memory_order_relaxed))
                return;
            Slot& slot = slots_[f % kRingDepth];
            try {
                slot.got = source_.next_n(slot.events.get(), block_);
            } catch (...) {
                slot.got = 0;
                slot.error = std::current_exception();
            }
            slot.recovered = source_.recovered_error_count();
            const Clock::time_point to = Clock::now();
            worker_ns_ += ns_between(from, to);
            from = to;
            filled_.store(f + 1, std::memory_order_release);
            if (slot.got == 0)
                return;
        }
    }

    EventSource& source_;
    const size_t block_;
    Slot slots_[kRingDepth];
    bool first_ = true;
    bool decoded_ahead_ = false;
    uint64_t recovered_ = 0;
    uint64_t inline_ns_ = 0; ///< checking thread, decoding inline
    uint64_t wait_ns_ = 0;   ///< checking thread, on an empty ring
    uint64_t worker_ns_ = 0; ///< worker, in next_n; read after the join
    /** Slots published by the worker, and slots the loop has freed. */
    alignas(64) std::atomic<uint64_t> filled_{0};
    alignas(64) std::atomic<uint64_t> drained_{0};
    std::atomic<bool> stop_{false};
    /** Last: it runs work(), which uses every member above. */
    std::thread worker_;
};

} // namespace

const char*
run_status_name(RunStatus status)
{
    switch (status) {
      case RunStatus::kOk:
        return "ok";
      case RunStatus::kViolation:
        return "violation";
      case RunStatus::kTimeout:
        return "timeout";
      case RunStatus::kDegraded:
        return "degraded";
      case RunStatus::kStreamError:
        return "stream-error";
      case RunStatus::kInternalError:
        return "internal-error";
    }
    return "?";
}

bool
reserve_hint_sane(uint32_t threads, uint32_t vars, uint32_t locks)
{
    // Kept for perfbench's aerobench (see runner.hpp): gate on the
    // products and a generous thread cap.
    constexpr uint64_t kMaxProduct = 1ull << 28;
    constexpr uint64_t kMaxThreads = 1u << 12;
    const uint64_t t = threads;
    return t <= kMaxThreads && t * vars <= kMaxProduct &&
           t * locks <= kMaxProduct && t * t <= kMaxProduct;
}

RunResult
run_checker_stream(AtomicityChecker& checker, EventSource& source,
                   const RunBudget& budget)
{
    RunResult result;
    Stopwatch watch;
    const bool limited = budget.max_seconds > 0;

    BlockFeed feed(source, kDefaultIngestBlock);
    PanicContextScope panic_scope;
    try {
        // Memory polls fire on the first event at-or-after every
        // check_interval, inside blocks too. A time budget also reads
        // the clock at PollPace's intervals, and at a block's start when
        // none falls inside it, so a slow engine cannot run far past
        // max_seconds. Unlimited runs never read the clock here.
        PollPace pace(budget.max_seconds, budget.check_interval);
        uint64_t next_mem = 0;
        uint64_t next_time = limited ? 0 : UINT64_MAX;
        uint64_t next_poll = 0;
        bool stop = false;
        size_t i = 0;
        while (!stop) {
            const Event* events = nullptr;
            const size_t got = feed.next(events);
            if (got == 0)
                break;
            if (limited) {
                pace.start_block();
                if (next_time >= i + got)
                    next_time = next_poll = i;
            }
            for (size_t j = 0; j < got; ++j, ++i) {
                if (i >= next_poll) {
                    if (i >= next_time) {
                        const double now = watch.elapsed_seconds();
                        if (now > budget.max_seconds) {
                            result.timed_out = true;
                            stop = true;
                            break;
                        }
                        next_time = pace.next(i, now);
                    }
                    if (i >= next_mem) {
                        next_mem = i + budget.check_interval;
                        if (memory_breached(checker, budget, result)) {
                            stop = true;
                            break;
                        }
                    }
                    next_poll = std::min(next_time, next_mem);
                }
                panic_scope.set_index(i);
                ++result.events_processed;
                if (checker.process(events[j], i)) {
                    result.violation = true;
                    stop = true;
                    break;
                }
            }
        }
    } catch (const StreamCorruption& e) {
        result.stream_error = e.error(); // structured; run ends here
    } catch (const InternalError& e) {
        result.internal_error = e.what(); // contained panic
    }
    feed.stop();
    feed.report(result);
    result.seconds = watch.elapsed_seconds();
    result.details = checker.violation();
    result.counters = checker.counters();
    return result;
}

RunResult
run_checker(AtomicityChecker& checker, const Trace& trace,
            const RunBudget& budget)
{
    TraceSource source(trace);
    return run_checker_stream(checker, source, budget);
}

} // namespace aero
