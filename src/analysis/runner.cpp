#include "analysis/runner.hpp"

#include <algorithm>
#include <cstdint>

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
                   const RunBudget& budget, size_t block)
{
    RunResult result;
    Stopwatch watch;
    const bool limited = budget.max_seconds > 0;
    block = resolve_ingest_block(block);

    PanicContextScope panic_scope;
    try {
        std::vector<Event> buf(block);
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
            const size_t got = source.next_n(buf.data(), block);
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
                if (checker.process(buf[j], i)) {
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
    result.stream_errors_recovered = source.recovered_error_count();
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
