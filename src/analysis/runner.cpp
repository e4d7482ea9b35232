#include "analysis/runner.hpp"

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
    // Engines allocate per-thread clock banks over each id space; gate on
    // the products (and a generous thread cap — thread count multiplies
    // everything, including the frontier itself).
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

    // Sources that know the stream's metainfo dimensions up front (binary
    // headers, in-memory traces) let arena-backed engines size their clock
    // banks once instead of re-laying them out inside the timed loop;
    // text sources intern incrementally and grow.
    // Header dimensions are untrusted input: implausible ones skip the
    // hint rather than turn into a giant allocation.
    uint32_t threads = 0, vars = 0, locks = 0;
    if (source.dimensions(threads, vars, locks) &&
        reserve_hint_sane(threads, vars, locks))
        checker.reserve(threads, vars, locks);

    PanicContextScope panic_scope;
    try {
        std::vector<Event> buf(block);
        // Budget polls can no longer ride `i % interval == 0` (the loop
        // steps by blocks): poll on the first boundary at-or-after each
        // interval, including inside a block, so a block larger than the
        // interval cannot blow past max_seconds.
        uint64_t next_poll = 0;
        bool stop = false;
        size_t i = 0;
        while (!stop) {
            const size_t got = source.next_n(buf.data(), block);
            if (got == 0)
                break;
            for (size_t j = 0; j < got; ++j, ++i) {
                if (i >= next_poll) {
                    next_poll = i + budget.check_interval;
                    if (limited &&
                        watch.elapsed_seconds() > budget.max_seconds) {
                        result.timed_out = true;
                        stop = true;
                        break;
                    }
                    if (memory_breached(checker, budget, result)) {
                        stop = true;
                        break;
                    }
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
