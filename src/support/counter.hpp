#pragma once

/**
 * @file
 * RelaxedCounter — a statistic counter that is safe to *read* from other
 * threads while its single owner keeps incrementing it.
 *
 * The checker engines bump several counters on every event. When a
 * monitoring thread polls counters() mid-run for live progress, plain
 * uint64_t fields would be a data race. A full atomic RMW (`lock xadd`)
 * on every event would instead tax the single-writer hot path for a
 * property it does not need: each counter has exactly one writer (the
 * thread that runs the engine), so a
 * relaxed load + relaxed store compiles to the same plain `add` as a
 * non-atomic field on every mainstream ISA while making concurrent
 * readers well-defined (they see some recent value, never garbage).
 *
 * The single-writer discipline is a contract, not something the type
 * enforces: concurrent increments from two threads would lose updates
 * (acceptable for statistics, still race-free for the language).
 */

#include <atomic>
#include <cstdint>

namespace aero {

/** Single-writer statistic counter with race-free concurrent readers. */
class RelaxedCounter {
public:
    constexpr RelaxedCounter(uint64_t v = 0) noexcept : v_(v) {}

    RelaxedCounter(const RelaxedCounter& o) noexcept : v_(o.load()) {}

    RelaxedCounter&
    operator=(const RelaxedCounter& o) noexcept
    {
        store(o.load());
        return *this;
    }

    RelaxedCounter&
    operator=(uint64_t v) noexcept
    {
        store(v);
        return *this;
    }

    /** Owner-only increment (relaxed load + store, not an RMW). */
    RelaxedCounter&
    operator++() noexcept
    {
        store(load() + 1);
        return *this;
    }

    /** Owner-only add (relaxed load + store, not an RMW). */
    RelaxedCounter&
    operator+=(uint64_t d) noexcept
    {
        store(load() + d);
        return *this;
    }

    operator uint64_t() const noexcept { return load(); }

    uint64_t
    load() const noexcept
    {
        return v_.load(std::memory_order_relaxed);
    }

    void
    store(uint64_t v) noexcept
    {
        v_.store(v, std::memory_order_relaxed);
    }

private:
    std::atomic<uint64_t> v_;
};

} // namespace aero
