/**
 * @file
 * Memory soak: on an unbounded-style rolling stream (thread churn +
 * working-set drift, gen/rolling_stream.hpp), the shipped engine's
 * memory_bytes() must *plateau* with reclamation on (its default; the
 * Algorithm 1 reference keeps all state by design) — the second
 * half of the run may not exceed the first half's high-water mark by
 * more than 10%. The
 * contrast test pins the converse: with gc off the same stream grows the
 * footprint without bound (the thread id space alone inflates every
 * clock), so the plateau is evidence the GC works, not that the workload
 * is small.
 *
 * Event count is CI-budgeted (kDefaultEvents) and overridable via
 * AERO_SOAK_EVENTS for real soaks; the test is labelled `soak` in ctest.
 *
 * The accounting audit at the bottom keeps memory_bytes() honest: on a
 * growth workload the sum the engine reports must cover the bulk of the
 * process-level delta, so new containers can't silently dodge the soak
 * assertions by going unaccounted. That delta is the malloc heap (glibc
 * mallinfo2) plus the private mappings (VmData), since the clock banks
 * live in their own page mappings off the malloc heap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/rolling_stream.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace aero {
namespace {

constexpr uint64_t kDefaultEvents = 600000;

uint64_t
soak_events()
{
    if (const char* v = std::getenv("AERO_SOAK_EVENTS")) {
        uint64_t n = std::strtoull(v, nullptr, 10);
        if (n > 0)
            return n;
    }
    return kDefaultEvents;
}

gen::RollingStreamOptions
stream_opts(uint64_t max_events)
{
    gen::RollingStreamOptions o;
    o.workers = 8;
    o.churn_every = 1024; // heavy churn: ~1 thread generation / 1k events
    o.vars = 2048;
    o.hot_window = 256;
    o.drift_every = 4096;
    o.locks = 8;
    o.max_events = max_events;
    return o;
}

/** Drive `e` over the stream, sampling memory_bytes() every 4096 events;
 *  returns {max over first half, max over second half}. */
template <typename Engine>
std::pair<size_t, size_t>
sample_halves(Engine& e, uint64_t n)
{
    gen::RollingStreamSource src(stream_opts(n));
    Event ev;
    uint64_t i = 0;
    size_t first = 0, second = 0;
    while (src.next(ev)) {
        if (e.process(ev, i))
            ADD_FAILURE() << "stream is violation-free by construction";
        if (++i % 4096 == 0) {
            size_t& half = i <= n / 2 ? first : second;
            half = std::max(half, e.memory_bytes());
        }
    }
    EXPECT_EQ(i, n);
    return {first, second};
}

TEST(SoakMemory, OptPlateausWithGc)
{
    const uint64_t n = soak_events();
    AeroDromeOpt e(0, 0, 0); // reclamation is on by default
    auto [first, second] = sample_halves(e, n);
    ASSERT_GT(first, 0u);
    EXPECT_LE(second, first + first / 10)
        << e.name() << ": memory grew past the first-half high-water mark "
        << "(" << first << " -> " << second << " bytes)";
    // The plateau must come from actual reclamation, not slack.
    EXPECT_GT(e.thread_slots().recycled(), 0u) << e.name();
    EXPECT_GT(e.gc_sweeps(), 0u) << e.name();
}

TEST(SoakMemory, WithoutGcTheSameStreamGrows)
{
    // Contrast: gc off on a quarter-length run already blows well past
    // the 10% band — the churned thread ids alone widen every clock.
    const uint64_t n = std::max<uint64_t>(soak_events() / 4, 100000);
    AeroDromeOpt e(0, 0, 0);
    e.set_gc(false);
    auto [first, second] = sample_halves(e, n);
    ASSERT_GT(first, 0u);
    EXPECT_GT(second, first + first / 10)
        << "gc-off footprint unexpectedly flat: the soak workload no "
        << "longer stresses reclamation";
}

#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)

/** In-use heap bytes (glibc). */
size_t
heap_in_use()
{
    struct mallinfo2 mi = mallinfo2();
    return mi.uordblks;
}

/** Bytes of private writable mappings (VmData), or 0 if unreadable. */
size_t
vm_data_bytes()
{
    size_t kb = 0;
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f)) {
            if (std::sscanf(line, "VmData: %zu kB", &kb) == 1)
                break;
        }
        std::fclose(f);
    }
    return kb << 10;
}

TEST(SoakMemory, AccountingCoversTheMallocDelta)
{
    // Growth workload (gc off) so the engine's own state dominates the
    // process delta; everything else allocated below (stream buffers,
    // trackers) is small next to the clock banks and table.
    const uint64_t n = 100000;
    const size_t heap_before = heap_in_use();
    const size_t maps_before = vm_data_bytes();
    AeroDromeOpt e(0, 0, 0);
    e.set_gc(false);
    gen::RollingStreamSource src(stream_opts(n));
    Event ev;
    uint64_t i = 0;
    while (src.next(ev))
        ASSERT_FALSE(e.process(ev, i++));
    const size_t delta = (heap_in_use() - heap_before) +
                         (vm_data_bytes() - maps_before);
    const size_t reported = e.memory_bytes();
    // memory_bytes() must cover at least half of what the process
    // actually allocated and held; a big gap means some container went
    // unaccounted and the soak plateau above could be lying.
    EXPECT_GE(reported, delta / 2)
        << "reported " << reported << " of " << delta
        << " observed bytes (malloc heap + VmData)";
}

#endif // __GLIBC__ && !ASan && !TSan

} // namespace
} // namespace aero
