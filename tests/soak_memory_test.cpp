/**
 * @file
 * Memory soak: on an unbounded-style rolling stream (thread churn +
 * working-set drift, gen/rolling_stream.hpp), the shipped engine's
 * memory_bytes() must *plateau* under reclamation (the Algorithm 1
 * reference keeps all state by design) — the second half of the run may
 * not exceed the first half's high-water mark by more than 10%. The
 * same test shows the stream stresses reclamation, so the plateau is
 * evidence the GC works, not that the workload is small: the stream
 * names far more thread ids than the engine ever holds rows for, and
 * sweeps actually reclaim table entries.
 *
 * Event count is CI-budgeted (kDefaultEvents) and overridable via
 * AERO_SOAK_EVENTS for real soaks; the test is labelled `soak` in ctest.
 * The override has a floor, kMinEvents (200,000): below it the warm-up
 * is not over by the half-way sample (at 100,000 events the first half
 * peaks at ~87 KB and the second at ~150 KB), so the plateau bound
 * would fail on working code. A smaller value fails the test with a
 * message that names the floor.
 *
 * The accounting audit at the bottom keeps memory_bytes() honest: on the
 * star workload, whose long hub transaction keeps state live under
 * reclamation, the sum the engine reports must cover the bulk of the
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
#include "gen/patterns.hpp"
#include "gen/rolling_stream.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace aero {
namespace {

constexpr uint64_t kDefaultEvents = 600000;
constexpr uint64_t kMinEvents = 200000;

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

TEST(SoakMemory, OptPlateausWithGc)
{
    // Drive the engine over the stream, sampling memory_bytes() every
    // 4096 events into the high-water mark of each half.
    const uint64_t n = soak_events();
    ASSERT_GE(n, kMinEvents)
        << "AERO_SOAK_EVENTS=" << n << " is below the floor of "
        << kMinEvents << " events: the warm-up would outlast the first "
        << "half and the plateau bound would not hold";
    const gen::RollingStreamOptions opts = stream_opts(n);
    gen::RollingStreamSource src(opts);
    AeroDromeOpt e(0, 0, 0);
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
    ASSERT_GT(first, 0u);
    EXPECT_LE(second, first + first / 10)
        << e.name() << ": memory grew past the first-half high-water mark "
        << "(" << first << " -> " << second << " bytes)";

    // The plateau must come from actual reclamation, not slack. Without
    // recycling every churned thread id would widen every clock: the
    // stream names far more ids than the live population the rows track.
    const uint32_t rows = e.thread_slots().slots();
    EXPECT_LE(rows, opts.workers + 2u) << e.name();
    EXPECT_GT(src.threads_issued(), 10 * rows)
        << "the stream no longer churns thread ids";
    EXPECT_GT(e.thread_slots().recycled(), 0u) << e.name();
    // Sweeps must reclaim entries, not only run.
    EXPECT_GT(e.gc_sweeps(), 0u) << e.name();
    const AdaptiveClockStats es = e.epoch_stats();
    EXPECT_GT(es.gc_reclaimed + es.gc_rows_freed, 0u) << e.name();
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
    // Star: the hub's transaction stays open, so the state it orders
    // stays live under reclamation and the engine's own state dominates
    // the process delta. The trace is built before the baseline; the
    // engine is the only thing allocated after it.
    gen::StarOptions star;
    star.rounds = 20000;
    const Trace tr = gen::make_star(star);
    const size_t heap_before = heap_in_use();
    const size_t maps_before = vm_data_bytes();
    AeroDromeOpt e(0, 0, 0);
    for (size_t i = 0; i < tr.size(); ++i)
        ASSERT_FALSE(e.process(tr[i], i));
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
