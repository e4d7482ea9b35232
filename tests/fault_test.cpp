/**
 * @file
 * Fault-injection harness suite (src/support/fault.hpp).
 *
 * Covers the plan grammar, the deterministic corruption helper, what the
 * trace-byte hooks count on the shipped binary reader, the
 * always-compiled alloc-cap site, and the panic-context plumbing. The
 * per-byte trace-reader sites are compile-gated (-DAERO_FAULTS=ON);
 * their tests skip when the hooks are not present
 * (fault_points_compiled()).
 *
 * Every injected failure must end in a structured RunStatus — never a
 * hang, an abort, or a torn result.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/patterns.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "trace/binary_io.hpp"
#include "trace/mapped_reader.hpp"
#include "trace/stream.hpp"
#include "trace/text_io.hpp"

namespace aero {
namespace {

/** Every test leaves the process-wide injector disarmed. */
class Fault : public ::testing::Test {
protected:
    void TearDown() override { FaultInjector::instance().disarm(); }
};

// --- Plan grammar -----------------------------------------------------------

TEST_F(Fault, PlanParsesMinimalSpec)
{
    auto plan = parse_fault_plan("trace-byte:bit-flip:5");
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->site, FaultSite::kTraceByte);
    EXPECT_EQ(plan->kind, FaultKind::kBitFlip);
    EXPECT_EQ(plan->trigger, 5u);
    EXPECT_EQ(plan->seed, 1u);
}

TEST_F(Fault, PlanParsesFullSpec)
{
    auto plan = parse_fault_plan("trace-byte:garbage:40:7");
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->site, FaultSite::kTraceByte);
    EXPECT_EQ(plan->kind, FaultKind::kGarbage);
    EXPECT_EQ(plan->trigger, 40u);
    EXPECT_EQ(plan->seed, 7u);

    auto alloc = parse_fault_plan("alloc:alloc-cap:3:42");
    ASSERT_TRUE(alloc.has_value());
    EXPECT_EQ(alloc->site, FaultSite::kAlloc);
    EXPECT_EQ(alloc->kind, FaultKind::kAllocCap);
    EXPECT_EQ(alloc->trigger, 3u);
    EXPECT_EQ(alloc->seed, 42u);
}

TEST_F(Fault, PlanRejectsMalformedSpecs)
{
    // Unknown site / kind, kind-site mismatch, bad arity, bad numbers.
    for (const char* spec :
         {"", "alloc", "alloc:alloc-cap", "bogus:alloc-cap:0",
          "alloc:bogus:0",
          "alloc:bit-flip:0",            // byte kind on the alloc site
          "trace-byte:alloc-cap:0",      // alloc kind on the byte site
          "worker:kill:0",               // unknown site and kind
          "trace-byte:garbage:abc",      // non-numeric trigger
          "trace-byte:garbage:-1",       // negative trigger
          "trace-byte:garbage:0:x",      // bad seed
          "trace-byte:garbage:40:any:7"}) // too many fields
        EXPECT_FALSE(parse_fault_plan(spec).has_value()) << spec;
}

// --- corrupt_bytes helper ---------------------------------------------------

TEST_F(Fault, CorruptBytesIsDeterministicAndRespectsMinOffset)
{
    const std::string original(256, 'a');
    for (FaultKind kind :
         {FaultKind::kBitFlip, FaultKind::kTruncate, FaultKind::kGarbage}) {
        std::string a = original, b = original;
        const uint64_t off_a = corrupt_bytes(a, kind, /*seed=*/99,
                                             /*min_offset=*/16);
        const uint64_t off_b = corrupt_bytes(b, kind, 99, 16);
        EXPECT_EQ(off_a, off_b);
        EXPECT_EQ(a, b) << "same seed must corrupt identically";
        EXPECT_GE(off_a, 16u);
        EXPECT_LT(off_a, original.size());
        EXPECT_NE(a, original) << "corruption was a no-op";
        if (kind == FaultKind::kTruncate)
            EXPECT_EQ(a.size(), off_a);
        else
            EXPECT_EQ(a.size(), original.size());
    }
    // Different seeds land on different offsets at least sometimes.
    std::string c = original, d = original;
    const uint64_t oc = corrupt_bytes(c, FaultKind::kBitFlip, 1);
    const uint64_t od = corrupt_bytes(d, FaultKind::kBitFlip, 2);
    EXPECT_TRUE(oc != od || c != d);
}

TEST_F(Fault, CorruptBytesOnTooSmallImageIsANoOp)
{
    std::string tiny = "ab";
    const uint64_t off =
        corrupt_bytes(tiny, FaultKind::kGarbage, 5, /*min_offset=*/2);
    EXPECT_EQ(off, tiny.size());
    EXPECT_EQ(tiny, "ab");
}

// --- Compile-gated trace-byte sites -----------------------------------------

TEST_F(Fault, InjectedBinaryTruncationIsAStructuredStreamError)
{
    if (!fault_points_compiled())
        GTEST_SKIP() << "per-byte hooks not compiled (-DAERO_FAULTS=ON)";

    Trace t = gen::make_pipeline(4, 50);
    std::ostringstream blob;
    write_binary(blob, t);

    FaultPlan plan;
    plan.site = FaultSite::kTraceByte;
    plan.kind = FaultKind::kTruncate;
    plan.trigger = 40; // post-header byte count: mid-record territory
    FaultInjector::instance().arm(plan);

    std::istringstream in(blob.str(), std::ios::binary);
    MappedBinaryEventSource src(in);
    AeroDromeOpt engine(0, 0, 0);
    RunResult r = run_checker_stream(engine, src);
    EXPECT_EQ(FaultInjector::instance().fires(), 1u);
    ASSERT_EQ(r.status(), RunStatus::kStreamError);
    EXPECT_EQ(r.stream_error->cause, StreamError::Cause::kTruncated);
    EXPECT_FALSE(r.stream_error->message.empty());
    EXPECT_LT(r.events_processed, t.size());
}

TEST_F(Fault, InjectedTextGarbageStopsStrictAndResyncsWhenAsked)
{
    if (!fault_points_compiled())
        GTEST_SKIP() << "per-byte hooks not compiled (-DAERO_FAULTS=ON)";

    Trace t = gen::make_pipeline(2, 20);
    std::ostringstream text;
    write_text(text, t);

    FaultPlan plan;
    plan.site = FaultSite::kTraceByte;
    plan.kind = FaultKind::kGarbage;
    plan.trigger = 10; // 0-based line count

    // Strict: the corrupt line ends the run with a parse error naming it.
    FaultInjector::instance().arm(plan);
    {
        std::istringstream in(text.str());
        TextEventSource src(in);
        AeroDromeOpt engine(0, 0, 0);
        RunResult r = run_checker_stream(engine, src);
        ASSERT_EQ(r.status(), RunStatus::kStreamError);
        EXPECT_EQ(r.stream_error->cause, StreamError::Cause::kParse);
        EXPECT_EQ(r.stream_error->byte_offset, 11u) << "1-based line no.";
    }

    // Resync: the corrupt line is recorded and skipped; the run finishes
    // degraded, with the rest of the stream checked.
    FaultInjector::instance().arm(plan);
    {
        std::istringstream in(text.str());
        TextEventSource src(in);
        src.set_resync(true);
        AeroDromeOpt engine(0, 0, 0);
        RunResult r = run_checker_stream(engine, src);
        ASSERT_EQ(r.status(), RunStatus::kDegraded);
        EXPECT_EQ(r.stream_errors_recovered, 1u);
        ASSERT_EQ(src.recovered_errors().size(), 1u);
        EXPECT_EQ(src.recovered_errors()[0].byte_offset, 11u);
    }
}

// --- Hook cost as a count ---------------------------------------------------

/** Every event of `src`, pulled in blocks with next_n. */
std::vector<Event>
drain(EventSource& src)
{
    std::vector<Event> events;
    std::vector<Event> block(kDefaultIngestBlock);
    while (size_t n = src.next_n(block.data(), block.size()))
        events.insert(events.end(), block.begin(),
                      block.begin() + static_cast<long>(n));
    return events;
}

/** What one pass of the shipped binary reader over a file observed. */
struct MappedPass {
    std::string kind;
    std::vector<Event> events;
    RunResult result;
};

/** Drain `path` through MappedBinaryEventSource, then check it end to
 *  end (a second open) with the default engine. */
MappedPass
stream_mapped(const std::string& path)
{
    MappedPass pass;
    {
        MappedBinaryEventSource src(path);
        pass.kind = src.source_kind();
        pass.events = drain(src);
    }
    MappedBinaryEventSource src(path);
    AeroDromeOpt engine(0, 0, 0);
    pass.result = run_checker_stream(engine, src);
    return pass;
}

// What the per-byte hooks cost, as counts. Disarmed, the shipped reader
// keeps its block path and the injector counts nothing. Armed but idle
// (a trigger that never comes), the reader takes its buffered window and
// the run is unchanged; with the hooks compiled in, each post-header
// byte is exactly one counted hit, and without them nothing on the path
// consults the injector. A plan disarmed after the reader chose its
// buffered window leaves the hooks in refill(), where each must be one
// load that counts nothing.
TEST_F(Fault, IdleTraceByteHooksCountBytesNotTime)
{
    Trace t = gen::make_pipeline(8, 500);
    std::ostringstream blob;
    write_binary(blob, t);
    const std::string image = blob.str();
    const std::string path = ::testing::TempDir() + "aero_fault_idle_" +
                             std::to_string(::getpid()) + ".bin";
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    constexpr uint64_t kHeaderBytes = 28;

    FaultInjector& inj = FaultInjector::instance();
    inj.arm(FaultPlan{}); // a kNone plan zeroes the counters, arms nothing
    ASSERT_FALSE(inj.armed());
    const MappedPass disarmed = stream_mapped(path);
    EXPECT_EQ(inj.hits(), 0u);
    EXPECT_TRUE(disarmed.kind == "binary-mmap" ||
                disarmed.kind == "binary-buffered")
        << disarmed.kind;
    ASSERT_EQ(disarmed.events, t.events());
    EXPECT_EQ(disarmed.result.status(), RunStatus::kOk);

    FaultPlan idle;
    idle.site = FaultSite::kTraceByte;
    idle.kind = FaultKind::kBitFlip;
    idle.trigger = UINT64_MAX;
    inj.arm(idle);
    const MappedPass armed = stream_mapped(path);
    EXPECT_EQ(armed.kind, "binary-buffered");
    EXPECT_EQ(inj.fires(), 0u);
    EXPECT_EQ(armed.events, disarmed.events);
    EXPECT_EQ(armed.result.status(), disarmed.result.status());
    EXPECT_EQ(armed.result.events_processed,
              disarmed.result.events_processed);
    // Two opens (drain, then check) each read every post-header byte.
    const uint64_t bytes = image.size() - kHeaderBytes;
    EXPECT_EQ(inj.hits(), fault_points_compiled() ? 2 * bytes : 0u);

    inj.arm(idle);
    {
        MappedBinaryEventSource src(path);
        inj.disarm();
        EXPECT_EQ(drain(src), disarmed.events);
    }
    EXPECT_EQ(inj.hits(), 0u);
    std::remove(path.c_str());
}

// --- Alloc faults -----------------------------------------------------------

TEST_F(Fault, AllocCapBreachEndsTheRunAsInternalError)
{
    FaultPlan plan;
    plan.site = FaultSite::kAlloc;
    plan.kind = FaultKind::kAllocCap;
    plan.trigger = 2; // sticky from the second budget poll on
    FaultInjector::instance().arm(plan);

    Trace t = gen::make_pipeline(2, 200);
    RunBudget budget;
    budget.check_interval = 64; // poll often enough to hit the trigger
    AeroDromeOpt engine(t.num_threads(), t.num_vars(), t.num_locks());
    RunResult r = run_checker(engine, t, budget);
    EXPECT_EQ(FaultInjector::instance().fires(), 1u);
    ASSERT_EQ(r.status(), RunStatus::kInternalError);
    EXPECT_NE(r.internal_error.find("injected"), std::string::npos)
        << r.internal_error;
    EXPECT_LT(r.events_processed, t.size());
}

// --- Panic context ----------------------------------------------------------

TEST_F(Fault, PanicMessageNamesTheEventIndex)
{
    PanicHandler prev = set_panic_handler(&throwing_panic_handler);
    {
        PanicContextScope scope;
        scope.set_index(1234);
        try {
            panic(__FILE__, __LINE__, "drill");
            FAIL() << "panic returned";
        } catch (const InternalError& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("while processing event 1234"),
                      std::string::npos)
                << msg;
        }
    }
    // Outside any scope the message carries no position suffix.
    try {
        panic(__FILE__, __LINE__, "drill");
        FAIL() << "panic returned";
    } catch (const InternalError& e) {
        EXPECT_EQ(std::string(e.what()).find("while processing"),
                  std::string::npos);
    }
    set_panic_handler(prev);
}

} // namespace
} // namespace aero
