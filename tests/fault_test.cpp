/**
 * @file
 * Fault-injection harness suite (src/support/fault.hpp).
 *
 * Covers the plan grammar, the deterministic corruption helper, damaged
 * trace images read by the shipped readers, the alloc-cap site, and the
 * panic-context plumbing.
 *
 * Every injected failure must end in a structured RunStatus — never a
 * hang, an abort, or a torn result.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

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

TEST_F(Fault, PlanParsesAllocCapSpec)
{
    auto plan = parse_fault_plan("alloc:alloc-cap:5");
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->site, FaultSite::kAlloc);
    EXPECT_EQ(plan->kind, FaultKind::kAllocCap);
    EXPECT_EQ(plan->trigger, 5u);
}

TEST_F(Fault, PlanRejectsMalformedSpecs)
{
    // Unknown site / kind, kind-site mismatch, bad arity, bad numbers.
    for (const char* spec :
         {"", "alloc", "alloc:alloc-cap", "bogus:alloc-cap:0",
          "alloc:bogus:0",
          "alloc:bit-flip:0",           // byte kind on the alloc site
          "trace-byte:bit-flip:5000:3", // unknown site
          "worker:kill:0",              // unknown site and kind
          "alloc:alloc-cap:abc",        // non-numeric trigger
          "alloc:alloc-cap:-1",         // negative trigger
          "alloc:alloc-cap:",           // empty trigger
          "alloc:alloc-cap:3:42",       // too many fields
          "alloc-cap:alloc:0"})         // swapped fields
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

// --- Damaged trace images -------------------------------------------------

TEST_F(Fault, TruncatedBinaryImageIsAStructuredStreamError)
{
    Trace t = gen::make_pipeline(4, 50);
    std::ostringstream blob;
    write_binary(blob, t);
    std::string image = blob.str();
    image.resize(28 + 40); // cut at post-header byte 40: mid-record
    const std::string path = ::testing::TempDir() + "aero_fault_cut_" +
                             std::to_string(::getpid()) + ".bin";
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(image.data(), static_cast<std::streamsize>(image.size()));
    }

    // The mmap reader aerocheck runs on a file, and the buffered window
    // it runs on a pipe.
    std::istringstream in(image, std::ios::binary);
    for (bool mapped : {true, false}) {
        auto src = mapped ? std::make_unique<MappedBinaryEventSource>(path)
                          : std::make_unique<MappedBinaryEventSource>(in);
        EXPECT_EQ(src->is_mapped(), mapped);
        AeroDromeOpt engine(0, 0, 0);
        RunResult r = run_checker_stream(engine, *src);
        ASSERT_EQ(r.status(), RunStatus::kStreamError) << src->source_kind();
        EXPECT_EQ(r.stream_error->cause, StreamError::Cause::kTruncated);
        EXPECT_FALSE(r.stream_error->message.empty());
        EXPECT_LT(r.events_processed, t.size());
    }
    std::remove(path.c_str());
}

TEST_F(Fault, GarbageTextLineStopsStrictAndResyncsWhenAsked)
{
    Trace t = gen::make_pipeline(2, 20);
    std::ostringstream text;
    write_text(text, t);
    std::istringstream lines(text.str());
    std::string image, line;
    for (size_t no = 1; std::getline(lines, line); ++no)
        image += (no == 11 ? "\x01garbage\x02line\x03" : line) + "\n";

    // Strict: the corrupt line ends the run with a parse error naming it.
    {
        std::istringstream in(image);
        TextEventSource src(in);
        AeroDromeOpt engine(0, 0, 0);
        RunResult r = run_checker_stream(engine, src);
        ASSERT_EQ(r.status(), RunStatus::kStreamError);
        EXPECT_EQ(r.stream_error->cause, StreamError::Cause::kParse);
        EXPECT_EQ(r.stream_error->byte_offset, 11u) << "1-based line no.";
    }

    // Resync: the corrupt line is recorded and skipped; the run finishes
    // degraded, with the rest of the stream checked.
    {
        std::istringstream in(image);
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
