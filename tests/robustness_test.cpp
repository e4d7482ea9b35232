/**
 * @file
 * Robustness: the checkers document a well-formedness *assumption*, but
 * real instrumentation drops events (missed releases, truncated logs,
 * torn fork/join pairs). The engines must never crash or corrupt memory
 * on such input — verdicts on ill-formed traces are unspecified, crashes
 * are bugs. This suite feeds systematically broken and randomly mutated
 * traces to every engine and to the oracle.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "aerodrome/aerodrome_basic.hpp"
#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/runner.hpp"
#include "gen/random_program.hpp"
#include "oracle/serializability_oracle.hpp"
#include "sim/scheduler.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "trace/binary_io.hpp"
#include "trace/builder.hpp"
#include "trace/mapped_reader.hpp"
#include "trace/stream.hpp"
#include "trace/text_io.hpp"
#include "trace/validator.hpp"
#include "velodrome/velodrome.hpp"

namespace aero {
namespace {

/** Run every engine and the oracle; the only requirement is no crash. */
void
exercise_all(const Trace& t)
{
    auto run_one = [&](auto&& checker) {
        run_checker(checker, t);
    };
    run_one(AeroDromeBasic(t.num_threads(), t.num_vars(), t.num_locks()));
    run_one(AeroDromeOpt(t.num_threads(), t.num_vars(), t.num_locks()));
    run_one(Velodrome(t.num_threads(), t.num_vars(), t.num_locks()));
    check_serializability(t);
}

TEST(Robustness, EmptyTrace)
{
    Trace t;
    exercise_all(t);
}

TEST(Robustness, EndWithoutBegin)
{
    Trace t;
    t.end(0);
    t.end(0);
    t.write(0, 0);
    t.end(1);
    exercise_all(t);
}

TEST(Robustness, UnmatchedBegins)
{
    Trace t;
    t.begin(0);
    t.begin(0);
    t.begin(1);
    t.write(0, 0);
    t.read(1, 0);
    exercise_all(t);
}

TEST(Robustness, ReleaseWithoutAcquire)
{
    Trace t;
    t.release(0, 0);
    t.release(1, 0);
    t.acquire(0, 0);
    t.release(0, 0);
    exercise_all(t);
}

TEST(Robustness, DoubleAcquireAcrossThreads)
{
    Trace t;
    t.acquire(0, 0);
    t.acquire(1, 0); // exclusion violated by the (broken) logger
    t.release(0, 0);
    t.release(1, 0);
    exercise_all(t);
}

TEST(Robustness, ForkAfterChildRan)
{
    Trace t;
    t.write(1, 0);
    t.fork(0, 1);
    t.write(1, 0);
    exercise_all(t);
}

TEST(Robustness, DoubleForkAndSelfJoin)
{
    Trace t;
    t.fork(0, 1);
    t.fork(2, 1);
    t.join(1, 1); // nonsensical, must still not crash
    exercise_all(t);
}

TEST(Robustness, EventsAfterJoin)
{
    Trace t;
    t.write(1, 0);
    t.join(0, 1);
    t.write(1, 0);
    t.join(0, 1);
    exercise_all(t);
}

TEST(Robustness, LargeSparseIds)
{
    // Ids far beyond anything seen before must only grow state.
    Trace t;
    t.begin(0);
    t.write(0, 1000);
    t.acquire(0, 200);
    t.release(0, 200);
    t.fork(0, 50);
    t.write(50, 1000);
    t.end(0);
    exercise_all(t);
}

TEST(Robustness, SparseThreadIdStaysCheapInTheLiteralEngine)
{
    // A thread's state is created at its first event: one fork of a far
    // thread id costs O(id), not a bot[1/u] clock for every u below it.
    Trace t;
    t.fork(0, 5000);
    t.write(5000, 0);
    AeroDromeBasic basic(0, 0, 0);
    EXPECT_FALSE(run_checker(basic, t).violation);
    EXPECT_LT(basic.memory_bytes(), size_t{1} << 20);
}

/** Mutation fuzz: random edits of well-formed traces. */
class MutationFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MutationFuzz, NoCrashOnMutatedTraces)
{
    gen::RandomProgramOptions opts;
    opts.seed = GetParam();
    opts.threads = 3 + GetParam() % 3;
    opts.shared_vars = 4;
    opts.locks = 2;
    opts.steps_per_thread = 40;
    sim::SimResult sim = sim::run_program(gen::make_random_program(opts));
    ASSERT_FALSE(sim.deadlocked);

    Rng rng(GetParam() * 77 + 5);
    std::vector<Event> ev(sim.trace.events());
    // Apply a handful of destructive mutations.
    for (int m = 0; m < 8 && !ev.empty(); ++m) {
        switch (rng.next_below(4)) {
          case 0: // drop a random event
            ev.erase(ev.begin() +
                     static_cast<long>(rng.next_below(ev.size())));
            break;
          case 1: // duplicate a random event
            ev.push_back(ev[rng.next_below(ev.size())]);
            break;
          case 2: { // swap two arbitrary events (may break everything)
            size_t a = rng.next_below(ev.size());
            size_t b = rng.next_below(ev.size());
            std::swap(ev[a], ev[b]);
            break;
          }
          case 3: { // retarget an event
            Event& e = ev[rng.next_below(ev.size())];
            e.target = static_cast<uint32_t>(rng.next_below(64));
            break;
          }
        }
    }
    Trace mutated;
    for (const Event& e : ev)
        mutated.push(e);
    // Well-formedness usually broken now; engines must survive anyway.
    exercise_all(mutated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationFuzz,
                         ::testing::Range<uint64_t>(4000, 4060));

// --- Byte-level corruption fuzz ---------------------------------------------
//
// The mutation fuzz above corrupts at the *event* level; real logs rot at
// the *byte* level — flipped bits, torn tails, overwritten blocks,
// including inside the header. Serialize a well-formed trace, corrupt
// its image deterministically (corrupt_bytes), and stream it through a
// checker over the reader users run: the mmap reader for a binary file,
// the text reader for text. The contract: the run ends in a
// structured status — ok, violation, or stream-error with populated
// evidence (degraded for a resync run) — never an abort, a hang, or an
// unstructured throw. The ASan+UBSan CI job runs this suite to pin
// "no crash" down to "no leak, no overflow".

/** One small well-formed trace per seed, varied in shape. */
Trace
fuzz_corpus_trace(uint64_t seed)
{
    gen::RandomProgramOptions opts;
    opts.seed = seed;
    opts.threads = 2 + seed % 4;
    opts.shared_vars = 3 + seed % 5;
    opts.locks = 1 + seed % 2;
    opts.steps_per_thread = 30;
    sim::SimResult sim = sim::run_program(gen::make_random_program(opts));
    EXPECT_FALSE(sim.deadlocked);
    return std::move(sim.trace);
}

/** Cycle through every byte-corruption kind. */
FaultKind
fuzz_kind(uint64_t seed)
{
    switch (seed % 3) {
      case 0:
        return FaultKind::kBitFlip;
      case 1:
        return FaultKind::kTruncate;
      default:
        return FaultKind::kGarbage;
    }
}

/** Check a (possibly corrupt) binary trace file; every outcome must be
 *  structured. `resync` additionally allows the degraded completion. */
void
expect_structured_binary_outcome(const std::string& path, bool resync)
{
    RunResult r;
    try {
        MappedBinaryEventSource src(path); // throws on a corrupt header
        src.set_resync(resync);
        AeroDromeOpt engine(0, 0, 0);
        r = run_checker_stream(engine, src);
    } catch (const StreamCorruption& e) {
        EXPECT_FALSE(e.error().message.empty());
        return; // header rejection is a structured outcome
    }
    const RunStatus status = r.status();
    EXPECT_TRUE(status == RunStatus::kOk ||
                status == RunStatus::kViolation ||
                status == RunStatus::kStreamError ||
                (resync && status == RunStatus::kDegraded))
        << run_status_name(status);
    if (status == RunStatus::kStreamError) {
        EXPECT_FALSE(r.stream_error->message.empty());
        EXPECT_LE(r.stream_error->event_index, r.events_processed);
    }
}

class CorruptionFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptionFuzz, BinaryByteCorruptionEndsStructured)
{
    const uint64_t seed = GetParam();
    Trace t = fuzz_corpus_trace(seed);
    std::ostringstream blob;
    write_binary(blob, t);
    std::string image = blob.str();

    // Half the seeds may hit the header (offset 0 on), half are pinned
    // past it so record-level damage stays well represented.
    const uint64_t min_offset = (seed % 2) ? 16 : 0;
    const uint64_t offset =
        corrupt_bytes(image, fuzz_kind(seed), seed * 2654435761u,
                      min_offset);
    ASSERT_LT(offset, blob.str().size()) << "corruption missed the image";

    const std::string path = ::testing::TempDir() + "aero_corrupt_" +
                             std::to_string(::getpid()) + ".bin";
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    expect_structured_binary_outcome(path, /*resync=*/false);
    expect_structured_binary_outcome(path, /*resync=*/true);
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionFuzz,
                         ::testing::Range<uint64_t>(7000, 7220));

// The text reader has its own parser and alphabet; give it the same
// treatment on every 4th seed (one serialization per seed is enough:
// the format is line-oriented, so every kind lands inside some record).
class TextCorruptionFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TextCorruptionFuzz, TextByteCorruptionEndsStructured)
{
    const uint64_t seed = GetParam();
    Trace t = fuzz_corpus_trace(seed);
    std::ostringstream blob;
    write_text(blob, t);
    std::string image = blob.str();
    corrupt_bytes(image, fuzz_kind(seed), seed * 0x9e3779b9u);

    for (bool resync : {false, true}) {
        std::istringstream in(image);
        TextEventSource src(in);
        src.set_resync(resync);
        AeroDromeOpt engine(0, 0, 0);
        RunResult r = run_checker_stream(engine, src);
        const RunStatus status = r.status();
        EXPECT_TRUE(status == RunStatus::kOk ||
                    status == RunStatus::kViolation ||
                    status == RunStatus::kStreamError ||
                    (resync && status == RunStatus::kDegraded))
            << run_status_name(status);
        if (status == RunStatus::kStreamError) {
            EXPECT_FALSE(r.stream_error->message.empty());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextCorruptionFuzz,
                         ::testing::Range<uint64_t>(7000, 7220, 4));

} // namespace
} // namespace aero
