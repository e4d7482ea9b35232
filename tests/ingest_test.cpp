/**
 * @file
 * Block ingestion: the batched decoders must be observably identical to
 * the per-event reference reader.
 *
 * PR 7 made corrupt input a first-class outcome with an exact contract
 * (StreamError cause + event index + absolute byte offset, strict and
 * resync modes); the block readers re-implement decode for speed, so
 * this suite pins them to the reference byte-for-byte: every trace in a
 * fuzz corpus — clean, bit-flipped, truncated, garbled — must produce
 * the same events, the same terminal error, and the same recovered-error
 * list through BinaryEventSource::next_n (the EventSource base default)
 * and MappedBinaryEventSource (mmap and buffered windows) at block sizes
 * {1, 7, 256, 4096} as through BinaryEventSource::next() one event at a
 * time. Damage placed at record and refill boundaries (opcode, tid,
 * varint bytes, both sides of a buffered refill) is in the corpus too.
 *
 * Also here: the magic-sniffing format decision (extension only breaks
 * ties), the buffered fallback for paths that cannot be mapped, the
 * mapped reader's constant trace residency (MappedResidency), and the
 * block runner's budget-poll boundaries (a block larger than
 * check_interval must not blow past max_seconds).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "aerodrome/aerodrome_opt.hpp"
#include "analysis/checker.hpp"
#include "analysis/runner.hpp"
#include "gen/random_program.hpp"
#include "sim/scheduler.hpp"
#include "support/assert.hpp"
#include "support/fault.hpp"
#include "trace/binary_io.hpp"
#include "trace/mapped_reader.hpp"
#include "trace/stream.hpp"

namespace aero {
namespace {

/** One small well-formed trace per seed, shape-varied like the
 *  robustness fuzz corpus. */
Trace
corpus_trace(uint64_t seed)
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

/** Synthetic trace whose ids need multi-byte varints, mixed with
 *  one-byte ids, so the decoders see LEB128 continuation bits, not only
 *  one-byte records. */
Trace
wide_id_trace(uint32_t rounds = 120)
{
    Trace t;
    for (uint32_t i = 0; i < rounds; ++i) {
        const ThreadId tid = (i * 37) % 200;       // 2-byte tids past 127
        const uint32_t var = (i * 991) % 20000;    // up to 3-byte vars
        t.begin(tid);
        t.write(tid, var);
        t.read(tid, var / 2);
        t.end(tid);
    }
    return t;
}

/** `image` with two records appended, so its last kMaxRecordBytes (11)
 *  bytes hold 1-, 2- and 5-byte varints: r(t5, x300), then w(t7, x1)
 *  with its variable in an overlong 5-byte varint. The read starts at
 *  the last position where the block kernel's fast path runs (a
 *  max-size record still fits); the write starts in the window tail,
 *  where decode_one takes over. */
std::string
with_varint_tail(std::string image)
{
    const uint8_t tail[] = {
        static_cast<uint8_t>(Op::kRead), 5, 0xac, 0x02,
        static_cast<uint8_t>(Op::kWrite), 7, 0x81, 0x80, 0x80, 0x80, 0x00};
    image.append(reinterpret_cast<const char*>(tail), sizeof tail);
    uint64_t events = 0;
    std::memcpy(&events, image.data() + 8, sizeof events);
    events += 2;
    std::memcpy(&image[8], &events, sizeof events);
    return image;
}

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

/** Everything observable about one full drain of a source. */
struct DrainResult {
    std::vector<Event> events;
    bool threw = false;
    StreamError error; // valid when threw
    std::vector<StreamError> recovered;
    uint64_t recovered_total = 0;
};

void
capture_tail(EventSource& src, DrainResult& out)
{
    out.recovered = src.recovered_errors();
    out.recovered_total = src.recovered_error_count();
}

/** Reference: the per-event reader, one next() at a time. */
DrainResult
drain_reference(const std::string& image, bool resync)
{
    DrainResult out;
    std::istringstream in(image, std::ios::binary);
    try {
        BinaryEventSource src(in);
        src.set_resync(resync);
        Event e;
        while (src.next(e))
            out.events.push_back(e);
        capture_tail(src, out);
    } catch (const StreamCorruption& ex) {
        out.threw = true;
        out.error = ex.error();
    }
    return out;
}

/** Candidate: drain any source via next_n at a given block size. The
 *  strict-mode contract defers a mid-block error to the following call,
 *  so the loop keeps pulling until 0 or a throw. */
DrainResult
drain_batched(EventSource& src, bool resync, size_t block)
{
    DrainResult out;
    src.set_resync(resync);
    std::vector<Event> buf(block);
    try {
        for (;;) {
            const size_t got = src.next_n(buf.data(), block);
            if (got == 0)
                break;
            out.events.insert(out.events.end(), buf.begin(),
                              buf.begin() + static_cast<long>(got));
        }
        capture_tail(src, out);
    } catch (const StreamCorruption& ex) {
        out.threw = true;
        out.error = ex.error();
    }
    return out;
}

void
expect_same_error(const StreamError& a, const StreamError& b,
                  const std::string& what)
{
    EXPECT_EQ(a.cause, b.cause) << what;
    EXPECT_EQ(a.event_index, b.event_index) << what;
    EXPECT_EQ(a.byte_offset, b.byte_offset) << what;
    EXPECT_EQ(a.message, b.message) << what;
}

void
expect_same_drain(const DrainResult& ref, const DrainResult& got,
                  const std::string& what)
{
    ASSERT_EQ(ref.threw, got.threw) << what;
    if (ref.threw)
        expect_same_error(ref.error, got.error, what + " [terminal]");
    ASSERT_EQ(ref.events.size(), got.events.size()) << what;
    for (size_t i = 0; i < ref.events.size(); ++i)
        ASSERT_TRUE(ref.events[i] == got.events[i])
            << what << " event " << i;
    EXPECT_EQ(ref.recovered_total, got.recovered_total) << what;
    ASSERT_EQ(ref.recovered.size(), got.recovered.size()) << what;
    for (size_t i = 0; i < ref.recovered.size(); ++i)
        expect_same_error(ref.recovered[i], got.recovered[i],
                          what + " [recovered " + std::to_string(i) + "]");
}

/** RAII temp file holding a binary image (for the mmap path). Written
 *  in 64 KiB slices, as a streaming trace writer fills the page cache:
 *  one multi-MiB write() can leave the file in 2 MiB page-cache folios,
 *  which Linux maps whole on a fault. */
struct TempImage {
    std::string path;
    explicit TempImage(const std::string& image, const char* tag)
    {
        path = ::testing::TempDir() + "aero_ingest_" + tag + "_" +
               std::to_string(::getpid()) + ".bin";
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        constexpr size_t kSlice = 64 * 1024;
        for (size_t at = 0; at < image.size(); at += kSlice)
            f.write(image.data() + at, static_cast<std::streamsize>(
                                           std::min(kSlice, image.size() - at)));
    }
    ~TempImage() { std::remove(path.c_str()); }
};

constexpr size_t kBlocks[] = {1, 7, 256, 4096};

/** The full cross-check of one image: reference next() vs next_n on the
 *  per-event reader and both MappedBinaryEventSource windows, at every
 *  block size, in both modes. Sources whose header is rejected must all
 *  reject with the identical error. */
void
cross_check_image(const std::string& image, const std::string& tag)
{
    TempImage file(image, "xchk");
    for (bool resync : {false, true}) {
        const DrainResult ref = drain_reference(image, resync);
        for (size_t block : kBlocks) {
            const std::string what =
                tag + (resync ? " resync" : " strict") + " block " +
                std::to_string(block);
            {
                std::istringstream in(image, std::ios::binary);
                DrainResult got;
                try {
                    BinaryEventSource src(in);
                    got = drain_batched(src, resync, block);
                } catch (const StreamCorruption& ex) {
                    got.threw = true;
                    got.error = ex.error();
                }
                expect_same_drain(ref, got, what + " [binary.next_n]");
            }
            {
                std::istringstream in(image, std::ios::binary);
                DrainResult got;
                try {
                    MappedBinaryEventSource src(in);
                    EXPECT_FALSE(src.is_mapped());
                    got = drain_batched(src, resync, block);
                } catch (const StreamCorruption& ex) {
                    got.threw = true;
                    got.error = ex.error();
                }
                expect_same_drain(ref, got, what + " [buffered]");
            }
            {
                DrainResult got;
                try {
                    MappedBinaryEventSource src(file.path);
                    got = drain_batched(src, resync, block);
                } catch (const StreamCorruption& ex) {
                    got.threw = true;
                    got.error = ex.error();
                }
                expect_same_drain(ref, got, what + " [mmap]");
            }
        }
        // The batched reader's own next() must match too (block of 1
        // through the block kernel).
        {
            std::istringstream in(image, std::ios::binary);
            DrainResult got;
            try {
                MappedBinaryEventSource src(in);
                src.set_resync(resync);
                Event e;
                while (src.next(e))
                    got.events.push_back(e);
                capture_tail(src, got);
            } catch (const StreamCorruption& ex) {
                got.threw = true;
                got.error = ex.error();
            }
            expect_same_drain(ref, got,
                              tag + (resync ? " resync" : " strict") +
                                  " [mapped.next]");
        }
    }
}

std::string
serialize(const Trace& t)
{
    std::ostringstream blob;
    write_binary(blob, t);
    return blob.str();
}

class BatchedDecodeParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchedDecodeParity, CleanAndCorruptImagesMatchReference)
{
    const uint64_t seed = GetParam();
    const std::string clean = serialize(corpus_trace(seed));
    cross_check_image(clean, "clean");

    // Record-level damage (pinned past the header) in every byte-fault
    // flavor, plus an unpinned variant that may hit the header: all
    // readers must reject or recover identically.
    for (uint64_t variant = 0; variant < 4; ++variant) {
        std::string image = clean;
        const uint64_t min_offset = variant < 3 ? 28 : 0;
        corrupt_bytes(image, fuzz_kind(seed + variant),
                      (seed + variant) * 2654435761u, min_offset);
        cross_check_image(image,
                          "corrupt v" + std::to_string(variant));
    }

    // A torn tail (mid-record truncation) is the double-error case:
    // one gap error inside the record, one terminal short-count error.
    if (clean.size() > 30) {
        std::string torn = clean.substr(0, clean.size() - 1);
        cross_check_image(torn, "torn-tail");
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedDecodeParity,
                         ::testing::Range<uint64_t>(8600, 8624));

TEST(BatchedDecodeParity, WideIdsCrossCleanSpanBoundaries)
{
    const std::string clean = serialize(wide_id_trace());
    cross_check_image(clean, "wide-ids");
    for (uint64_t v = 0; v < 3; ++v) {
        std::string image = clean;
        corrupt_bytes(image, fuzz_kind(v), 0x51ed2701u + v, 28);
        cross_check_image(image, "wide-ids corrupt v" + std::to_string(v));
    }
    // The hand-off from the fast path to decode_one at the window tail,
    // whole and torn at each byte of its last (7-byte) record.
    const std::string tail = with_varint_tail(clean);
    const DrainResult ref = drain_reference(tail, false);
    ASSERT_FALSE(ref.threw);
    ASSERT_GE(ref.events.size(), 2u);
    EXPECT_TRUE(ref.events.end()[-2] == (Event{5, 300, Op::kRead}));
    EXPECT_TRUE(ref.events.back() == (Event{7, 1, Op::kWrite}));
    cross_check_image(tail, "varint-tail");
    for (size_t keep = 0; keep < 7; ++keep)
        cross_check_image(tail.substr(0, tail.size() - 7 + keep),
                          "varint-tail torn " + std::to_string(keep));
}

TEST(BatchedDecodeParity, BufferedFallbackOnPipePath)
{
    // A path that names a pipe cannot be mapped: the path constructor
    // must fall back to the buffered window and decode identically. The
    // image fits in the pipe buffer, so it is written whole and the write
    // end closed before the reader opens the read end by name.
    const std::string image = serialize(corpus_trace(8777));
    ASSERT_LT(image.size(), 64u * 1024);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], image.data(), image.size()),
              static_cast<ssize_t>(image.size()));
    ::close(fds[1]);
    {
        MappedBinaryEventSource src("/dev/fd/" + std::to_string(fds[0]));
        EXPECT_FALSE(src.is_mapped());
        EXPECT_STREQ(src.source_kind(), "binary-buffered");
        DrainResult got = drain_batched(src, false, 256);
        DrainResult ref = drain_reference(image, false);
        expect_same_drain(ref, got, "pipe");
    }
    ::close(fds[0]);
}

TEST(BatchedDecodeParity, CheckerVerdictMatchesMaterialized)
{
    // End to end: a file-backed mapped run and the materialized run must
    // agree on verdict and event count (golden corpora run through this
    // same path via run_checker_stream).
    for (uint64_t seed : {8801ull, 8802ull, 8803ull}) {
        Trace t = corpus_trace(seed);
        TempImage file(serialize(t), "verdict");
        AeroDromeOpt a(t.num_threads(), t.num_vars(), t.num_locks());
        RunResult want = run_checker(a, t);
        MappedBinaryEventSource src(file.path);
        AeroDromeOpt b(0, 0, 0);
        RunResult got = run_checker_stream(b, src);
        EXPECT_EQ(want.violation, got.violation) << seed;
        EXPECT_EQ(want.events_processed, got.events_processed) << seed;
    }
}

// --- Constant trace residency on the mapped path ----------------------------

/** A binary image written record by record, for traces too large to
 *  hold as a Trace. `offsets` keeps each record's first byte. */
struct ImageBuilder {
    std::string bytes;
    std::vector<size_t> offsets;

    ImageBuilder(uint32_t threads, uint32_t vars, uint32_t locks)
    {
        bytes.assign("AEROTRC1", 8);
        bytes.append(8, '\0'); // event count, patched by finish()
        for (uint32_t v : {threads, vars, locks})
            bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
    }

    void
    varint(uint32_t v)
    {
        while (v >= 0x80) {
            bytes.push_back(static_cast<char>((v & 0x7f) | 0x80));
            v >>= 7;
        }
        bytes.push_back(static_cast<char>(v));
    }

    void
    access(uint32_t i, uint32_t var)
    {
        offsets.push_back(bytes.size());
        bytes.push_back(static_cast<char>(i % 2 ? Op::kWrite : Op::kRead));
        varint(i % 4);
        varint(var);
    }

    std::string
    finish()
    {
        const uint64_t n = offsets.size();
        std::memcpy(&bytes[8], &n, sizeof n);
        return std::move(bytes);
    }
};

/** Resident KiB of `path`'s mapping in /proc/self/smaps, -1 when smaps
 *  names no such mapping. The mapping's own entry,
 *  not the process RSS, so sanitizer and debug heaps do not count. */
long
mapping_rss_kb(const std::string& path)
{
    std::ifstream smaps("/proc/self/smaps");
    std::string line;
    bool in_entry = false;
    while (std::getline(smaps, line)) {
        if (line.size() >= path.size() &&
            line.compare(line.size() - path.size(), path.size(), path) == 0)
            in_entry = true; // entry header: "lo-hi perms ... path"
        else if (in_entry && line.rfind("Rss:", 0) == 0)
            return std::stol(line.substr(4));
    }
    return -1;
}

TEST(MappedResidency, ResidentTraceBytesStayConstant)
{
    // 16 MiB of one-byte-id records: a reader that looks far ahead of
    // its decode position faults much of the file in on the first
    // block, and a reader that never releases what it decoded passes
    // 1 MiB resident well before the end.
    constexpr size_t kImageBytes = 16u << 20;
    constexpr long kMaxResidentKb = 1024;
    std::string image;
    {
        ImageBuilder b(4, 100, 1);
        for (uint32_t i = 0; b.bytes.size() < kImageBytes; ++i)
            b.access(i, i % 100);
        image = b.finish();
    }
    uint64_t expected = 0;
    std::memcpy(&expected, image.data() + 8, sizeof expected);
    const TempImage file(image, "residency");
    std::string().swap(image);
    char real[PATH_MAX];
    ASSERT_NE(::realpath(file.path.c_str(), real), nullptr);

    if (!std::ifstream("/proc/self/smaps"))
        GTEST_SKIP() << "/proc/self/smaps cannot be read";
    MappedBinaryEventSource src(file.path);
    ASSERT_TRUE(src.is_mapped());
    ASSERT_GE(mapping_rss_kb(real), 0) << "no smaps entry for " << real;
    std::vector<Event> buf(kDefaultIngestBlock);
    uint64_t events = 0;
    for (size_t block = 0;; ++block) {
        const size_t got = src.next_n(buf.data(), buf.size());
        if (got == 0)
            break;
        events += got;
        if (block % 64 == 0) {
            ASSERT_LE(mapping_rss_kb(real), kMaxResidentKb)
                << "after block " << block << " (" << events << " events)";
        }
    }
    EXPECT_EQ(events, expected);
}

TEST(BatchedDecodeParity, ErrorContractHoldsPastReleasedPages)
{
    // Multi-MiB images, so the mapped reader has dropped its first pages
    // (every kReleaseStride) many times before the interesting bytes
    // arrive: a wide-id stretch longer than one release stride, record
    // corruption above 1 MiB, and a torn tail.
    constexpr size_t kMiB = 1u << 20;
    ImageBuilder b(4, 20000, 1);
    for (uint32_t i = 0; b.bytes.size() < kMiB + kMiB / 2; ++i) {
        const size_t at = b.bytes.size();
        const bool wide = at > kMiB - 40000 && at < kMiB + 50000;
        b.access(i, wide && i % 3 == 0 ? 128 + (i * 991) % 19872 : i % 100);
    }
    const std::vector<size_t>& offsets = b.offsets;
    const std::string clean = b.finish();
    ASSERT_GT(clean.size(), kMiB + 400000);
    // First byte of the first record at or past `at`.
    auto record_at = [&offsets](size_t at) {
        return *std::lower_bound(offsets.begin(), offsets.end(), at);
    };

    std::string corrupt = clean;
    corrupt[record_at(kMiB + 100000)] = 9;         // bad opcode
    corrupt[record_at(kMiB + 200000) + 1] = 100;   // tid >= 4
    corrupt.replace(record_at(kMiB + 300000) + 2, 6,
                    std::string(6, '\xff'));       // overlong varint
    corrupt_bytes(corrupt, FaultKind::kGarbage, 0x2bad5eedu, kMiB + 400000);
    corrupt.pop_back(); // torn tail
    cross_check_image(corrupt, "large corrupt");

    cross_check_image(clean.substr(0, clean.size() - 1), "large torn-tail");
}

// --- Damage at record and refill boundaries --------------------------------

/** Post-header byte count of record `r`'s byte `k` in an image whose ids
 *  are all one byte. */
uint64_t
post_header_offset(const std::string& image, size_t r, size_t k)
{
    size_t pos = 28;
    for (size_t i = 0; i < r; ++i) {
        const Op op = static_cast<Op>(image[pos]);
        pos += (op == Op::kBegin || op == Op::kEnd) ? 2 : 3;
    }
    return pos + k - 28;
}

TEST(BatchedDecodeParity, DamageAtRecordAndRefillBoundariesMatchesReference)
{
    constexpr uint64_t kChunk = MappedBinaryEventSource::kReadChunk;
    const std::string narrow = serialize(corpus_trace(8650));
    const std::string wide = serialize(wide_id_trace());
    const std::string big = serialize(wide_id_trace(24000));
    ASSERT_GT(big.size(), 28 + kChunk + 64);

    struct Case {
        const char* what;
        const std::string& image;
        uint64_t at; // post-header byte count
    };
    // First byte of the first multi-byte varint (continuation bit set).
    size_t cont = 28;
    while (!(static_cast<uint8_t>(wide[cont]) & 0x80))
        ++cont;
    std::vector<Case> cases = {
        {"first-record opcode", narrow, post_header_offset(narrow, 0, 0)},
        {"first-record tid", narrow, post_header_offset(narrow, 0, 1)},
        {"mid-record", narrow, post_header_offset(narrow, 9, 1)},
        {"varint byte 1", wide, cont - 28},
        {"varint byte 2", wide, cont - 27},
    };
    // Refill boundaries: the header is read alone, so the first event
    // read ends at offset 28 + kChunk; kChunk - 28 sits a header's width
    // before it.
    for (uint64_t at : {kChunk - 28, kChunk})
        for (uint64_t t : {at - 1, at, at + 1})
            cases.push_back({"refill", big, t});

    for (const Case& c : cases) {
        for (const auto& [kind, name] :
             {std::pair{FaultKind::kBitFlip, "bit-flip"},
              std::pair{FaultKind::kGarbage, "garbage"},
              std::pair{FaultKind::kTruncate, "truncate"}}) {
            std::string image = c.image;
            corrupt_bytes_at(image, kind, 28 + c.at, 3 + c.at);
            cross_check_image(image, std::string(c.what) + " @" +
                                         std::to_string(c.at) + " " + name);
        }
    }
}

// --- Format sniffing ---------------------------------------------------------

TEST(FormatSniffing, MagicBeatsExtension)
{
    // A binary image under a text-looking name must still be binary.
    const std::string image = serialize(corpus_trace(8900));
    std::string path = ::testing::TempDir() + "aero_sniff_bin.trace";
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    EXPECT_TRUE(trace_is_binary(path));
    std::remove(path.c_str());
}

TEST(FormatSniffing, BinExtensionWithoutMagicIsRejected)
{
    std::string path = ::testing::TempDir() + "aero_sniff_text.bin";
    {
        std::ofstream f(path, std::ios::trunc);
        f << "t0 begin\nt0 w x\nt0 end\n";
    }
    try {
        trace_is_binary(path);
        FAIL() << "contradictory extension was not rejected";
    } catch (const StreamCorruption& e) {
        EXPECT_EQ(e.error().cause, StreamError::Cause::kBadHeader);
        EXPECT_NE(e.error().message.find("magic"), std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(FormatSniffing, ShortFileFallsBackToExtension)
{
    for (const char* name : {"aero_sniff_short.bin", "aero_sniff_short"}) {
        std::string path = ::testing::TempDir() + name;
        {
            std::ofstream f(path, std::ios::binary | std::ios::trunc);
            f << "abc"; // too short to sniff the 8-byte magic
        }
        const bool want_bin = std::string(name).size() > 4 &&
                              std::string(name).rfind(".bin") ==
                                  std::string(name).size() - 4;
        EXPECT_EQ(trace_is_binary(path), want_bin) << name;
        std::remove(path.c_str());
    }
}

TEST(FormatSniffing, OpenEventSourcePicksBlockReaderForBinary)
{
    const std::string image = serialize(corpus_trace(8901));
    std::string path = ::testing::TempDir() + "aero_sniff_open.bin";
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(image.data(), static_cast<std::streamsize>(image.size()));
    }
    std::unique_ptr<std::istream> storage;
    auto src = open_event_source(path, storage);
    EXPECT_STREQ(src->source_kind(), "binary-mmap");
    std::remove(path.c_str());
}

// --- Budget polls at block granularity ---------------------------------------

/** Never-ending benign stream: forces the time budget to be the only
 *  thing that can stop the run. */
class EndlessSource : public EventSource {
public:
    bool
    next(Event& out) override
    {
        out = Event{0, 0, (flip_ = !flip_) ? Op::kBegin : Op::kEnd};
        return true;
    }

private:
    bool flip_ = false;
};

TEST(BlockBudget, HugeBlockCannotBlowPastMaxSeconds)
{
    // Block (4096) > check_interval (1000): the poll must fire at the
    // first boundary at-or-after each interval *inside* the block, so
    // the run stops on an interval boundary shortly after the deadline
    // instead of at the next block's start (or never stopping).
    EndlessSource src;
    AeroDromeOpt engine(1, 1, 1);
    RunBudget budget;
    // The first poll comes only after the first block is decoded; the
    // deadline leaves room for a loaded machine, or the run would stop
    // at event 0.
    budget.max_seconds = 0.25;
    budget.check_interval = 1000;
    RunResult r = run_checker_stream(engine, src, budget);
    EXPECT_TRUE(r.timed_out);
    EXPECT_GT(r.events_processed, 0u);
    EXPECT_EQ(r.events_processed % budget.check_interval, 0u)
        << "timeout did not land on a poll boundary";
}

TEST(BlockBudget, ExpiredBudgetStopsAtFirstBoundary)
{
    EndlessSource src;
    AeroDromeOpt engine(1, 1, 1);
    RunBudget budget;
    budget.max_seconds = 1e-9; // already expired at the first poll
    budget.check_interval = 1000;
    RunResult r = run_checker_stream(engine, src, budget);
    EXPECT_TRUE(r.timed_out);
    EXPECT_EQ(r.events_processed, 0u);
}

TEST(BlockBudget, ResolveIngestBlockExplicitAndDefault)
{
    EXPECT_EQ(resolve_ingest_block(0), kDefaultIngestBlock);
    EXPECT_EQ(resolve_ingest_block(77), 77u);
}

// --- Decode ahead ------------------------------------------------------------
//
// Past a full first block, run_checker_stream decodes on a worker thread
// (runner.hpp). Every trace here spans at least three full blocks, so the
// worker runs and the ring turns over. Whatever ends the run, it must end
// as decoding inline would, with the worker joined; a hang fails ctest's
// timeout, and a race or leak fails the sanitizer builds.

/** True when this thread may run on two CPUs: the runner then decodes
 *  ahead. */
bool
decodes_ahead_here()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    return ::sched_getaffinity(0, sizeof set, &set) == 0 &&
           CPU_COUNT(&set) >= 2;
}

constexpr size_t kBlock = kDefaultIngestBlock;

/** `blocks` full blocks of accesses, no transactions: serializable. */
ImageBuilder
access_image(size_t blocks)
{
    ImageBuilder b(4, 100, 1);
    for (uint32_t i = 0; i < blocks * kBlock; ++i)
        b.access(i, i % 100);
    return b;
}

/** Counts the events it is handed, spinning `ns` on each: a checker
 *  slower than decode, so the worker runs ahead and the ring fills. */
class SlowCounter : public CheckerBase {
public:
    explicit SlowCounter(uint64_t ns) : ns_(ns) {}

    std::string_view name() const override { return "slow-counter"; }

    bool
    process(const Event&, size_t) override
    {
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::nanoseconds(ns_);
        while (std::chrono::steady_clock::now() < until) {
        }
        ++seen;
        return false;
    }

    uint64_t seen = 0;

private:
    uint64_t ns_;
};

TEST(DecodeAhead, StrictDamageInBlockThreeMatchesReference)
{
    ImageBuilder b = access_image(6);
    const size_t bad = 2 * kBlock + 1000; // inside block 3
    const size_t at = b.offsets[bad];
    std::string image = b.finish();
    image[at] = 9; // bad opcode
    const DrainResult ref = drain_reference(image, false);
    ASSERT_TRUE(ref.threw);
    ASSERT_EQ(ref.events.size(), bad);

    const TempImage file(image, "ahead_strict");
    AeroDromeOpt engine(0, 0, 0);
    SlowCounter slow(200);
    for (AtomicityChecker* checker : {static_cast<AtomicityChecker*>(&engine),
                                      static_cast<AtomicityChecker*>(&slow)}) {
        const std::string what(checker->name());
        MappedBinaryEventSource src(file.path);
        const RunResult r = run_checker_stream(*checker, src);
        ASSERT_EQ(r.status(), RunStatus::kStreamError) << what;
        ASSERT_TRUE(r.stream_error.has_value()) << what;
        expect_same_error(ref.error, *r.stream_error, what);
        EXPECT_EQ(r.stream_error->byte_offset, at) << what;
        EXPECT_EQ(r.events_processed, ref.events.size()) << what;
        EXPECT_EQ(r.decoded_ahead, decodes_ahead_here()) << what;
    }
    EXPECT_EQ(slow.seen, ref.events.size());
}

TEST(DecodeAhead, ResyncCountsOnlyTheBlocksChecked)
{
    ImageBuilder b = access_image(6);
    const size_t at[] = {b.offsets[kBlock + 7], b.offsets[2 * kBlock + 1000],
                         b.offsets[4 * kBlock + 3]};
    std::string image = b.finish();
    for (size_t a : at)
        image[a] = 9;
    const DrainResult ref = drain_reference(image, true);
    ASSERT_FALSE(ref.threw);
    // Gaps recorded while decoding blocks 1 and 2: one damaged record
    // there may read as several (resync slides byte by byte).
    uint64_t in_two_blocks = 0;
    for (const StreamError& err : ref.recovered)
        in_two_blocks += err.event_index < 2 * kBlock;
    ASSERT_GT(in_two_blocks, 0u);
    ASSERT_LT(in_two_blocks, ref.recovered_total);

    const TempImage file(image, "ahead_resync");
    {
        MappedBinaryEventSource src(file.path);
        src.set_resync(true);
        AeroDromeOpt engine(0, 0, 0);
        const RunResult r = run_checker_stream(engine, src);
        EXPECT_EQ(r.status(), RunStatus::kDegraded);
        EXPECT_EQ(r.stream_errors_recovered, ref.recovered_total);
        EXPECT_EQ(r.events_processed, ref.events.size());
        EXPECT_EQ(r.decoded_ahead, decodes_ahead_here());
    }
    {
        // A run stopped in block 2 reports the gaps of blocks 1 and 2,
        // however far the worker decoded: a slow checker lets it decode
        // blocks 3 and 4 first.
        MappedBinaryEventSource src(file.path);
        src.set_resync(true);
        SlowCounter checker(500);
        RunBudget budget;
        budget.check_interval = 1;
        FaultPlan plan;
        plan.site = FaultSite::kAlloc;
        plan.kind = FaultKind::kAllocCap;
        plan.trigger = kBlock + 100;
        FaultInjector::instance().arm(plan);
        const RunResult r = run_checker_stream(checker, src, budget);
        FaultInjector::instance().disarm();
        EXPECT_EQ(r.status(), RunStatus::kInternalError);
        EXPECT_EQ(r.events_processed, kBlock + 100);
        EXPECT_EQ(r.stream_errors_recovered, in_two_blocks);
    }
}

TEST(DecodeAhead, ViolationInBlockTwoEndsTheRun)
{
    Trace t;
    for (uint32_t i = 0; i < kBlock + 500; ++i)
        t.write(i % 4, 1 + i % 50);
    // t0 begin; t0 r x; t1 w x; t0 w x; t0 end: not serializable.
    t.begin(0);
    t.read(0, 0);
    t.write(1, 0);
    t.write(0, 0);
    t.end(0);
    for (uint32_t i = 0; i < 6 * kBlock; ++i)
        t.write(i % 4, 1 + i % 50);
    const TempImage file(serialize(t), "ahead_violation");
    MappedBinaryEventSource src(file.path);
    AeroDromeOpt engine(0, 0, 0);
    const RunResult r = run_checker_stream(engine, src);
    ASSERT_EQ(r.status(), RunStatus::kViolation);
    ASSERT_TRUE(r.details.has_value());
    EXPECT_GE(r.details->event_index, kBlock);
    EXPECT_LT(r.details->event_index, 2 * kBlock);
    EXPECT_EQ(r.events_processed, r.details->event_index + 1);
    EXPECT_EQ(r.decoded_ahead, decodes_ahead_here());
}

TEST(DecodeAhead, TimeoutAndMemoryCapJoinTheWorker)
{
    {
        EndlessSource src;
        SlowCounter checker(1000); // ~4 ms a block
        RunBudget budget;
        budget.max_seconds = 0.05;
        const RunResult r = run_checker_stream(checker, src, budget);
        EXPECT_EQ(r.status(), RunStatus::kTimeout);
        EXPECT_GT(r.events_processed, 3 * kBlock);
        EXPECT_EQ(r.decoded_ahead, decodes_ahead_here());
    }
    {
        // The alloc-cap drill: breached from the 3rd poll on, in block 3.
        const TempImage file(access_image(8).finish(), "ahead_cap");
        MappedBinaryEventSource src(file.path);
        AeroDromeOpt engine(0, 0, 0);
        RunBudget budget;
        budget.check_interval = kBlock;
        FaultPlan plan;
        plan.site = FaultSite::kAlloc;
        plan.kind = FaultKind::kAllocCap;
        plan.trigger = 2;
        FaultInjector::instance().arm(plan);
        const RunResult r = run_checker_stream(engine, src, budget);
        FaultInjector::instance().disarm();
        ASSERT_EQ(r.status(), RunStatus::kInternalError);
        EXPECT_NE(r.internal_error.find("injected"), std::string::npos);
        EXPECT_EQ(r.events_processed, 2 * kBlock);
        EXPECT_EQ(r.decoded_ahead, decodes_ahead_here());
    }
}

/** `blocks` full blocks of one thread's empty transactions, then
 *  next_n throws E("source failed"). */
template <typename E>
class FailingSource : public EventSource {
public:
    explicit FailingSource(size_t blocks) : left_(blocks) {}

    bool
    next(Event& out) override
    {
        return next_n(&out, 1) == 1;
    }

    size_t
    next_n(Event* out, size_t n) override
    {
        if (left_ == 0)
            throw E("source failed");
        --left_;
        for (size_t i = 0; i < n; ++i)
            out[i] = Event{0, 0, (flip_ = !flip_) ? Op::kBegin : Op::kEnd};
        return n;
    }

private:
    size_t left_;
    bool flip_ = false;
};

TEST(DecodeAhead, SourceExceptionArrivesAfterTheBlocksBeforeIt)
{
    {
        FailingSource<InternalError> src(5);
        SlowCounter checker(200);
        const RunResult r = run_checker_stream(checker, src);
        EXPECT_EQ(r.status(), RunStatus::kInternalError);
        EXPECT_EQ(r.internal_error, "source failed");
        EXPECT_EQ(r.events_processed, 5 * kBlock);
        EXPECT_EQ(checker.seen, 5 * kBlock);
        EXPECT_EQ(r.decoded_ahead, decodes_ahead_here());
    }
    {
        FailingSource<FatalError> src(5);
        SlowCounter checker(200);
        EXPECT_THROW(run_checker_stream(checker, src), FatalError);
        EXPECT_EQ(checker.seen, 5 * kBlock);
    }
}

TEST(DecodeAhead, OneCpuOrOneBlockDecodesInline)
{
    {
        // Shorter than a block: no thread.
        Trace t;
        t.begin(0);
        t.end(0);
        TraceSource one(t);
        SlowCounter checker(0);
        const RunResult r = run_checker_stream(checker, one);
        EXPECT_FALSE(r.decoded_ahead);
        EXPECT_EQ(r.events_processed, 2u);
        EXPECT_EQ(r.wait_seconds, r.decode_seconds);
    }
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(::sched_getaffinity(0, sizeof saved, &saved), 0);
    cpu_set_t one_cpu;
    CPU_ZERO(&one_cpu);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &saved)) {
            CPU_SET(c, &one_cpu);
            break;
        }
    }
    ASSERT_EQ(::sched_setaffinity(0, sizeof one_cpu, &one_cpu), 0);
    FailingSource<InternalError> src(5);
    SlowCounter checker(0);
    const RunResult r = run_checker_stream(checker, src);
    ASSERT_EQ(::sched_setaffinity(0, sizeof saved, &saved), 0);
    EXPECT_FALSE(r.decoded_ahead);
    EXPECT_EQ(r.events_processed, 5 * kBlock);
    EXPECT_EQ(r.wait_seconds, r.decode_seconds);
}

} // namespace
} // namespace aero
