#pragma once

/**
 * @file
 * Streaming event sources.
 *
 * The paper's traces run to billions of events (Table 1: avrora 2.4B,
 * lusearch 2.0B); such logs do not fit in memory. Both checkers are
 * single-pass online algorithms, so this module provides pull-based
 * event sources that decode one event at a time from the text or binary
 * format, plus an adapter over an in-memory Trace. The analysis runner
 * has a streaming entry point (`run_checker_stream`) built on these.
 *
 * Sources hand out events only: no engine is sized from a source. The
 * checkers grow their state with the ids the events use, and a
 * source's dimensions() (its header's id spaces, when it has one) only
 * fill in a materialized Trace's metainfo.
 *
 * Corrupt input is a first-class outcome, not an abort (src/trace/
 * README.md): in strict mode (the default) a malformed byte raises
 * StreamCorruption with a structured StreamError; in resync mode
 * (set_resync) the reader records the error, scans forward to the next
 * plausible record boundary, and keeps going — the consumer sees a
 * degraded but sound stream.
 */

#include <algorithm>
#include <deque>
#include <exception>
#include <istream>
#include <memory>
#include <vector>

#include "trace/stream_error.hpp"
#include "trace/trace.hpp"

namespace aero {

/** Hard plausibility cap on header-declared id spaces: a count above
 *  this is treated as corruption (kBadHeader), never as an allocation
 *  request. Generous next to any real trace (paper workloads top out at
 *  millions of variables and dozens of threads). */
inline constexpr uint32_t kMaxHeaderIds = 1u << 26;

/** Default block size for batched ingestion (resolve_ingest_block). */
inline constexpr size_t kDefaultIngestBlock = 4096;

/** Resolve a block-ingestion size: `requested` when nonzero, else
 *  kDefaultIngestBlock. */
size_t resolve_ingest_block(size_t requested);

/** Pull-based event stream. */
class EventSource {
public:
    virtual ~EventSource() = default;

    /**
     * Decode the next event into `out`.
     * @return false at end of stream; throws StreamCorruption (an
     *         aero::FatalError) on corrupt input in strict mode.
     */
    virtual bool next(Event& out) = 0;

    /**
     * Decode up to `n` events into `out` — the block-ingestion entry
     * point the runner drives so sources can
     * amortize per-event virtual-call and decode overhead.
     *
     * @return the number of events decoded; 0 only at end of stream.
     *
     * Contract (identical observable behavior to repeated next()):
     *  - strict mode: a corrupt record found after >= 1 events decoded
     *    ends the batch early — those events are returned, nothing of
     *    the corrupt record is consumed, and the *next* call raises the
     *    identical StreamCorruption (same cause/index/byte offset). A
     *    batch that decodes nothing before the corruption throws.
     *  - resync mode: errors are recorded and skipped inside the call,
     *    exactly as next() would; a short return still means the stream
     *    is over.
     */
    virtual size_t next_n(Event* out, size_t n);

    /** Short reader-kind tag for diagnostics and --stats lines. */
    virtual const char* source_kind() const { return "stream"; }

    /**
     * True when next_n may block on input that has not been written yet
     * (a pipe, a terminal). run_checker_stream decodes ahead on a worker
     * thread only from sources that return false: a run that ends early
     * joins that worker, and a worker blocked in a read would hold the
     * verdict until more input arrived. Memory and mapped files never
     * block; a reader over a std::istream cannot tell, so it says true.
     */
    virtual bool may_block() const { return false; }

    /**
     * Metainfo dimensions of the whole stream, when the source knows them
     * up front (an in-memory trace, a binary header). drain_trace copies
     * them into its Trace; no engine is sized from them.
     * @return false when the dimensions are only known at end of stream
     *         (e.g. the incrementally-interned text format).
     */
    virtual bool
    dimensions(uint32_t& /*threads*/, uint32_t& /*vars*/,
               uint32_t& /*locks*/) const
    {
        return false;
    }

    /** Opt in to resynchronization: corrupt records are recorded and
     *  skipped instead of raising StreamCorruption. Default: strict. */
    virtual void set_resync(bool /*on*/) {}

    /** Errors recovered by resync so far (first kMaxRecordedErrors
     *  kept; recovered_error_count() has the full tally). */
    virtual const std::vector<StreamError>& recovered_errors() const;

    /** Total corrupt records recovered by resync. */
    virtual uint64_t recovered_error_count() const { return 0; }

    /** Cap on individually recorded resync errors. */
    static constexpr size_t kMaxRecordedErrors = 64;

protected:
    /** Error raised by next() after >= 1 events of a default-next_n batch
     *  were already decoded: stashed here, rethrown at the next call so
     *  the partial batch is not lost (see next_n contract). */
    std::exception_ptr pending_error_;
    /** Latched once next() returns false inside a next()-looping next_n:
     *  later calls return 0 without re-entering next(). Post-EOF next()
     *  is not observably idempotent (the resync reader re-records its
     *  terminal short-count error each call), and batch drains always
     *  make one final call to see the 0. */
    bool exhausted_ = false;
};

/** Adapter: stream an in-memory trace. */
class TraceSource : public EventSource {
public:
    explicit TraceSource(const Trace& trace) : trace_(trace) {}

    bool
    next(Event& out) override
    {
        if (pos_ >= trace_.size())
            return false;
        out = trace_[pos_++];
        return true;
    }

    size_t
    next_n(Event* out, size_t n) override
    {
        const size_t got = std::min(n, trace_.size() - pos_);
        std::copy_n(trace_.events().begin() + static_cast<long>(pos_), got,
                    out);
        pos_ += got;
        return got;
    }

    const char* source_kind() const override { return "trace"; }

    bool
    dimensions(uint32_t& threads, uint32_t& vars,
               uint32_t& locks) const override
    {
        threads = trace_.num_threads();
        vars = trace_.num_vars();
        locks = trace_.num_locks();
        return true;
    }

private:
    const Trace& trace_;
    size_t pos_ = 0;
};

/**
 * Streaming reader for the text format (see text_io.hpp). Thread, var,
 * and lock names are interned incrementally; the tables are exposed so
 * callers can render events or map names after (or during) the run.
 * StreamError::byte_offset reports the 1-based line number.
 */
class TextEventSource : public EventSource {
public:
    explicit TextEventSource(std::istream& is) : is_(is) {}

    bool next(Event& out) override;
    const char* source_kind() const override { return "text"; }
    bool may_block() const override { return true; }

    void set_resync(bool on) override { resync_ = on; }
    const std::vector<StreamError>& recovered_errors() const override
    {
        return errors_;
    }
    uint64_t recovered_error_count() const override { return errors_total_; }

    const NameTable& threads() const { return threads_; }
    const NameTable& vars() const { return vars_; }
    const NameTable& locks() const { return locks_; }

private:
    /** @return 1 event parsed, 0 blank/comment line, -1 parse error
     *  (message in `err`). Interns names only on success. */
    int parse_line(const std::string& line, Event& out, std::string& err);

    std::istream& is_;
    NameTable threads_;
    NameTable vars_;
    NameTable locks_;
    size_t line_no_ = 0;
    uint64_t produced_ = 0;
    bool resync_ = false;
    std::vector<StreamError> errors_;
    uint64_t errors_total_ = 0;
};

/**
 * Streaming reader for the binary format (see binary_io.hpp). Decodes
 * through a small lookahead buffer so resync mode can re-attempt a
 * record at every byte offset after a corruption without seeking the
 * underlying stream (pipes included). Event ids are validated against
 * the header-declared id spaces — a tid or target at or beyond them is
 * corruption, never an instruction to allocate.
 *
 * Reference only: nothing in the library constructs it. Every
 * production read (open_event_source, read_binary) goes through the
 * block reader, MappedBinaryEventSource; this one-byte-at-a-time decoder
 * is the parity reference that reader is tested against, on clean and
 * damaged images alike (tests/ingest_test.cpp).
 */
class BinaryEventSource : public EventSource {
public:
    /** Reads and validates the header immediately; throws
     *  StreamCorruption (kBadHeader) when malformed or implausible. */
    explicit BinaryEventSource(std::istream& is);

    bool next(Event& out) override;
    const char* source_kind() const override { return "binary"; }
    bool may_block() const override { return true; }

    void set_resync(bool on) override { resync_ = on; }
    const std::vector<StreamError>& recovered_errors() const override
    {
        return errors_;
    }
    uint64_t recovered_error_count() const override { return errors_total_; }

    /** Event count promised by the header. */
    uint64_t expected_events() const { return expected_; }
    uint32_t num_threads() const { return num_threads_; }
    uint32_t num_vars() const { return num_vars_; }
    uint32_t num_locks() const { return num_locks_; }

    bool
    dimensions(uint32_t& threads, uint32_t& vars,
               uint32_t& locks) const override
    {
        threads = num_threads_;
        vars = num_vars_;
        locks = num_locks_;
        return true;
    }

private:
    enum class Decode : uint8_t { kOk, kEof, kBad };

    int peek_byte(size_t k);
    void consume(size_t n);
    Decode try_decode(Event& out, size_t& len, StreamError& err);
    void record_or_throw(StreamError err, bool& recorded_this_gap);

    std::istream& is_;
    uint64_t expected_ = 0;
    uint64_t produced_ = 0;
    uint32_t num_threads_ = 0;
    uint32_t num_vars_ = 0;
    uint32_t num_locks_ = 0;
    /** Lookahead bytes already pulled from is_; front is the next undecoded byte at stream offset offset_. */
    std::deque<int> buf_;
    uint64_t offset_ = 0; // absolute offset of buf_ front
    bool truncated_ = false;
    bool resync_ = false;
    std::vector<StreamError> errors_;
    uint64_t errors_total_ = 0;
};

/**
 * Decide text vs binary for `path` by sniffing the first 8 bytes for the
 * AEROTRC1 magic; the ".bin" extension is only a fallback for files too
 * short to sniff. A ".bin" file without the magic is a contradiction —
 * parsing it as text would only produce noise — and raises
 * StreamCorruption (kBadHeader) naming both signals.
 * @return true for binary. Fatal when the file cannot be opened.
 */
bool trace_is_binary(const std::string& path);

/**
 * Open a file as a streaming source. Format is sniffed by magic
 * (trace_is_binary); binary files get the block-decoding
 * MappedBinaryEventSource (mmap, buffered fallback — see
 * mapped_reader.hpp), which owns its input, so `storage` is only
 * populated for text sources.
 */
std::unique_ptr<EventSource> open_event_source(const std::string& path,
                                               std::unique_ptr<std::istream>& storage);

/**
 * Drain up to `max_events` events of `src` into an in-memory Trace: the
 * one in-memory loader over the streaming readers (read_text,
 * read_binary, aerocheck's --validate and --witness loads). Id spaces
 * come from dimensions() when the source knows them; a TextEventSource's
 * name tables are copied. Strict-mode corruption propagates as
 * StreamCorruption; in resync mode skipped records are simply absent.
 */
Trace drain_trace(EventSource& src, uint64_t max_events = UINT64_MAX);

} // namespace aero
