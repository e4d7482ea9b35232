#pragma once

/**
 * @file
 * Zero-copy block-decoding reader for the binary trace format.
 *
 * BinaryEventSource pays per-event costs the paper's checkers no longer
 * do: a virtual call per event, an istream get() per byte, and a deque
 * lookahead. For file-backed runs decode dominates the budget, so this
 * reader turns ingestion into block work: the trace is mmap'd read-only
 * (MADV_SEQUENTIAL) and next_n() decodes a whole caller-sized block per
 * call straight out of the mapping. Each record takes one fast path that
 * decodes its varints with no error machinery while a max-size record
 * (kMaxRecordBytes) fits in the window; the window tail and anything the
 * fast path rejects take a per-record slow path that reproduces
 * BinaryEventSource's error contract byte-for-byte.
 *
 * Residency: the trace bytes a mapped run holds resident are a constant,
 * not a share of the file. The decoder reads at most kMaxRecordBytes past
 * the decode position, and once that position has moved kReleaseStride
 * (64 KiB) past the last release point, next_n() drops the whole pages
 * below it with MADV_DONTNEED. The mapping is read-only and private and
 * never written, so a dropped page that is touched again refaults from
 * the page cache with the file's bytes; nothing reads below the decode
 * position anyway, since errors are re-derived and resync slides from
 * it, and --validate / --witness open a fresh source. The kernel maps
 * whole page-cache folios, so the bound rounds out to them
 * (src/trace/README.md, "Residency").
 *
 * Fallback rule (the reader never refuses input BinaryEventSource
 * accepts): a non-empty regular file is always mapped; pipes/stdin,
 * special files, or an mmap failure switch to a read()-into-buffer
 * window over the same batched kernel (absolute offsets are preserved
 * across refills).
 *
 * Error contract: identical to BinaryEventSource (src/trace/README.md)
 * — same StreamError causes, messages, event indices, and absolute byte
 * offsets, in strict and resync modes. The batch twist: in strict mode a
 * corruption found after >= 1 events of a block were decoded returns the
 * prefix first and raises the identical error on the next call (see
 * EventSource::next_n).
 */

#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "trace/stream.hpp"

namespace aero {

class MappedBinaryEventSource : public EventSource {
public:
    /** Open `path`: mmap when it is a non-empty regular file, else
     *  buffered reads. Parses and validates the header immediately;
     *  throws StreamCorruption (kBadHeader) when malformed. Fatal when
     *  the file cannot be opened. */
    explicit MappedBinaryEventSource(const std::string& path);

    /** Stream ctor (pipes, stdin, tests): always the buffered window.
     *  `is` must outlive the source. */
    explicit MappedBinaryEventSource(std::istream& is);

    ~MappedBinaryEventSource() override;

    MappedBinaryEventSource(const MappedBinaryEventSource&) = delete;
    MappedBinaryEventSource& operator=(const MappedBinaryEventSource&) =
        delete;

    bool next(Event& out) override;
    size_t next_n(Event* out, size_t n) override;

    /** "binary-mmap" or "binary-buffered". */
    const char* source_kind() const override;
    /** The buffered window reads a stream, which may be a pipe. */
    bool may_block() const override { return !mapped_; }

    void set_resync(bool on) override { resync_ = on; }
    const std::vector<StreamError>& recovered_errors() const override
    {
        return errors_;
    }
    uint64_t recovered_error_count() const override { return errors_total_; }

    bool dimensions(uint32_t& threads, uint32_t& vars,
                    uint32_t& locks) const override;

    /** True when the trace is served from an mmap (diagnostics). */
    bool is_mapped() const { return mapped_; }

    /** Buffered-mode read granularity. The header is read alone, so
     *  the first refill covers byte offsets [28, 28 + kReadChunk). */
    static constexpr size_t kReadChunk = 256 * 1024;

    /** Mapped path: how far the decode position moves between two page
     *  releases. One kernel fault-around window: the bytes a fault maps
     *  at once are dropped at once. */
    static constexpr size_t kReleaseStride = 64 * 1024;

private:
    /** Longest record: 1 opcode + two 5-byte varints. */
    static constexpr size_t kMaxRecordBytes = 11;
    static constexpr size_t kHeaderBytes = 28;

    enum class Rec : uint8_t { kOk, kShort, kBad };

    void open_mapped_or_buffered(const std::string& path);
    void parse_header();
    /** Read more input, until the window holds `upto` bytes or the
     *  buffer is full. */
    void refill(size_t upto = SIZE_MAX);
    size_t decode_block(Event* out, size_t n);
    Rec decode_one(Event& out, size_t& len, StreamError& err);
    /** Mapped: drop the consumed pages once kReleaseStride bytes
     *  gathered. */
    void release_consumed();
    void record_gap(StreamError err);

    std::unique_ptr<std::ifstream> own_stream_; ///< buffered path source

    // Byte window. Mapped: data_ spans the whole file and never moves.
    // Buffered: data_ == buf_.data(); refill() compacts and reads.
    const uint8_t* data_ = nullptr;
    size_t avail_ = 0; ///< valid bytes in data_
    size_t pos_ = 0;   ///< next undecoded byte
    uint64_t base_ = 0; ///< absolute stream offset of data_[0]

    bool mapped_ = false;
    void* map_base_ = nullptr;
    size_t map_len_ = 0;
    size_t page_size_ = 0;
    size_t released_ = 0; ///< data_[0..released_) pages dropped

    std::istream* in_ = nullptr; ///< buffered-mode byte source
    std::vector<uint8_t> buf_;
    bool src_eof_ = false;

    uint64_t expected_ = 0;
    uint64_t produced_ = 0;
    uint32_t num_threads_ = 0;
    uint32_t num_vars_ = 0;
    uint32_t num_locks_ = 0;
    /** Per-opcode target-id space bound and presence, precomputed from
     *  the header so the block loop validates without branching on op
     *  kind. */
    uint32_t limit_by_op_[kNumOps] = {};
    bool has_target_[kNumOps] = {};

    bool resync_ = false;
    bool done_ = false;     ///< terminal truncation already delivered
    bool gap_open_ = false; ///< inside a contiguous corruption gap
    std::vector<StreamError> errors_;
    uint64_t errors_total_ = 0;
};

} // namespace aero
