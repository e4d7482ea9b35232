#include "trace/mapped_reader.hpp"

#include <algorithm>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/assert.hpp"

namespace aero {

MappedBinaryEventSource::MappedBinaryEventSource(const std::string& path)
{
    open_mapped_or_buffered(path);
    parse_header();
}

MappedBinaryEventSource::MappedBinaryEventSource(std::istream& is)
{
    in_ = &is;
    buf_.resize(kReadChunk);
    data_ = buf_.data();
    parse_header();
}

MappedBinaryEventSource::~MappedBinaryEventSource()
{
    if (map_base_ != nullptr)
        ::munmap(map_base_, map_len_);
}

void
MappedBinaryEventSource::open_mapped_or_buffered(const std::string& path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
        struct stat st;
        if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) &&
            st.st_size > 0) {
            void* m =
                ::mmap(nullptr, static_cast<size_t>(st.st_size),
                       PROT_READ, MAP_PRIVATE, fd, 0);
            if (m != MAP_FAILED) {
                ::madvise(m, static_cast<size_t>(st.st_size),
                          MADV_SEQUENTIAL);
                ::close(fd);
                map_base_ = m;
                map_len_ = static_cast<size_t>(st.st_size);
                page_size_ = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
                data_ = static_cast<const uint8_t*>(m);
                avail_ = map_len_;
                mapped_ = true;
                return;
            }
        }
        ::close(fd);
    }
    // Not a regular file, or open/map failed: the buffered fallback
    // keeps pipes and special files working.
    own_stream_ = std::make_unique<std::ifstream>(path, std::ios::binary);
    if (!*own_stream_)
        fatal("cannot open file for reading: " + path);
    in_ = own_stream_.get();
    buf_.resize(kReadChunk);
    data_ = buf_.data();
}

void
MappedBinaryEventSource::refill(size_t upto)
{
    AERO_ASSERT(!mapped_ && in_ != nullptr, "refill on a mapped source");
    // Compact the undecoded tail to the front; base_ stays the absolute
    // offset of data_[0] so error byte offsets survive the move.
    const size_t tail = avail_ - pos_;
    if (pos_ > 0) {
        std::memmove(buf_.data(), buf_.data() + pos_, tail);
        base_ += pos_;
        pos_ = 0;
        avail_ = tail;
    }
    const size_t want = std::min(buf_.size(), upto) - avail_;
    in_->read(reinterpret_cast<char*>(buf_.data() + avail_),
              static_cast<std::streamsize>(want));
    const size_t got = static_cast<size_t>(in_->gcount());
    if (got < want)
        src_eof_ = true;
    avail_ += got;
    data_ = buf_.data();
}

void
MappedBinaryEventSource::parse_header()
{
    auto bad_header = [](uint64_t off, std::string msg) {
        StreamError e;
        e.cause = StreamError::Cause::kBadHeader;
        e.event_index = 0;
        e.byte_offset = off;
        e.message = std::move(msg);
        throw StreamCorruption(std::move(e));
    };
    // The buffered window reads the header alone: construction leaves
    // every event byte to decode-time refills.
    auto need = [&](size_t n) {
        while (!mapped_ && !src_eof_ && avail_ < n)
            refill(kHeaderBytes);
        return avail_ >= n;
    };

    static constexpr char kMagic[8] = {'A', 'E', 'R', 'O',
                                       'T', 'R', 'C', '1'};
    if (!need(8) || std::memcmp(data_, kMagic, sizeof(kMagic)) != 0)
        bad_header(0, "not an aerodrome binary trace (bad magic)");
    if (!need(16))
        bad_header(8, "binary trace truncated in header");
    std::memcpy(&expected_, data_ + 8, sizeof(expected_));
    if (!need(kHeaderBytes))
        bad_header(16, "binary trace truncated in header");
    std::memcpy(&num_threads_, data_ + 16, sizeof(num_threads_));
    std::memcpy(&num_vars_, data_ + 20, sizeof(num_vars_));
    std::memcpy(&num_locks_, data_ + 24, sizeof(num_locks_));
    if (num_threads_ > kMaxHeaderIds || num_vars_ > kMaxHeaderIds ||
        num_locks_ > kMaxHeaderIds)
        bad_header(16, "implausible id space in header (" +
                           std::to_string(num_threads_) + " threads, " +
                           std::to_string(num_vars_) + " vars, " +
                           std::to_string(num_locks_) + " locks)");
    pos_ = kHeaderBytes; // corruption offsets are absolute

    for (uint32_t o = 0; o < kNumOps; ++o) {
        const Op op = static_cast<Op>(o);
        if (op == Op::kBegin || op == Op::kEnd) {
            has_target_[o] = false;
            limit_by_op_[o] = 0;
        } else {
            has_target_[o] = true;
            limit_by_op_[o] = op_targets_var(op)    ? num_vars_
                              : op_targets_lock(op) ? num_locks_
                                                    : num_threads_;
        }
    }
}

void
MappedBinaryEventSource::release_consumed()
{
    // Whole pages only: the page holding pos_ may still be decoding.
    if (!mapped_ || pos_ - released_ < kReleaseStride)
        return;
    const size_t upto = pos_ & ~(page_size_ - 1);
    ::madvise(static_cast<uint8_t*>(map_base_) + released_, upto - released_,
              MADV_DONTNEED);
    released_ = upto;
}

/** Mirror of BinaryEventSource::try_decode over the byte window: same
 *  causes, messages, event index, and absolute byte offset. kShort means
 *  the window ended mid-record, which callers treat exactly like the
 *  legacy peek-EOF-inside-a-record case. */
MappedBinaryEventSource::Rec
MappedBinaryEventSource::decode_one(Event& out, size_t& len,
                                    StreamError& err)
{
    const uint8_t* p = data_ + pos_;
    const size_t have = avail_ - pos_;
    err.event_index = produced_;
    err.byte_offset = base_ + pos_;

    AERO_ASSERT(have > 0, "decode_one on an empty window");
    const int opb = p[0];
    if (opb >= static_cast<int>(kNumOps)) {
        err.cause = StreamError::Cause::kBadOpcode;
        err.message = "invalid opcode " + std::to_string(opb);
        return Rec::kBad;
    }
    const Op op = static_cast<Op>(opb);

    size_t k = 1;
    bool ended_short = false;
    // LEB128 varint bounded for u32 ids: at most 5 bytes, value must fit.
    auto read_id = [&](const char* what, uint64_t& v) {
        v = 0;
        for (int i = 0; i < 5; ++i) {
            if (k >= have) {
                err.cause = StreamError::Cause::kTruncated;
                err.message = std::string("stream ends inside the ") +
                              what + " of a record";
                ended_short = true;
                return false;
            }
            const uint8_t c = p[k];
            ++k;
            v |= static_cast<uint64_t>(c & 0x7f) << (7 * i);
            if (!(c & 0x80)) {
                if (v <= UINT32_MAX)
                    return true;
                err.cause = StreamError::Cause::kBadVarint;
                err.message = std::string(what) + " varint " +
                              std::to_string(v) + " exceeds u32";
                return false;
            }
        }
        err.cause = StreamError::Cause::kBadVarint;
        err.message = std::string(what) + " varint longer than 5 bytes";
        return false;
    };

    uint64_t tid = 0;
    if (!read_id("thread id", tid))
        return ended_short ? Rec::kShort : Rec::kBad;
    if (tid >= num_threads_) {
        err.cause = StreamError::Cause::kIdOutOfRange;
        err.message = "thread id " + std::to_string(tid) +
                      " >= header-declared " + std::to_string(num_threads_);
        return Rec::kBad;
    }

    uint64_t target = 0;
    if (has_target_[static_cast<uint32_t>(opb)]) {
        if (!read_id("target id", target))
            return ended_short ? Rec::kShort : Rec::kBad;
        const uint32_t limit = limit_by_op_[static_cast<uint32_t>(opb)];
        if (target >= limit) {
            const char* space = op_targets_var(op)    ? "vars"
                                : op_targets_lock(op) ? "locks"
                                                      : "threads";
            err.cause = StreamError::Cause::kIdOutOfRange;
            err.message = std::string(op_name(op)) + " target " +
                          std::to_string(target) +
                          " >= header-declared " + std::to_string(limit) +
                          " " + space;
            return Rec::kBad;
        }
    }

    out = Event{static_cast<ThreadId>(tid), static_cast<uint32_t>(target),
                op};
    len = k;
    return Rec::kOk;
}

void
MappedBinaryEventSource::record_gap(StreamError err)
{
    // One recorded error per contiguous corruption gap, however many
    // byte offsets the resync scan rejects while crossing it — the gap
    // closes on the next successfully decoded record.
    if (gap_open_)
        return;
    gap_open_ = true;
    ++errors_total_;
    if (errors_.size() < kMaxRecordedErrors)
        errors_.push_back(std::move(err));
}

size_t
MappedBinaryEventSource::decode_block(Event* out, size_t n)
{
    size_t k = 0;
    while (k < n) {
        if (produced_ >= expected_ || done_)
            break;
        if (!mapped_ && !src_eof_ && avail_ - pos_ < kMaxRecordBytes + 5)
            refill();
        if (avail_ == pos_) {
            // Bytes ran out before the header's promised event count.
            if (k > 0 && !resync_)
                break; // the next call re-derives and raises this
            StreamError e;
            e.cause = StreamError::Cause::kTruncated;
            e.event_index = produced_;
            e.byte_offset = base_ + pos_;
            e.message = "stream ended after " + std::to_string(produced_) +
                        " of " + std::to_string(expected_) +
                        " promised events";
            if (!resync_)
                throw StreamCorruption(std::move(e));
            ++errors_total_;
            if (errors_.size() < kMaxRecordedErrors)
                errors_.push_back(std::move(e));
            done_ = true;
            break;
        }

        // Fast path: whole records with no error machinery, while a
        // max-size record fits in the window. All state lives in locals:
        // the Event writes may alias *this under strict aliasing, and
        // member reloads per record would halve throughput. Position
        // commits only on success, so any bail leaves decode_one an
        // untouched record to re-judge.
        const size_t before = k;
        uint32_t lim[kNumOps];
        bool has_tgt[kNumOps];
        for (uint32_t o = 0; o < kNumOps; ++o) {
            lim[o] = limit_by_op_[o];
            has_tgt[o] = has_target_[o];
        }
        const uint8_t* const d = data_;
        const size_t wend = avail_;
        const uint32_t nthreads = num_threads_;
        const uint64_t expect = expected_;
        size_t pos = pos_;
        uint64_t prod = produced_;
        // Bounded LEB128: advances q on every byte read, false on
        // overlong/oversized — the caller then bails to decode_one, which
        // re-derives the structured error from the same position.
        auto fast_varint = [d](size_t& q, uint64_t& v) {
            v = 0;
            for (int i = 0; i < 5; ++i) {
                const uint8_t c = d[q];
                ++q;
                v |= static_cast<uint64_t>(c & 0x7f) << (7 * i);
                if (!(c & 0x80))
                    return v <= UINT32_MAX;
            }
            return false;
        };
        while (k < n && prod < expect && pos + kMaxRecordBytes <= wend) {
            const uint8_t opb = d[pos];
            if (opb >= kNumOps)
                break;
            size_t q = pos + 1;
            uint64_t tid = 0;
            if (!fast_varint(q, tid) || tid >= nthreads)
                break;
            uint32_t tgt = 0;
            if (has_tgt[opb]) {
                uint64_t t = 0;
                if (!fast_varint(q, t) || t >= lim[opb])
                    break;
                tgt = static_cast<uint32_t>(t);
            }
            out[k] = Event{static_cast<ThreadId>(tid), tgt,
                           static_cast<Op>(opb)};
            pos = q;
            ++k;
            ++prod;
        }
        pos_ = pos;
        produced_ = prod;
        if (k != before) {
            gap_open_ = false;
            continue; // loop top re-checks window and block bounds
        }

        // Slow path: the window tail (fewer than kMaxRecordBytes left) or
        // a record the fast path rejected, which needs the structured
        // error.
        StreamError err;
        size_t len = 0;
        Event ev;
        switch (decode_one(ev, len, err)) {
          case Rec::kOk:
            pos_ += len;
            out[k++] = ev;
            ++produced_;
            gap_open_ = false;
            break;
          case Rec::kShort:
          case Rec::kBad:
            if (!resync_) {
                if (k > 0)
                    return k; // error re-derived by the next call
                throw StreamCorruption(std::move(err));
            }
            record_gap(std::move(err));
            ++pos_; // slide one byte and re-attempt (resync mode)
            break;
        }
    }
    return k;
}

bool
MappedBinaryEventSource::next(Event& out)
{
    return next_n(&out, 1) == 1;
}

size_t
MappedBinaryEventSource::next_n(Event* out, size_t n)
{
    if (n == 0)
        return 0;
    const size_t got = decode_block(out, n);
    release_consumed();
    return got;
}

const char*
MappedBinaryEventSource::source_kind() const
{
    return mapped_ ? "binary-mmap" : "binary-buffered";
}

bool
MappedBinaryEventSource::dimensions(uint32_t& threads, uint32_t& vars,
                                    uint32_t& locks) const
{
    threads = num_threads_;
    vars = num_vars_;
    locks = num_locks_;
    return true;
}

} // namespace aero
