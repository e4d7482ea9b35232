#include "trace/stream.hpp"

#include <cctype>
#include <cstring>
#include <fstream>

#include "support/assert.hpp"
#include "support/fault.hpp"
#include "support/str.hpp"
#include "trace/mapped_reader.hpp"

namespace aero {

namespace {

bool
parse_op_token(std::string_view tok, Op& out)
{
    if (tok == "r")
        out = Op::kRead;
    else if (tok == "w")
        out = Op::kWrite;
    else if (tok == "acq")
        out = Op::kAcquire;
    else if (tok == "rel")
        out = Op::kRelease;
    else if (tok == "fork")
        out = Op::kFork;
    else if (tok == "join")
        out = Op::kJoin;
    else if (tok == "begin")
        out = Op::kBegin;
    else if (tok == "end")
        out = Op::kEnd;
    else
        return false;
    return true;
}

} // namespace

const char*
stream_error_cause_name(StreamError::Cause cause)
{
    switch (cause) {
      case StreamError::Cause::kBadHeader:
        return "bad-header";
      case StreamError::Cause::kTruncated:
        return "truncated";
      case StreamError::Cause::kBadOpcode:
        return "bad-opcode";
      case StreamError::Cause::kBadVarint:
        return "bad-varint";
      case StreamError::Cause::kIdOutOfRange:
        return "id-out-of-range";
      case StreamError::Cause::kParse:
        return "parse";
    }
    return "?";
}

size_t
resolve_ingest_block(size_t requested)
{
    return requested != 0 ? requested : kDefaultIngestBlock;
}

const std::vector<StreamError>&
EventSource::recovered_errors() const
{
    static const std::vector<StreamError> kEmpty;
    return kEmpty;
}

size_t
EventSource::next_n(Event* out, size_t n)
{
    // A stashed error means the previous batch ended early on a corrupt
    // record whose next() already consumed input (the text reader eats
    // the line before throwing): surface it now that the decoded prefix
    // has been delivered.
    if (pending_error_) {
        std::exception_ptr e = std::move(pending_error_);
        pending_error_ = nullptr;
        std::rethrow_exception(e);
    }
    if (exhausted_)
        return 0;
    size_t k = 0;
    try {
        while (k < n) {
            if (!next(out[k])) {
                exhausted_ = true;
                break;
            }
            ++k;
        }
    } catch (const StreamCorruption&) {
        if (k == 0)
            throw;
        pending_error_ = std::current_exception();
    }
    return k;
}

int
TextEventSource::parse_line(const std::string& line, Event& out,
                            std::string& err)
{
    std::string_view sv = trim(line);
    if (sv.empty() || sv[0] == '#')
        return 0;

    std::string_view toks[4];
    size_t ntoks = 0;
    size_t pos = 0;
    while (pos < sv.size() && ntoks < 4) {
        while (pos < sv.size() &&
               std::isspace(static_cast<unsigned char>(sv[pos])))
            ++pos;
        size_t start = pos;
        while (pos < sv.size() &&
               !std::isspace(static_cast<unsigned char>(sv[pos])))
            ++pos;
        if (pos > start)
            toks[ntoks++] = sv.substr(start, pos - start);
    }
    if (ntoks < 2) {
        err = "expected '<thread> <op> [target]'";
        return -1;
    }
    Op op;
    if (!parse_op_token(toks[1], op)) {
        err = "unknown operation '" + std::string(toks[1]) + "'";
        return -1;
    }
    bool needs_target = !(op == Op::kBegin || op == Op::kEnd);
    if (needs_target && ntoks < 3) {
        err = "operation requires a target";
        return -1;
    }
    if (!needs_target && ntoks > 2) {
        err = "begin/end take no target";
        return -1;
    }
    // Validated; only now touch the name tables, so a rejected (and in
    // resync mode, skipped) line interns nothing.
    ThreadId t = threads_.intern(toks[0]);
    uint32_t target = 0;
    if (needs_target) {
        if (op_targets_var(op))
            target = vars_.intern(toks[2]);
        else if (op_targets_lock(op))
            target = locks_.intern(toks[2]);
        else
            target = threads_.intern(toks[2]);
    }
    out = Event{t, target, op};
    return 1;
}

bool
TextEventSource::next(Event& out)
{
    std::string line;
    while (!truncated_ && std::getline(is_, line)) {
        ++line_no_;
#if defined(AERO_FAULTS)
        if (!FaultInjector::instance().filter_text_line(line_no_, line)) {
            truncated_ = true;
            break;
        }
#endif
        std::string msg;
        int r = parse_line(line, out, msg);
        if (r == 1) {
            ++produced_;
            return true;
        }
        if (r == 0)
            continue;
        StreamError e;
        e.cause = StreamError::Cause::kParse;
        e.event_index = produced_;
        e.byte_offset = line_no_; // 1-based line number for text input
        e.message = "line " + std::to_string(line_no_) + ": " + msg;
        if (!resync_)
            throw StreamCorruption(std::move(e));
        ++errors_total_;
        if (errors_.size() < kMaxRecordedErrors)
            errors_.push_back(std::move(e));
    }
    // getline stops on a read error just as it does at EOF; only badbit
    // tells them apart (a directory opens fine and fails its first read).
    if (is_.bad())
        fatal("cannot read trace input after line " +
              std::to_string(line_no_));
    return false;
}

BinaryEventSource::BinaryEventSource(std::istream& is) : is_(is)
{
    auto bad_header = [](uint64_t off, std::string msg) -> void {
        StreamError e;
        e.cause = StreamError::Cause::kBadHeader;
        e.event_index = 0;
        e.byte_offset = off;
        e.message = std::move(msg);
        throw StreamCorruption(std::move(e));
    };
    auto read_raw = [&](void* dst, size_t n) {
        is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
        return static_cast<bool>(is_);
    };

    char magic[8];
    static constexpr char kMagic[8] = {'A', 'E', 'R', 'O',
                                       'T', 'R', 'C', '1'};
    if (!read_raw(magic, sizeof(magic)) ||
        std::memcmp(magic, kMagic, sizeof(magic)) != 0)
        bad_header(0, "not an aerodrome binary trace (bad magic)");
    if (!read_raw(&expected_, sizeof(expected_)))
        bad_header(8, "binary trace truncated in header");
    if (!read_raw(&num_threads_, sizeof(num_threads_)) ||
        !read_raw(&num_vars_, sizeof(num_vars_)) ||
        !read_raw(&num_locks_, sizeof(num_locks_)))
        bad_header(16, "binary trace truncated in header");
    // A header-declared id space is a claim, not an allocation order: a
    // flipped high bit would otherwise turn into a multi-GB reserve.
    if (num_threads_ > kMaxHeaderIds || num_vars_ > kMaxHeaderIds ||
        num_locks_ > kMaxHeaderIds)
        bad_header(16, "implausible id space in header (" +
                           std::to_string(num_threads_) + " threads, " +
                           std::to_string(num_vars_) + " vars, " +
                           std::to_string(num_locks_) + " locks)");
    offset_ = 28; // sizeof header; corruption offsets are absolute
}

int
BinaryEventSource::peek_byte(size_t k)
{
    while (buf_.size() <= k) {
        if (truncated_)
            return -1;
        int c = is_.get();
#if defined(AERO_FAULTS)
        if (!FaultInjector::instance().filter_byte(offset_ + buf_.size(),
                                                   c)) {
            truncated_ = true; // injected stream cut
            return -1;
        }
#endif
        if (c == EOF) {
            truncated_ = true;
            return -1;
        }
        buf_.push_back(c);
    }
    return buf_[k];
}

void
BinaryEventSource::consume(size_t n)
{
    AERO_ASSERT(n <= buf_.size(), "consuming past the lookahead buffer");
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(n));
    offset_ += n;
}

BinaryEventSource::Decode
BinaryEventSource::try_decode(Event& out, size_t& len, StreamError& err)
{
    err.event_index = produced_;
    err.byte_offset = offset_;

    int opb = peek_byte(0);
    if (opb < 0)
        return Decode::kEof;
    if (opb >= static_cast<int>(kNumOps)) {
        err.cause = StreamError::Cause::kBadOpcode;
        err.message = "invalid opcode " + std::to_string(opb);
        return Decode::kBad;
    }
    Op op = static_cast<Op>(opb);

    size_t k = 1;
    // LEB128 varint bounded for u32 ids: at most 5 bytes, value must fit.
    auto read_id = [&](const char* what, uint64_t& v) {
        v = 0;
        for (int i = 0; i < 5; ++i) {
            int c = peek_byte(k);
            if (c < 0) {
                err.cause = StreamError::Cause::kTruncated;
                err.message = std::string("stream ends inside the ") +
                              what + " of a record";
                return false;
            }
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
        return Decode::kBad;
    if (tid >= num_threads_) {
        err.cause = StreamError::Cause::kIdOutOfRange;
        err.message = "thread id " + std::to_string(tid) +
                      " >= header-declared " +
                      std::to_string(num_threads_);
        return Decode::kBad;
    }

    uint64_t target = 0;
    if (!(op == Op::kBegin || op == Op::kEnd)) {
        if (!read_id("target id", target))
            return Decode::kBad;
        uint32_t limit;
        const char* space;
        if (op_targets_var(op)) {
            limit = num_vars_;
            space = "vars";
        } else if (op_targets_lock(op)) {
            limit = num_locks_;
            space = "locks";
        } else {
            limit = num_threads_;
            space = "threads";
        }
        if (target >= limit) {
            err.cause = StreamError::Cause::kIdOutOfRange;
            err.message = std::string(op_name(op)) + " target " +
                          std::to_string(target) +
                          " >= header-declared " + std::to_string(limit) +
                          " " + space;
            return Decode::kBad;
        }
    }

    out = Event{static_cast<ThreadId>(tid), static_cast<uint32_t>(target),
                op};
    len = k;
    return Decode::kOk;
}

void
BinaryEventSource::record_or_throw(StreamError err, bool& recorded_this_gap)
{
    if (!resync_)
        throw StreamCorruption(std::move(err));
    // One recorded error per contiguous corruption gap, however many
    // byte offsets the resync scan rejects while crossing it.
    if (recorded_this_gap)
        return;
    recorded_this_gap = true;
    ++errors_total_;
    if (errors_.size() < kMaxRecordedErrors)
        errors_.push_back(std::move(err));
}

bool
BinaryEventSource::next(Event& out)
{
    bool recorded_this_gap = false;
    for (;;) {
        if (produced_ >= expected_)
            return false;
        StreamError err;
        size_t len = 0;
        switch (try_decode(out, len, err)) {
          case Decode::kOk:
            consume(len);
            ++produced_;
            return true;
          case Decode::kEof: {
            StreamError e;
            e.cause = StreamError::Cause::kTruncated;
            e.event_index = produced_;
            e.byte_offset = offset_;
            e.message = "stream ended after " + std::to_string(produced_) +
                        " of " + std::to_string(expected_) +
                        " promised events";
            if (!resync_)
                throw StreamCorruption(std::move(e));
            ++errors_total_;
            if (errors_.size() < kMaxRecordedErrors)
                errors_.push_back(std::move(e));
            return false;
          }
          case Decode::kBad:
            record_or_throw(std::move(err), recorded_this_gap);
            consume(1); // slide one byte and re-attempt (resync mode)
            break;
        }
    }
}

bool
trace_is_binary(const std::string& path)
{
    const bool ext_bin = path.size() > 4 &&
                         path.compare(path.size() - 4, 4, ".bin") == 0;
    std::ifstream probe(path, std::ios::binary);
    if (!probe)
        fatal("cannot open file for reading: " + path);
    static constexpr char kMagic[8] = {'A', 'E', 'R', 'O',
                                       'T', 'R', 'C', '1'};
    char head[8];
    probe.read(head, sizeof(head));
    if (probe.gcount() < static_cast<std::streamsize>(sizeof(head)))
        return ext_bin; // too short to sniff: the extension decides
    if (std::memcmp(head, kMagic, sizeof(kMagic)) == 0)
        return true;
    if (ext_bin) {
        StreamError e;
        e.cause = StreamError::Cause::kBadHeader;
        e.event_index = 0;
        e.byte_offset = 0;
        e.message = "extension \".bin\" promises a binary trace but the "
                    "AEROTRC1 magic is missing: " +
                    path;
        throw StreamCorruption(std::move(e));
    }
    return false;
}

std::unique_ptr<EventSource>
open_event_source(const std::string& path,
                  std::unique_ptr<std::istream>& storage)
{
    if (trace_is_binary(path))
        // Owns its mapping (or fallback read buffer); no istream needed.
        return std::make_unique<MappedBinaryEventSource>(path);
    auto file = std::make_unique<std::ifstream>(path);
    if (!*file)
        fatal("cannot open file for reading: " + path);
    std::istream& ref = *file;
    storage = std::move(file);
    return std::make_unique<TextEventSource>(ref);
}

Trace
drain_trace(EventSource& src, uint64_t max_events)
{
    Trace trace;
    uint32_t threads = 0, vars = 0, locks = 0;
    if (src.dimensions(threads, vars, locks)) {
        trace.threads().ensure(threads);
        trace.vars().ensure(vars);
        trace.locks().ensure(locks);
    }
    std::vector<Event> block(kDefaultIngestBlock);
    while (trace.size() < max_events) {
        const size_t want = static_cast<size_t>(std::min<uint64_t>(
            block.size(), max_events - trace.size()));
        const size_t n = src.next_n(block.data(), want);
        if (n == 0)
            break;
        for (size_t i = 0; i < n; ++i)
            trace.push(block[i]);
    }
    if (const auto* text = dynamic_cast<const TextEventSource*>(&src)) {
        trace.threads() = text->threads();
        trace.vars() = text->vars();
        trace.locks() = text->locks();
    }
    return trace;
}

} // namespace aero
