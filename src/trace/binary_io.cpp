#include "trace/binary_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "support/assert.hpp"
#include "trace/mapped_reader.hpp"

namespace aero {

namespace {

constexpr char kMagic[8] = {'A', 'E', 'R', 'O', 'T', 'R', 'C', '1'};

void
put_varint(std::ostream& os, uint64_t v)
{
    while (v >= 0x80) {
        os.put(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    os.put(static_cast<char>(v));
}

template <typename T>
void
put_raw(std::ostream& os, T v)
{
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool
op_has_target(Op op)
{
    return !(op == Op::kBegin || op == Op::kEnd);
}

} // namespace

void
write_binary(std::ostream& os, const Trace& trace)
{
    os.write(kMagic, sizeof(kMagic));
    put_raw<uint64_t>(os, trace.size());
    put_raw<uint32_t>(os, trace.num_threads());
    put_raw<uint32_t>(os, trace.num_vars());
    put_raw<uint32_t>(os, trace.num_locks());
    for (const Event& e : trace.events()) {
        os.put(static_cast<char>(e.op));
        put_varint(os, e.tid);
        if (op_has_target(e.op))
            put_varint(os, e.target);
    }
}

void
write_binary_file(const std::string& path, const Trace& trace)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot open file for writing: " + path);
    write_binary(os, trace);
    if (!os)
        fatal("error while writing: " + path);
}

Trace
read_binary(std::istream& is)
{
    MappedBinaryEventSource source(is);
    return drain_trace(source);
}

Trace
read_binary_file(const std::string& path)
{
    MappedBinaryEventSource source(path);
    return drain_trace(source);
}

} // namespace aero
