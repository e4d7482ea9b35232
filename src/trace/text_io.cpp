#include "trace/text_io.hpp"

#include <fstream>
#include <ostream>

#include "support/assert.hpp"
#include "trace/stream.hpp"

namespace aero {

void
write_text(std::ostream& os, const Trace& trace)
{
    os << "# aerodrome text trace: " << trace.size() << " events, "
       << trace.num_threads() << " threads, " << trace.num_vars()
       << " vars, " << trace.num_locks() << " locks\n";
    for (const Event& e : trace.events())
        os << trace.format_event(e) << "\n";
}

void
write_text_file(const std::string& path, const Trace& trace)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open file for writing: " + path);
    write_text(os, trace);
    if (!os)
        fatal("error while writing: " + path);
}

Trace
read_text(std::istream& is)
{
    TextEventSource source(is);
    return drain_trace(source);
}

Trace
read_text_file(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open file for reading: " + path);
    return read_text(is);
}

} // namespace aero
