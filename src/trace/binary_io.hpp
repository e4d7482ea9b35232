#pragma once

/**
 * @file
 * Compact binary trace format for large logged executions.
 *
 * Layout (little-endian):
 *   magic   "AEROTRC1"            (8 bytes)
 *   u64     event count
 *   u32     thread count, var count, lock count
 *   events: per event, one opcode byte followed by LEB128 varints for the
 *           thread id and (when the op has one) the target id.
 *
 * Names are not stored; ids round-trip exactly and names regenerate as
 * t<i>/x<i>/l<i> on load. A 10M-event trace is typically ~3 bytes/event.
 */

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace aero {

/** Serialize `trace` to the binary format. */
void write_binary(std::ostream& os, const Trace& trace);

/** Serialize to a file; throws FatalError on I/O failure. */
void write_binary_file(const std::string& path, const Trace& trace);

/** Deserialize a trace through the block reader
 *  (MappedBinaryEventSource's buffered window); throws FatalError on
 *  corrupt input. */
Trace read_binary(std::istream& is);

/** Deserialize from a file, mmap'd when it is a regular file; throws
 *  FatalError on I/O or format errors. */
Trace read_binary_file(const std::string& path);

} // namespace aero
