#pragma once

/**
 * @file
 * Text trace format, one event per line (RAPID ".std"-style):
 *
 *   # comment / blank lines ignored
 *   t0 fork t1
 *   t1 begin
 *   t1 acq l0
 *   t1 w x3
 *   t1 rel l0
 *   t1 end
 *   t0 join t1
 *
 * Tokens are whitespace-separated; thread/var/lock names are arbitrary
 * non-whitespace tokens, interned in order of first appearance.
 */

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace aero {

/** Write `trace` in the text format. */
void write_text(std::ostream& os, const Trace& trace);

/** Write `trace` to a file; throws FatalError on I/O failure. */
void write_text_file(const std::string& path, const Trace& trace);

/** Parse a trace from the text format by draining a TextEventSource
 *  (stream.hpp, the one text parser); a malformed line throws
 *  StreamCorruption (an aero::FatalError; cause kParse, message
 *  "line N: ..."). */
Trace read_text(std::istream& is);

/** Read a trace from a file; FatalError when it cannot be opened,
 *  StreamCorruption on a malformed line. */
Trace read_text_file(const std::string& path);

} // namespace aero
