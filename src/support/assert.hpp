#pragma once

/**
 * @file
 * Failure handling in the spirit of gem5's panic()/fatal() split.
 *
 * - AERO_ASSERT / aero::panic: internal invariant broken (a bug in this
 *   library). Routed through a pluggable PanicHandler; the default
 *   handler prints and aborts, and a host service that must survive a
 *   sick component installs throwing_panic_handler to turn panics into
 *   catchable InternalError exceptions instead.
 * - aero::fatal: the caller/user supplied an impossible input (malformed
 *   trace, bad configuration). Throws aero::FatalError so library users
 *   and tests can recover.
 *
 * Panic messages carry the current event index when the runner has
 * registered a PanicContextScope on the panicking thread, so field crash
 * reports name the trace position, not just the source line.
 */

#include <cstdint>
#include <stdexcept>
#include <string>

namespace aero {

/** Error thrown when user-supplied input (trace, config) is invalid. */
class FatalError : public std::runtime_error {
public:
    explicit FatalError(const std::string& msg) : std::runtime_error(msg) {}
};

/** Error thrown *instead of aborting* when throwing_panic_handler is
 *  installed: an internal invariant broke, the library state that hit it
 *  is unusable, but the process can contain the blast radius. */
class InternalError : public std::runtime_error {
public:
    explicit InternalError(const std::string& msg)
        : std::runtime_error(msg)
    {}
};

/** Receives the fully composed panic message (location + context). Must
 *  not return; if it does, the process aborts anyway. */
using PanicHandler = void (*)(const std::string& msg);

/** Install `handler` (nullptr restores the print-and-abort default).
 *  @return the previously installed handler (nullptr = default). */
PanicHandler set_panic_handler(PanicHandler handler);

/** Ready-made handler that throws InternalError. */
[[noreturn]] void throwing_panic_handler(const std::string& msg);

/**
 * Thread-local analysis position, appended to panic messages: "while
 * processing event 1234". Runners keep one scope per checking thread
 * and bump event_index as they go (a plain store — the hot loop pays one
 * word write per event).
 */
struct PanicContext {
    static constexpr uint64_t kNoIndex = UINT64_MAX;

    uint64_t event_index = kNoIndex;
};

/** RAII registration of a PanicContext on the current thread. Scopes
 *  nest; the innermost one wins. */
class PanicContextScope {
public:
    PanicContextScope();
    ~PanicContextScope();

    PanicContextScope(const PanicContextScope&) = delete;
    PanicContextScope& operator=(const PanicContextScope&) = delete;

    void set_index(uint64_t index) { ctx_.event_index = index; }

private:
    PanicContext ctx_;
    PanicContext* prev_;
};

/** Report an internal invariant violation; routed through the installed
 *  PanicHandler (default: print and abort). */
[[noreturn]] void panic(const char* file, int line, const std::string& msg);

/** Throw FatalError; used for invalid user input. */
[[noreturn]] void fatal(const std::string& msg);

} // namespace aero

#define AERO_ASSERT(cond, msg)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::aero::panic(__FILE__, __LINE__,                                \
                          std::string("assertion failed: ") + #cond +       \
                              " -- " + (msg));                               \
        }                                                                    \
    } while (0)
