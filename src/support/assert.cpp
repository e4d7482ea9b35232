#include "support/assert.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace aero {

namespace {

std::atomic<PanicHandler> g_panic_handler{nullptr};

/** Innermost registered context of the current thread, or null. */
thread_local PanicContext* tls_panic_ctx = nullptr;

} // namespace

PanicHandler
set_panic_handler(PanicHandler handler)
{
    return g_panic_handler.exchange(handler, std::memory_order_acq_rel);
}

void
throwing_panic_handler(const std::string& msg)
{
    throw InternalError(msg);
}

PanicContextScope::PanicContextScope()
{
    prev_ = tls_panic_ctx;
    tls_panic_ctx = &ctx_;
}

PanicContextScope::~PanicContextScope()
{
    tls_panic_ctx = prev_;
}

void
panic(const char* file, int line, const std::string& msg)
{
    std::string full = std::string(file) + ":" + std::to_string(line) +
                       ": " + msg;
    const PanicContext* ctx = tls_panic_ctx;
    if (ctx && ctx->event_index != PanicContext::kNoIndex)
        full += " while processing event " + std::to_string(ctx->event_index);
    if (PanicHandler handler =
            g_panic_handler.load(std::memory_order_acquire)) {
        handler(full); // expected not to return (e.g. throws)
    }
    std::fprintf(stderr, "panic: %s\n", full.c_str());
    std::abort();
}

void
fatal(const std::string& msg)
{
    throw FatalError(msg);
}

} // namespace aero
