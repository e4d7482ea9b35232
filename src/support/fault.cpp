#include "support/fault.hpp"

#include <algorithm>
#include <cstdlib>

namespace aero {

namespace {

/** splitmix64: cheap, well-mixed; good enough to pick bits and bytes. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

bool
parse_u64(const std::string& tok, uint64_t& out)
{
    if (tok.empty())
        return false;
    char* end = nullptr;
    unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (tok[0] == '-' || !end || *end != '\0')
        return false;
    out = v;
    return true;
}

} // namespace

std::optional<FaultPlan>
parse_fault_plan(const std::string& spec)
{
    const size_t a = spec.find(':');
    const size_t b = a == std::string::npos ? a : spec.find(':', a + 1);
    if (b == std::string::npos || spec.compare(0, a, "alloc") != 0 ||
        spec.compare(a + 1, b - a - 1, "alloc-cap") != 0)
        return std::nullopt;
    FaultPlan plan;
    plan.site = FaultSite::kAlloc;
    plan.kind = FaultKind::kAllocCap;
    if (!parse_u64(spec.substr(b + 1), plan.trigger))
        return std::nullopt;
    return plan;
}

FaultInjector&
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::arm(const FaultPlan& plan)
{
    std::lock_guard<std::mutex> lk(mu_);
    armed_site_.store(kNoSite, std::memory_order_release);
    plan_ = plan;
    hits_.store(0, std::memory_order_relaxed);
    fires_.store(0, std::memory_order_relaxed);
    if (plan.kind != FaultKind::kNone)
        armed_site_.store(static_cast<uint8_t>(plan.site),
                          std::memory_order_release);
}

void
FaultInjector::disarm()
{
    std::lock_guard<std::mutex> lk(mu_);
    armed_site_.store(kNoSite, std::memory_order_release);
}

bool
FaultInjector::armed() const
{
    return armed_site_.load(std::memory_order_relaxed) != kNoSite;
}

bool
FaultInjector::arm_from_env()
{
    const char* spec = std::getenv("AERO_FAULT_PLAN");
    if (!spec)
        return false;
    auto plan = parse_fault_plan(spec);
    if (!plan)
        return false;
    arm(*plan);
    return true;
}

bool
FaultInjector::alloc_breach(uint64_t bytes)
{
    (void)bytes;
    if (!armed_for(FaultSite::kAlloc))
        return false;
    const uint64_t h = hits_.fetch_add(1, std::memory_order_relaxed);
    if (h < plan_.trigger)
        return false;
    if (h == plan_.trigger)
        fires_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

uint64_t
corrupt_bytes(std::string& bytes, FaultKind kind, uint64_t seed,
              uint64_t min_offset)
{
    if (bytes.size() <= min_offset)
        return bytes.size();
    const uint64_t offset =
        min_offset + mix64(seed) % (bytes.size() - min_offset);
    corrupt_bytes_at(bytes, kind, offset, seed);
    return offset;
}

void
corrupt_bytes_at(std::string& bytes, FaultKind kind, uint64_t offset,
                 uint64_t seed)
{
    switch (kind) {
      case FaultKind::kBitFlip:
        bytes[offset] ^= static_cast<char>(1 << (mix64(seed + 1) % 8));
        break;
      case FaultKind::kTruncate:
        bytes.resize(offset);
        break;
      case FaultKind::kGarbage: {
        uint64_t r = mix64(seed + 2);
        const uint64_t n = std::min<uint64_t>(16, bytes.size() - offset);
        for (uint64_t i = 0; i < n; ++i) {
            r = mix64(r);
            bytes[offset + i] = static_cast<char>(r & 0xff);
        }
        break;
      }
      default:
        break;
    }
}

} // namespace aero
