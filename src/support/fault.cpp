#include "support/fault.hpp"

#include <cstdlib>
#include <vector>

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
kind_matches_site(FaultSite site, FaultKind kind)
{
    switch (site) {
      case FaultSite::kTraceByte:
        return kind == FaultKind::kBitFlip || kind == FaultKind::kTruncate ||
               kind == FaultKind::kGarbage;
      case FaultSite::kAlloc:
        return kind == FaultKind::kAllocCap;
    }
    return false;
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

const char*
fault_site_name(FaultSite site)
{
    switch (site) {
      case FaultSite::kTraceByte:
        return "trace-byte";
      case FaultSite::kAlloc:
        return "alloc";
    }
    return "?";
}

const char*
fault_kind_name(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kNone:
        return "none";
      case FaultKind::kBitFlip:
        return "bit-flip";
      case FaultKind::kTruncate:
        return "truncate";
      case FaultKind::kGarbage:
        return "garbage";
      case FaultKind::kAllocCap:
        return "alloc-cap";
    }
    return "?";
}

std::optional<FaultPlan>
parse_fault_plan(const std::string& spec)
{
    std::vector<std::string> toks;
    size_t start = 0;
    for (;;) {
        size_t colon = spec.find(':', start);
        toks.push_back(spec.substr(start, colon == std::string::npos
                                              ? std::string::npos
                                              : colon - start));
        if (colon == std::string::npos)
            break;
        start = colon + 1;
    }
    if (toks.size() < 3 || toks.size() > 4)
        return std::nullopt;

    FaultPlan plan;
    if (toks[0] == "trace-byte")
        plan.site = FaultSite::kTraceByte;
    else if (toks[0] == "alloc")
        plan.site = FaultSite::kAlloc;
    else
        return std::nullopt;

    static constexpr std::pair<const char*, FaultKind> kKinds[] = {
        {"bit-flip", FaultKind::kBitFlip},
        {"truncate", FaultKind::kTruncate},
        {"garbage", FaultKind::kGarbage},
        {"alloc-cap", FaultKind::kAllocCap},
    };
    plan.kind = FaultKind::kNone;
    for (const auto& [name, kind] : kKinds) {
        if (toks[1] == name) {
            plan.kind = kind;
            break;
        }
    }
    if (plan.kind == FaultKind::kNone ||
        !kind_matches_site(plan.site, plan.kind))
        return std::nullopt;

    if (!parse_u64(toks[2], plan.trigger))
        return std::nullopt;
    if (toks.size() > 3 && !parse_u64(toks[3], plan.seed))
        return std::nullopt;
    return plan;
}

bool
fault_points_compiled()
{
#if defined(AERO_FAULTS)
    return true;
#else
    return false;
#endif
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
    truncated_.store(false, std::memory_order_relaxed);
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
FaultInjector::filter_byte(uint64_t offset, int& byte)
{
    (void)offset;
    if (!armed_for(FaultSite::kTraceByte))
        return true;
    if (truncated_.load(std::memory_order_relaxed))
        return false;
    if (byte < 0)
        return true; // real EOF passes through
    const uint64_t h = hits_.fetch_add(1, std::memory_order_relaxed);
    if (h != plan_.trigger)
        return true;
    fires_.fetch_add(1, std::memory_order_relaxed);
    switch (plan_.kind) {
      case FaultKind::kBitFlip:
        byte ^= 1 << (mix64(plan_.seed) % 8);
        return true;
      case FaultKind::kGarbage:
        byte = static_cast<int>(mix64(plan_.seed ^ offset) & 0xff);
        return true;
      case FaultKind::kTruncate:
        truncated_.store(true, std::memory_order_relaxed);
        return false;
      default:
        return true;
    }
}

bool
FaultInjector::filter_text_line(uint64_t line_no, std::string& line)
{
    (void)line_no;
    if (!armed_for(FaultSite::kTraceByte))
        return true;
    if (truncated_.load(std::memory_order_relaxed))
        return false;
    const uint64_t h = hits_.fetch_add(1, std::memory_order_relaxed);
    if (h != plan_.trigger)
        return true;
    fires_.fetch_add(1, std::memory_order_relaxed);
    switch (plan_.kind) {
      case FaultKind::kBitFlip:
        if (!line.empty()) {
            const uint64_t r = mix64(plan_.seed);
            line[r % line.size()] ^=
                static_cast<char>(1 << (mix64(r) % 8));
        }
        return true;
      case FaultKind::kGarbage:
        line = "\x01garbage\x02line\x03";
        return true;
      case FaultKind::kTruncate:
        truncated_.store(true, std::memory_order_relaxed);
        return false;
      default:
        return true;
    }
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
    const uint64_t span = bytes.size() - min_offset;
    const uint64_t offset = min_offset + mix64(seed) % span;
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
    return offset;
}

} // namespace aero
