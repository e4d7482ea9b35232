#pragma once

/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * Two tools, one per fault class:
 *  - a damaged trace is a damaged image: corrupt_bytes edits the bytes
 *    of a serialized trace, which the shipped readers then read as they
 *    read any input. The readers carry no fault code;
 *  - a resource fault has one site, the allocation cap at the runner's
 *    budget poll. A FaultPlan names it: a *site*, a *kind* and a
 *    *trigger* (fire on the trigger-th poll, 0-based, and stay breached).
 *    The singleton FaultInjector is armed with one plan, via the API or
 *    the AERO_FAULT_PLAN environment variable; the poll consults it with
 *    one relaxed atomic load when disarmed.
 *
 * Arm/disarm must not race an active run: tests arm before run_checker
 * and disarm after.
 */

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

namespace aero {

/** Where a fault is injected. */
enum class FaultSite : uint8_t {
    kAlloc, ///< allocation-cap breach at the runner's poll point
};

/** What goes wrong. */
enum class FaultKind : uint8_t {
    kNone = 0,
    // corrupt_bytes kinds
    kBitFlip,  ///< flip one bit of one byte
    kTruncate, ///< end the image at the chosen byte
    kGarbage,  ///< replace bytes with seeded garbage
    // kAlloc kind
    kAllocCap, ///< report the allocation cap breached from trigger on
};

/** One fault: site x kind x trigger count. */
struct FaultPlan {
    FaultSite site = FaultSite::kAlloc;
    FaultKind kind = FaultKind::kNone;
    /** Fire on the trigger-th hit of the site (0-based); alloc hooks
     *  count budget polls. */
    uint64_t trigger = 0;
};

/**
 * Parse "site:kind:trigger", the AERO_FAULT_PLAN syntax. The one site is
 * alloc, with the one kind alloc-cap: "alloc:alloc-cap:N".
 * @return nullopt on malformed or mismatched specs.
 */
std::optional<FaultPlan> parse_fault_plan(const std::string& spec);

/** Process-wide injector; disarmed by default. */
class FaultInjector {
public:
    static FaultInjector& instance();

    /** Arm `plan`; resets hit/fire counters. Not to race an active run. */
    void arm(const FaultPlan& plan);
    void disarm();
    bool armed() const;
    /** One relaxed load: armed and the plan targets `site`. */
    bool
    armed_for(FaultSite site) const
    {
        return armed_site_.load(std::memory_order_relaxed) ==
               static_cast<uint8_t>(site);
    }

    /** Arm from AERO_FAULT_PLAN; false when unset or unparseable. */
    bool arm_from_env();

    /** Times the armed fault actually fired (test assertions). */
    uint64_t fires() const { return fires_.load(std::memory_order_relaxed); }
    /** Hits counted at the armed site since arm() (test assertions). */
    uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

    /** kAlloc: true when the armed allocation cap counts as breached
     *  (sticky from the trigger-th poll on). `bytes` is informational. */
    bool alloc_breach(uint64_t bytes);

private:
    FaultInjector() = default;

    static constexpr uint8_t kNoSite = 0xff;

    std::mutex mu_; // serializes arm/disarm
    std::atomic<uint8_t> armed_site_{kNoSite};
    FaultPlan plan_{};
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> fires_{0};
};

/**
 * Deterministically corrupt a serialized trace image in place: flip a
 * bit, truncate, or overwrite up to 16 bytes with garbage. The offset is
 * derived from `seed` within [min_offset, bytes.size()).
 * @return the chosen offset (bytes.size() when the image is too small).
 */
uint64_t corrupt_bytes(std::string& bytes, FaultKind kind, uint64_t seed,
                       uint64_t min_offset = 0);

/** corrupt_bytes at a chosen `offset` < bytes.size(); `seed` picks the
 *  flipped bit and the garbage. */
void corrupt_bytes_at(std::string& bytes, FaultKind kind, uint64_t offset,
                      uint64_t seed);

} // namespace aero
