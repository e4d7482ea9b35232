#pragma once

/**
 * @file
 * Deterministic fault injection for robustness testing.
 *
 * A FaultPlan names one fault: a *site* (where the fault class lives), a
 * *kind* (what goes wrong), a *trigger* (fire on the trigger-th hit of
 * that site, 0-based), and a seed that derandomizes the payload (which
 * bit flips, which garbage byte). The singleton FaultInjector is armed
 * with one plan — via the API or the AERO_FAULT_PLAN environment
 * variable — and the instrumented code paths consult it through cheap
 * site hooks (one relaxed atomic load when disarmed).
 *
 * Two gating tiers keep the disarmed cost honest:
 *  - the per-byte trace-reader hooks (FaultSite::kTraceByte) are hot and
 *    only compiled under -DAERO_FAULTS=ON (fault_points_compiled());
 *    without it they expand to nothing and provably cost zero;
 *  - the alloc hook sits on the runner's cold budget-poll path and is
 *    always compiled, so its suites run in every build.
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
    kTraceByte = 0, ///< byte-level corruption inside a trace reader
    kAlloc = 1,     ///< allocation-cap breach at the runner's poll point
};

/** What goes wrong at the site. */
enum class FaultKind : uint8_t {
    kNone = 0,
    // kTraceByte kinds
    kBitFlip,  ///< flip one bit of one byte
    kTruncate, ///< end the stream at the trigger byte
    kGarbage,  ///< replace bytes with seeded garbage
    // kAlloc kind
    kAllocCap, ///< report the allocation cap breached from trigger on
};

const char* fault_site_name(FaultSite site);
const char* fault_kind_name(FaultKind kind);

/** One seeded fault: site x kind x trigger count (+ payload seed). */
struct FaultPlan {
    FaultSite site = FaultSite::kTraceByte;
    FaultKind kind = FaultKind::kNone;
    /** Fire on the trigger-th hit of the site (0-based). Binary trace
     *  hooks count post-header bytes; text hooks count lines; alloc
     *  hooks count budget polls. */
    uint64_t trigger = 0;
    /** Derandomizes the payload (bit index, garbage bytes). */
    uint64_t seed = 1;
};

/**
 * Parse "site:kind:trigger[:seed]" — the AERO_FAULT_PLAN syntax. Sites:
 * trace-byte, alloc. Kinds: bit-flip, truncate, garbage, alloc-cap. The
 * kind must belong to the site.
 * @return nullopt on malformed or mismatched specs.
 */
std::optional<FaultPlan> parse_fault_plan(const std::string& spec);

/** True when the hot per-byte trace-reader injection points were
 *  compiled in (cmake -DAERO_FAULTS=ON). Gated tests skip when false. */
bool fault_points_compiled();

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
    const FaultPlan& plan() const { return plan_; }

    // --- site hooks -------------------------------------------------------

    /** kTraceByte (binary): filter one post-header byte as a reader
     *  reads it, once per byte in stream order at its absolute `offset`
     *  (MappedBinaryEventSource::refill over each new buffered window;
     *  the reference BinaryEventSource per lookahead byte). May
     *  flip/garble `byte`; @return false to truncate the stream here
     *  (sticky). */
    bool filter_byte(uint64_t offset, int& byte);

    /** kTraceByte (text): filter one input line. May corrupt `line` in
     *  place; @return false to truncate the stream here (sticky). */
    bool filter_text_line(uint64_t line_no, std::string& line);

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
    std::atomic<bool> truncated_{false};  // sticky injected EOF
};

/**
 * Deterministically corrupt a serialized trace image in place — the
 * byte-level FaultPlan kinds as a pure helper, available in every build
 * (the corruption fuzzer uses it; no AERO_FAULTS needed). The offset is
 * derived from `seed` within [min_offset, bytes.size()).
 * @return the chosen offset (bytes.size() when the image is too small).
 */
uint64_t corrupt_bytes(std::string& bytes, FaultKind kind, uint64_t seed,
                       uint64_t min_offset = 0);

} // namespace aero
