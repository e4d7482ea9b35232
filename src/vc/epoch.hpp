#pragma once

/**
 * @file
 * Epoch — a vector time of the form bot[v/t], packed into one word.
 *
 * FastTrack's observation (the source paper's Section 7 future work)
 * carries over to conflict serializability: the timestamp a checker
 * stores for "last write of x" or "last read of x by t" is, in the
 * uncontended common case, the clock of a thread that has never received
 * an ordering from anyone else — a vector that is zero everywhere except
 * the owner's component. Such a clock is exactly (value, thread), a
 * 64-bit *epoch*, written v@t in the FastTrack literature.
 *
 * Unlike FastTrack's epochs, the ones in this repository are not an
 * approximation: an Epoch *is* the vector bot[v/t], and every adaptive
 * operation (vc/adaptive_clock.hpp) computes exactly the value the
 * full-vector representation would. When an operation's result stops
 * being epoch-shaped the entry inflates into a ClockBank row and stays
 * there ("promote on first contention, never demote").
 *
 * Encoding: value in bits 0..31, thread in bits 32..62, bit 63 reserved
 * as the inflation tag by AdaptiveClockTable (an Epoch itself always has
 * it clear). The bottom vector time is value 0 (thread ignored), so a
 * zero word is bottom — fresh entries need no initialisation.
 *
 * In the shipped engine (src/vc/README.md, "Reclamation") the thread
 * field names a *slot* of the engine's ThreadSlotMap, not an external
 * thread id: slots of joined threads are reissued, and the retiring
 * engine continues each slot's clock one past every value the dead
 * thread minted, so a stale v@s can never alias a reissued slot's fresh
 * epochs.
 */

#include <cassert>
#include <cstdint>
#include <string>

#include "trace/event.hpp"
#include "vc/vector_clock.hpp"

namespace aero {

/** The vector time bot[v/t] in one word. */
class Epoch {
public:
    /** Bottom (all-zero) vector time. */
    constexpr Epoch() : bits_(0) {}

    constexpr Epoch(ClockValue value, ThreadId thread)
        : bits_((static_cast<uint64_t>(thread) << 32) | value)
    {}

    /** Reconstruct from a raw word previously obtained via bits(). */
    static constexpr Epoch
    from_bits(uint64_t bits)
    {
        Epoch e;
        e.bits_ = bits;
        return e;
    }

    ClockValue value() const { return static_cast<ClockValue>(bits_); }
    ThreadId thread() const { return static_cast<ThreadId>(bits_ >> 32); }
    uint64_t bits() const { return bits_; }

    /** True iff this is the bottom vector time. */
    bool is_bottom() const { return value() == 0; }

    /** Component t of bot[v/thread]: v at the owner, 0 elsewhere. */
    ClockValue
    get(size_t t) const
    {
        return t == thread() ? value() : 0;
    }

    /** this sqsubseteq clk for a full vector clk: one component test. */
    template <typename Clk>
    bool
    leq(const Clk& clk) const
    {
        return value() <= clk.get(thread());
    }

    /** Materialise as a scalar VectorClock (tests, reports). */
    VectorClock
    to_vector_clock() const
    {
        VectorClock out;
        if (!is_bottom())
            out.set(thread(), value());
        return out;
    }

    std::string
    to_string() const
    {
        return std::to_string(value()) + "@" + std::to_string(thread());
    }

    bool operator==(const Epoch& o) const { return bits_ == o.bits_; }
    bool operator!=(const Epoch& o) const { return bits_ != o.bits_; }

private:
    uint64_t bits_;
};

} // namespace aero
