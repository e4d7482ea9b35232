#pragma once

/**
 * @file
 * Open-transaction carrier chains — directed violating (or, for controls,
 * serializable) traces whose conflict cycle closes through a chain of
 * intermediate transactions.
 *
 * A victim thread opens a transaction and writes v0. Carrier thread i
 * then reads v_{i-1} and writes v_i, so the ordering "victim before
 * carrier i" travels hop by hop down the chain. The victim closes the
 * cycle by accessing v_hops while its transaction is still open. When the
 * carriers also keep their transactions open across the chain, the
 * ordering exists only in the carriers' live clocks, never in a closed
 * transaction's published state. The golden corpus sweeps these
 * families for every engine.
 *
 * Shape knobs:
 *   - hop count: length of the carrier chain between the victim's write
 *     and the closing access;
 *   - offset: padding events on an idle thread shifting the chain's
 *     global indices;
 *   - open-transaction carriers: whether intermediaries hold their
 *     transactions open across the chain;
 *   - closing access kind, a lock-carried first hop, a late re-touch by
 *     the victim, and a serializable control.
 */

#include <cstdint>

#include "trace/trace.hpp"

namespace aero::gen {

/** Parameters of one carrier-chain trace. */
struct CarrierChainOptions {
    /** Carrier threads between the victim's write and the closing
     *  access; the chain uses hops + 1 variables v0..v_hops. */
    uint32_t hops = 2;
    /** Padding events (begin/end on an idle thread) inserted before the
     *  chain, shifting its global indices. */
    uint32_t offset = 0;
    /** Carriers keep their transactions open until after the closing
     *  access; otherwise each carrier ends immediately after its hop. */
    bool open_carriers = true;
    /** Close the cycle with a write (write-vs-read/write checks) instead
     *  of a read (read-vs-write check). */
    bool close_by_write = false;
    /** Carry the first hop through a lock handoff instead of v0. */
    bool lock_carrier = false;
    /** After the carriers close, the victim re-touches the closing
     *  variable while its transaction is still open: a second, later
     *  detection point. */
    bool retouch = false;
    /** Break the cycle (victim's transaction ends before the chain):
     *  control family, serializable. */
    bool serializable = false;
};

/**
 * Build the trace. Variables are interned in chain order (v0 first). The
 * padding thread touches no variables and holds no locks; it only shifts
 * global indices.
 */
Trace make_carrier_chain(const CarrierChainOptions& opts);

} // namespace aero::gen
