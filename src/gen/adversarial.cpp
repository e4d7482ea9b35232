#include "gen/adversarial.hpp"

namespace aero::gen {

Trace
make_carrier_chain(const CarrierChainOptions& opts)
{
    const uint32_t hops = opts.hops ? opts.hops : 1;
    const ThreadId victim = 0;
    const ThreadId pad = hops + 1; // carriers are threads 1..hops
    const LockId l0 = 0;

    Trace t;
    // Pin the variable id space up front so the dimensions are
    // independent of which family variant touches which variable first.
    t.vars().ensure(hops + 1);

    // Padding: events shifting the chain's global indices. Alternating
    // begin/begin/... then end/end/... keeps the nesting well-formed at
    // any offset; the pad thread owns no variables or locks, so it adds
    // no orderings.
    uint32_t pad_depth = 0;
    for (uint32_t i = 0; i < opts.offset; ++i) {
        if (pad_depth == 0 || (i % 2) == 0) {
            t.begin(pad);
            ++pad_depth;
        } else {
            t.end(pad);
            --pad_depth;
        }
    }

    // Victim opens its transaction and publishes into v0 (or a lock).
    t.begin(victim);
    t.write(victim, 0);
    if (opts.lock_carrier) {
        // The first hop rides a lock handoff: the release publishes the
        // victim's in-transaction clock into the lock.
        t.acquire(victim, l0);
        t.release(victim, l0);
    }
    if (opts.serializable)
        t.end(victim); // control: the cycle never closes

    // Carrier chain: thread i picks the ordering up from v_{i-1} (or the
    // lock) and republishes it into v_i.
    for (uint32_t i = 1; i <= hops; ++i) {
        const ThreadId c = i;
        t.begin(c);
        if (opts.lock_carrier && i == 1)
            t.acquire(c, l0);
        else
            t.read(c, i - 1);
        t.write(c, i);
        if (!opts.open_carriers)
            t.end(c);
    }

    // The closing access: the engines fire here (victim's open
    // transaction is ordered before the last write it now observes).
    if (opts.serializable)
        t.begin(victim);
    if (opts.close_by_write)
        t.write(victim, hops);
    else
        t.read(victim, hops);

    // Unwind: carriers close, the victim optionally re-touches (a later
    // detection point), everyone ends.
    if (opts.open_carriers) {
        for (uint32_t i = 1; i <= hops; ++i)
            t.end(i);
    }
    if (opts.retouch && !opts.serializable)
        t.read(victim, hops);
    t.end(victim);
    while (pad_depth-- > 0)
        t.end(pad);
    return t;
}

} // namespace aero::gen
