#include "aerodrome/aerodrome_basic.hpp"

namespace aero {

void
AeroDromeBasic::ensure_thread(ThreadId t)
{
    if (t >= c_.size()) {
        const size_t n = size_t{t} + 1;
        c_.resize(n);
        cb_.resize(n);
        parent_thread_.resize(n, kNoThread);
        parent_txn_seq_.resize(n, 0);
        acted_.resize(n, 0);
    }
    if (c_[t].get(t) == 0)
        c_[t].set(t, 1); // C_t := bot[1/t]
}

void
AeroDromeBasic::ensure_var(VarId x)
{
    if (x >= w_.size()) {
        w_.resize(size_t{x} + 1);
        r_.resize(size_t{x} + 1);
        last_w_thr_.resize(size_t{x} + 1, kNoThread);
    }
}

void
AeroDromeBasic::ensure_lock(LockId l)
{
    if (l >= l_.size()) {
        l_.resize(size_t{l} + 1);
        last_rel_thr_.resize(size_t{l} + 1, kNoThread);
    }
}

bool
AeroDromeBasic::check_and_get(const VectorClock& clk, ThreadId t,
                              size_t index, const char* reason)
{
    ++stats_.comparisons;
    if (txns_.active(t) && cb_[t].leq(clk))
        return report(index, t, reason);
    ++stats_.joins;
    c_[t].join(clk);
    return false;
}

bool
AeroDromeBasic::eventless_child(ThreadId u, ThreadId t) const
{
    return !acted_[u] && parent_thread_[u] == t && parent_txn_seq_[u] != 0 &&
           txns_.active(t) && txns_.seq(t) == parent_txn_seq_[u];
}

bool
AeroDromeBasic::handle_end(ThreadId t, size_t index)
{
    // Propagate the completed transaction's final timestamp C_t into every
    // clock that is ordered after its begin event (Algorithm 1, lines
    // 38-46): this is what makes the timestamps prefix-relative and lets
    // later events observe paths through this (now completed) transaction.
    const VectorClock& ct = c_[t];
    const VectorClock& cbt = cb_[t];
    for (ThreadId u = 0; u < c_.size(); ++u) {
        if (u == t)
            continue;
        ++stats_.comparisons;
        if (cbt.leq(c_[u]) &&
            check_and_get(ct, u, index,
                          "active peer ordered into completed transaction"))
            return true;
    }
    auto propagate = [&](VectorClock& clk) {
        ++stats_.comparisons;
        if (cbt.leq(clk)) {
            ++stats_.joins;
            clk.join(ct);
        }
    };
    for (VectorClock& l : l_)
        propagate(l);
    for (VarId x = 0; x < w_.size(); ++x) {
        propagate(w_[x]);
        for (VectorClock& r : r_[x])
            propagate(r);
    }
    return false;
}

bool
AeroDromeBasic::process(const Event& e, size_t index)
{
    const ThreadId t = e.tid;
    const ThreadId target = e.target;
    ensure_thread(t);
    acted_[t] = 1;

    switch (e.op) {
      case Op::kBegin:
        if (txns_.on_begin(t)) {
            c_[t].tick(t);
            cb_[t] = c_[t];
        }
        return false;

      case Op::kEnd:
        return txns_.on_end(t) && handle_end(t, index);

      case Op::kAcquire:
        ensure_lock(target);
        return last_rel_thr_[target] != t &&
               check_and_get(l_[target], t, index,
                             "acquire saw conflicting release");

      case Op::kRelease:
        ensure_lock(target);
        l_[target] = c_[t];
        last_rel_thr_[target] = t;
        return false;

      case Op::kFork:
        ensure_thread(target);
        ++stats_.joins;
        c_[target].join(c_[t]);
        parent_thread_[target] = t;
        parent_txn_seq_[target] = txns_.active(t) ? txns_.seq(t) : 0;
        return false;

      case Op::kJoin:
        ensure_thread(target);
        if (eventless_child(target, t)) {
            ++stats_.joins;
            c_[t].join(c_[target]);
            return false;
        }
        return check_and_get(c_[target], t, index,
                             "join saw child's events");

      case Op::kRead:
        ensure_var(target);
        if (last_w_thr_[target] != t &&
            check_and_get(w_[target], t, index, "read saw conflicting write"))
            return true;
        if (t >= r_[target].size())
            r_[target].resize(size_t{t} + 1);
        r_[target][t] = c_[t];
        return false;

      case Op::kWrite: {
        ensure_var(target);
        if (last_w_thr_[target] != t &&
            check_and_get(w_[target], t, index,
                          "write saw conflicting write"))
            return true;
        const std::vector<VectorClock>& readers = r_[target];
        for (ThreadId u = 0; u < readers.size(); ++u) {
            if (u != t && check_and_get(readers[u], t, index,
                                        "write saw conflicting read"))
                return true;
        }
        w_[target] = c_[t];
        last_w_thr_[target] = t;
        return false;
      }
    }
    return false;
}

StatList
AeroDromeBasic::counters() const
{
    return {{"joins", stats_.joins}, {"comparisons", stats_.comparisons}};
}

size_t
AeroDromeBasic::memory_bytes() const
{
    auto clocks = [](const std::vector<VectorClock>& v) {
        size_t n = v.capacity() * sizeof(VectorClock);
        for (const VectorClock& c : v)
            n += c.dim() * sizeof(ClockValue);
        return n;
    };
    size_t n = clocks(c_) + clocks(cb_) + clocks(l_) + clocks(w_);
    n += r_.capacity() * sizeof(r_[0]);
    for (const auto& rx : r_)
        n += clocks(rx);
    n += (last_rel_thr_.capacity() + last_w_thr_.capacity() +
          parent_thread_.capacity()) *
         sizeof(ThreadId);
    n += parent_txn_seq_.capacity() * sizeof(uint64_t) + acted_.capacity();
    return n + txns_.memory_bytes();
}

} // namespace aero
