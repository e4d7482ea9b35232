#include "velodrome/velodrome.hpp"

#include <algorithm>

namespace aero {

Velodrome::Velodrome(uint32_t num_threads, uint32_t num_vars,
                     uint32_t num_locks)
    : txns_(num_threads)
{
    cur_.assign(num_threads, kNone);
    last_.assign(num_threads, kNone);
    last_write_.assign(num_vars, kNone);
    last_rel_.assign(num_locks, kNone);
    last_read_.set_fill(kNone);
    last_read_.ensure_cols(num_threads);
    last_read_.ensure_rows(num_vars);
}

void
Velodrome::ensure_thread(ThreadId t)
{
    if (t >= cur_.size()) {
        cur_.resize(t + 1, kNone);
        last_.resize(t + 1, kNone);
        txns_.ensure(t + 1);
        last_read_.ensure_cols(cur_.size());
    }
}

void
Velodrome::ensure_var(VarId x)
{
    if (x >= last_write_.size()) {
        last_write_.resize(x + 1, kNone);
        last_read_.ensure_cols(cur_.size());
        last_read_.ensure_rows(x + 1);
    }
}

void
Velodrome::ensure_lock(LockId l)
{
    if (l >= last_rel_.size())
        last_rel_.resize(l + 1, kNone);
}

uint32_t
Velodrome::new_node(ThreadId t, bool completed)
{
    uint32_t n = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[n].completed = completed;
    ++stats_.total_nodes;
    ++stats_.live_nodes;
    stats_.max_live_nodes = std::max(stats_.max_live_nodes,
                                     stats_.live_nodes);
    // Program-order chaining: every prior event of this thread (and the
    // forking event, for the first node of a forked thread) conflicts with
    // this node's events.
    add_edge(last_[t], n);
    last_[t] = n;
    return n;
}

uint32_t
Velodrome::node_for_event(ThreadId t)
{
    uint32_t n = cur_[t];
    if (n == kNone)
        n = new_node(t, /*completed=*/true); // unary transaction
    return n;
}

bool
Velodrome::reachable(uint32_t from, uint32_t needle)
{
    ++dfs_stamp_;
    dfs_stack_.clear();
    dfs_stack_.push_back(from);
    nodes_[from].stamp = dfs_stamp_;
    while (!dfs_stack_.empty()) {
        uint32_t v = dfs_stack_.back();
        dfs_stack_.pop_back();
        ++stats_.dfs_visits;
        if (v == needle)
            return true;
        for (uint32_t w : nodes_[v].succ) {
            if (!nodes_[w].deleted && nodes_[w].stamp != dfs_stamp_) {
                nodes_[w].stamp = dfs_stamp_;
                dfs_stack_.push_back(w);
            }
        }
    }
    return false;
}

bool
Velodrome::add_edge(uint32_t a, uint32_t b)
{
    if (a == kNone || b == kNone || a == b)
        return false;
    if (nodes_[a].deleted) {
        // A deleted source has, and will never gain, incoming edges, so no
        // cycle can pass through this edge; skip it (GC optimization).
        return false;
    }
    uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
    if (!edge_set_.insert(key).second)
        return false; // duplicate: cycle check already done on first insert
    ++stats_.total_edges;
    nodes_[a].succ.push_back(b);
    ++nodes_[b].indegree;
    // The new edge a->b closes a cycle iff a was already reachable from b.
    return reachable(b, a);
}

void
Velodrome::maybe_collect(uint32_t n)
{
    // Iteratively delete completed, incoming-edge-free nodes.
    std::vector<uint32_t> work{n};
    while (!work.empty()) {
        uint32_t v = work.back();
        work.pop_back();
        if (nodes_[v].deleted || !nodes_[v].completed ||
            nodes_[v].indegree != 0) {
            continue;
        }
        nodes_[v].deleted = true;
        ++stats_.gc_deleted;
        --stats_.live_nodes;
        for (uint32_t w : nodes_[v].succ) {
            if (nodes_[w].deleted)
                continue;
            uint64_t key = (static_cast<uint64_t>(v) << 32) | w;
            edge_set_.erase(key);
            if (--nodes_[w].indegree == 0 && nodes_[w].completed)
                work.push_back(w);
        }
        nodes_[v].succ.clear();
        nodes_[v].succ.shrink_to_fit();
    }
}

void
Velodrome::on_complete(uint32_t n)
{
    nodes_[n].completed = true;
    maybe_collect(n);
}

bool
Velodrome::process(const Event& e, size_t index)
{
    const ThreadId t = e.tid;
    ensure_thread(t);

    switch (e.op) {
      case Op::kBegin:
        if (txns_.on_begin(t))
            cur_[t] = new_node(t, /*completed=*/false);
        return false;

      case Op::kEnd:
        if (txns_.on_end(t)) {
            uint32_t n = cur_[t];
            cur_[t] = kNone;
            if (n != kNone)
                on_complete(n);
        }
        return false;

      case Op::kRead: {
        ensure_var(e.target);
        uint32_t n = node_for_event(t);
        bool cycle = add_edge(last_write_[e.target], n);
        last_read_.at(e.target, t) = n;
        if (cur_[t] == kNone)
            on_complete(n);
        if (cycle)
            return report(index, t, "cycle closed by read edge");
        return false;
      }

      case Op::kWrite: {
        ensure_var(e.target);
        uint32_t n = node_for_event(t);
        bool cycle = add_edge(last_write_[e.target], n);
        const uint32_t* readers = last_read_.row(e.target);
        for (size_t u = 0; u < last_read_.cols(); ++u) {
            if (cycle)
                break;
            cycle = add_edge(readers[u], n);
        }
        last_write_[e.target] = n;
        if (cur_[t] == kNone)
            on_complete(n);
        if (cycle)
            return report(index, t, "cycle closed by write edge");
        return false;
      }

      case Op::kAcquire: {
        ensure_lock(e.target);
        uint32_t n = node_for_event(t);
        bool cycle = add_edge(last_rel_[e.target], n);
        if (cur_[t] == kNone)
            on_complete(n);
        if (cycle)
            return report(index, t, "cycle closed by lock edge");
        return false;
      }

      case Op::kRelease: {
        ensure_lock(e.target);
        uint32_t n = node_for_event(t);
        last_rel_[e.target] = n;
        if (cur_[t] == kNone)
            on_complete(n);
        return false;
      }

      case Op::kFork: {
        ensure_thread(e.target);
        uint32_t n = node_for_event(t);
        // The child's first node will chain from the forking node.
        if (last_[e.target] == kNone)
            last_[e.target] = n;
        if (cur_[t] == kNone)
            on_complete(n);
        return false;
      }

      case Op::kJoin: {
        ensure_thread(e.target);
        uint32_t n = node_for_event(t);
        bool cycle = add_edge(last_[e.target], n);
        if (cur_[t] == kNone)
            on_complete(n);
        if (cycle)
            return report(index, t, "cycle closed by join edge");
        return false;
      }
    }
    return false;
}

size_t
Velodrome::memory_bytes() const
{
    size_t n = nodes_.capacity() * sizeof(Node);
    for (const Node& node : nodes_)
        n += node.succ.capacity() * sizeof(uint32_t);
    // unordered_set: bucket array plus one node (value + next pointer +
    // hash) per element, the same convention as ThreadSlotMap's map.
    n += edge_set_.bucket_count() * sizeof(void*);
    n += edge_set_.size() * (sizeof(uint64_t) + 2 * sizeof(void*));
    n += (cur_.capacity() + last_.capacity() + last_write_.capacity() +
          last_rel_.capacity() + dfs_stack_.capacity()) *
         sizeof(uint32_t);
    n += last_read_.memory_bytes();
    n += txns_.memory_bytes();
    return n;
}

} // namespace aero
