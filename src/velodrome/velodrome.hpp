#pragma once

/**
 * @file
 * Velodrome — the graph-based baseline (Flanagan, Freund, Yi, PLDI 2008),
 * re-implemented from its published description as in the paper's Section 5.
 *
 * The algorithm maintains a directed graph whose nodes are transactions
 * (including unary transactions for events outside atomic blocks) and whose
 * edges are the <Txn orderings discovered so far. Each event adds edges
 * from the transactions of prior conflicting events to the current event's
 * transaction; every *new* edge triggers a reachability check (is the
 * source reachable from the target?), declaring a violation when a cycle
 * closes. The per-edge cycle check over a graph whose size can grow
 * linearly in the trace is what gives the overall cubic worst case the
 * paper sets out to beat. A Pearce-Kelly incremental topological-order
 * cycle check was tried in place of the per-edge search and never
 * clearly beat it (on the star workload the hub keeps taking
 * order-violating edges over the growing consumer set), so the graph
 * representation, not the cycle-check algorithm, is the bottleneck.
 *
 * The garbage-collection optimization suggested in [19] and implemented by
 * the paper's authors is included: a *completed* transaction with no
 * incoming edges can never lie on a cycle (its incoming-edge set can no
 * longer grow, because new edges always point at the transaction of the
 * *current* event), so it is deleted and its outgoing edges discarded,
 * cascading to its successors. Future edges whose source was deleted are
 * skipped entirely: a cycle through such an edge would need a path back
 * into the deleted (incoming-edge-free) source, which cannot exist.
 */

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "analysis/checker.hpp"
#include "analysis/txn_tracker.hpp"
#include "trace/trace.hpp"
#include "vc/flat_table.hpp"

namespace aero {

/** Statistics exposed for the evaluation harness. */
struct VelodromeStats {
    /** Nodes currently alive in the graph. */
    uint64_t live_nodes = 0;
    /** High-water mark of live nodes (paper quotes e.g. ~9000 for
     *  sunflow at the violation point). */
    uint64_t max_live_nodes = 0;
    /** Total nodes ever created. */
    uint64_t total_nodes = 0;
    /** Distinct edges ever inserted. */
    uint64_t total_edges = 0;
    /** Nodes reclaimed by garbage collection. */
    uint64_t gc_deleted = 0;
    /** Nodes visited across all reachability checks (work measure). */
    uint64_t dfs_visits = 0;
};

/**
 * Online Velodrome checker.
 *
 * The constructor's dimensions (threads/vars/locks) pre-size the state
 * for callers that hold a whole Trace; a streaming run passes zeros, and
 * every id grows the state when it first occurs. Per-variable state is
 * sized by the highest variable id used, times the thread columns.
 */
class Velodrome : public CheckerBase {
public:
    Velodrome(uint32_t num_threads, uint32_t num_vars, uint32_t num_locks);

    std::string_view name() const override { return "Velodrome"; }

    bool process(const Event& e, size_t index) override;

    const VelodromeStats& stats() const { return stats_; }

    StatList
    counters() const override
    {
        return {
            {"max_live_nodes", stats_.max_live_nodes},
            {"total_nodes", stats_.total_nodes},
            {"total_edges", stats_.total_edges},
            {"gc_deleted", stats_.gc_deleted},
            {"dfs_visits", stats_.dfs_visits},
        };
    }

    size_t memory_bytes() const override;

private:
    static constexpr uint32_t kNone = UINT32_MAX;

    struct Node {
        std::vector<uint32_t> succ;
        uint32_t indegree = 0;
        bool completed = false;
        bool deleted = false;
        /** DFS stamp for O(1)-amortized visited marking. */
        uint32_t stamp = 0;
    };

    /** Create a node for thread t; completed marks unary transactions. */
    uint32_t new_node(ThreadId t, bool completed);

    /** Node that owns the current event of thread t (materializing a unary
     *  transaction if no block is open). */
    uint32_t node_for_event(ThreadId t);

    /**
     * Insert edge a->b (deduplicated) and run the cycle check.
     * @return true iff the edge closes a cycle.
     */
    bool add_edge(uint32_t a, uint32_t b);

    /** Is `needle` reachable from `from` (over non-deleted nodes)? */
    bool reachable(uint32_t from, uint32_t needle);

    /** Run GC starting at a completed node. */
    void maybe_collect(uint32_t n);

    void on_complete(uint32_t n);

    void ensure_thread(ThreadId t);
    void ensure_var(VarId x);
    void ensure_lock(LockId l);

    TxnTracker txns_;

    std::vector<Node> nodes_;
    /** Deduplication of inserted edges, keyed by (source << 32 | target). */
    std::unordered_set<uint64_t> edge_set_;

    std::vector<uint32_t> cur_;  // active block node per thread
    std::vector<uint32_t> last_; // most recent node per thread (also holds
                                 // the forking node for not-yet-started
                                 // children)
    std::vector<uint32_t> last_write_; // per var
    std::vector<uint32_t> last_rel_;   // per lock
    /** Last-read node per (var, thread), flattened into one arena so the
     *  per-write reader scan streams one contiguous row. */
    FlatTable<uint32_t> last_read_;

    uint32_t dfs_stamp_ = 0;
    std::vector<uint32_t> dfs_stack_;

    VelodromeStats stats_;
};

} // namespace aero
