// RouteEngine: the one routing entry point. Every shortest-path query in
// the library — a point route, a single-source tree, a batch of trees,
// Yen's k shortest paths — is a query on a RouteEngine.
//
// The engine compiles a snapshot once into an immutable CSR adjacency
// (topology/compact_graph.hpp) with per-edge precomputed cost/delay/
// capacity — it prices each link once and hands the links to the one CSR
// assembler, assembleGraph() — then answers any number of queries with a
// bucketed label-correcting search: labels fall into a ring of buckets as
// wide as the graph's smallest positive cost, drained in ascending order,
// so no priority queue orders the frontier. Storage is retained across
// queries — zero allocation per query once warmed up, no std::function or
// hash lookup in the hot loop.
// Callers construct one engine per snapshot and cost model and amortize the
// compile over their queries; a one-off query is
// `RouteEngine(g, cost).shortestPath`.
// Over a drifting topology, a sweep builds fresh trees on each step's
// graph from IncrementalTopology (topology/delta.hpp): under the delay
// cost every edge changes every step, so there is no old tree to reuse.
// The hash-map reference implementations the engine is property-tested
// against are test-only code (openspace::legacy in tests/spec).
//
// Determinism contract: every query is a pure function of the compiled
// graph, and the same function as Dijkstra's over a (key, dense index)
// heap: distances are the least fixed point of the relaxation, whatever
// the schedule, and a node's parent is its first tight in-edge in that
// heap's pop order (DESIGN §8), so equal-cost route choices are stable
// run-to-run, and batchShortestPathTrees() writes each source's tree into
// its own result slot — results are bit-identical at any thread count,
// including serial.
//
// Thread-safety: the engine itself is immutable after construction, but the
// single-query methods share one internal scratch arena and must not be
// called concurrently on one engine. batchShortestPathTrees() is the
// parallel API: it fans sources over the process thread pool with per-chunk
// arenas. Distinct engines are always independent.
#pragma once

#include <memory>

#include <openspace/core/scratch.hpp>
#include <openspace/routing/route.hpp>
#include <openspace/topology/compact_graph.hpp>

namespace openspace {

/// Reusable single-source search state; storage is retained across
/// queries. One arena per running search; never share one arena between
/// concurrent searches.
struct RouteScratch {
  /// One label waiting in a bucket: the node, the distance it was queued
  /// at (a lower label since then supersedes it) and the next entry of the
  /// same bucket, in queue order.
  struct BucketEntry {
    double dist;  // units: a route cost, in the cost model's unit
    std::uint32_t node;
    std::uint32_t next;
  };
  /// Point searches' labels and parent edges (trees write into their
  /// PathTree instead). Between searches `dist` is +inf everywhere but at
  /// the nodes the last point search labelled, which `entries` names while
  /// `pointLabels` is set; the next search resets just those.
  std::vector<double> dist;
  std::vector<std::uint32_t> parentEdge;
  bool pointLabels = false;
  /// Every entry queued by the running search, the ring's per-bucket first
  /// and last entry (valid while the bucket's bit is set), and one bit per
  /// ring bucket that holds entries, so the search jumps over empty ones.
  std::vector<BucketEntry> entries;
  std::vector<std::uint32_t> bucketHead;
  std::vector<std::uint32_t> bucketTail;
  std::vector<std::uint64_t> occupied;
  /// Orders the settled nodes of a search whose labels hold a flat step
  /// (DESIGN §8), as Dijkstra's heap pops them.
  AddressableHeap order;
  /// Path-extraction staging (edge indices in forward order), kept here so
  /// steady-state extraction reuses its capacity.
  std::vector<std::uint32_t> pathEdges;
};

/// The flat result of one single-source shortest-path run: distances and
/// parent edges by dense node index, plus enough shared context to expand
/// any destination into a full Route on demand. Cheap to keep around (two
/// flat arrays); routes materialize only for the destinations asked for.
class PathTree {
 public:
  PathTree() = default;

  /// False for a default-constructed (empty) tree.
  bool valid() const noexcept { return csr_ != nullptr; }
  NodeId source() const noexcept { return source_; }

  /// True when `dst` was reached. Throws NotFoundError for unknown nodes.
  bool reaches(NodeId dst) const;
  /// Path cost to `dst` (+inf when unreachable). Throws NotFoundError.
  double costTo(NodeId dst) const;
  /// Full route to `dst`; invalid Route when unreachable. Throws
  /// NotFoundError for nodes absent from the snapshot.
  Route routeTo(NodeId dst) const;
  /// Route to the cheapest reachable node of `targets` (§5(2) gateway
  /// offload: a farther idle gateway wins when the detour beats the hot
  /// one's queueing). Equal costs go to the earlier-listed target; invalid
  /// Route when no target is reachable. Throws NotFoundError for a target
  /// absent from the snapshot.
  Route routeToCheapest(const std::vector<NodeId>& targets) const;

  /// Flat views by dense node index (for checksums / bulk consumers).
  const std::vector<double>& distByIndex() const noexcept { return dist_; }
  const std::vector<std::uint32_t>& parentEdgeByIndex() const noexcept {
    return parentEdge_;
  }

  /// Certificate check: throws StateError unless every label is +inf
  /// (unreached, with no parent) or a non-negative number; the source sits
  /// at 0 with no parent; every reached node's parent edge targets it and
  /// is tight (source label plus edge cost equals its label, bitwise); no
  /// edge relaxes a label
  /// (fl(d[u] + c) < d[v]); and every parent is the first tight in-edge in
  /// Dijkstra's pop order: a lowest-labelled source always, the (distance,
  /// source index, row position) minimum when no tight edge joins two
  /// equal labels, and otherwise the order a (distance, index) heap pops
  /// them in. O(edges); builds without NDEBUG run the same check after
  /// every engine search.
  void audit() const;

 private:
  friend class RouteEngine;
  /// The audit's tests build hand-corrupted trees through this.
  friend struct PathTreeTestAccess;

  std::shared_ptr<const CompactGraph> csr_;
  NodeId source_{};
  std::uint32_t sourceIndex_ = CompactGraph::kInvalidIndex;
  std::vector<double> dist_;               ///< +inf == unreachable.
  std::vector<std::uint32_t> parentEdge_;  ///< kInvalidIndex == none.
};

/// What one repairShortestPathTree() call did, in the fields the
/// worldbench record reads.
struct TreeRepairStats {
  /// True only when `previous` was already built on this engine's graph.
  bool repaired = false;
  /// Static string naming the fallback cause; nullptr when repaired.
  const char* fallbackReason = nullptr;
  std::size_t queuePops = 0;  ///< Always 0: the shim runs no repair queue.
};

class RouteEngine {
 public:
  /// Compile `g` under `cost` as provider `home`: each link is priced once,
  /// cost(l, g.node(l.a), g.node(l.b), home), and assembled by
  /// assembleGraph(). Throws InvalidArgumentError on a negative or NaN cost. The NetworkGraph is not retained: the engine
  /// owns its compiled form and is self-contained.
  explicit RouteEngine(const NetworkGraph& g, const LinkCostFn& cost = latencyCost(),
                       ProviderId home = {});
  /// Adopt an already-compiled graph (shared with PathTrees it produces).
  explicit RouteEngine(std::shared_ptr<const CompactGraph> graph);

  /// Shortest route, with the search stopping once the bucket holding
  /// `dst` is drained: trivial route for src == dst, invalid Route when
  /// unreachable, NotFoundError for unknown endpoints.
  Route shortestPath(NodeId src, NodeId dst) const;

  /// Full single-source tree as a compact PathTree.
  PathTree shortestPathTree(NodeId src) const;

  /// Compatibility shim for worldbench, which still calls it: returns
  /// `previous` itself (repaired = true) when it was built on this engine's
  /// graph object, and otherwise shortestPathTree(previous.source()) with
  /// repaired = false and fallbackReason "fresh-tree". Either way the result
  /// is bit-identical to a fresh tree. Throws InvalidArgumentError for an
  /// invalid `previous`. New code calls shortestPathTree() or
  /// batchShortestPathTrees() directly.
  PathTree repairShortestPathTree(const PathTree& previous,
                                  TreeRepairStats* stats = nullptr) const;

  /// One PathTree per source, computed across the process thread pool
  /// (openspace::parallelFor). Output order matches `sources`; results are
  /// bit-identical to computing each tree serially. Throws NotFoundError
  /// if any source is unknown (before any work is fanned out).
  std::vector<PathTree> batchShortestPathTrees(
      const std::vector<NodeId>& sources) const;

  /// Yen's algorithm over the compiled graph: up to k loop-free shortest
  /// paths in ascending cost. Candidate deduplication uses a hashed
  /// node-sequence set and root-prefix costs are reused from the compiled
  /// per-edge costs (never re-priced). Throws InvalidArgumentError for
  /// k < 1, NotFoundError for unknown endpoints.
  std::vector<Route> kShortestPaths(NodeId src, NodeId dst, int k) const;

  const CompactGraph& graph() const noexcept { return *csr_; }
  std::shared_ptr<const CompactGraph> sharedGraph() const noexcept {
    return csr_;
  }

 private:
  std::uint32_t requireIndex(NodeId id, const char* what) const;
  /// The one search: labels `dist` (all +inf on entry) and `parentEdge`
  /// from `srcIndex`, stopping once the bucket holding `stopAtIndex` is
  /// drained (kInvalidIndex: never). Masks (may be null) mark forbidden
  /// dense nodes / edge indices as "touched". Returns the largest settled
  /// label: every node at or below it holds its final label and parent.
  double runSearch(std::uint32_t srcIndex, std::uint32_t stopAtIndex,
                   double* dist, std::uint32_t* parentEdge,
                   RouteScratch& scratch, const StampedArray<char>* nodeMask,
                   const StampedArray<char>* edgeMask) const;
  /// runSearch() into the scratch arena's own label arrays.
  void runPointSearch(std::uint32_t srcIndex, std::uint32_t dstIndex,
                      const StampedArray<char>* nodeMask,
                      const StampedArray<char>* edgeMask) const;
  Route extractFromScratch(std::uint32_t srcIndex, std::uint32_t dstIndex,
                           RouteScratch& scratch) const;
  PathTree treeFrom(std::uint32_t srcIndex, RouteScratch& scratch) const;

  std::shared_ptr<const CompactGraph> csr_;
  /// Bucket geometry, fixed by the graph's cost range: a label d sits in
  /// bucket floor(d * bucketScale_), and the ring holds ringSize_ (a power
  /// of two) consecutive buckets.
  double bucketScale_ = 0.0;
  std::uint64_t ringSize_ = 4;
  /// Query-reuse arenas (see thread-safety note above).
  mutable RouteScratch scratch_;
  mutable StampedArray<char> forbiddenNodes_;
  mutable StampedArray<char> forbiddenEdges_;
};

}  // namespace openspace
