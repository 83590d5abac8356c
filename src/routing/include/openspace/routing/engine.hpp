// RouteEngine: the one routing entry point. Every shortest-path query in
// the library — a point route, a single-source tree, a batch of trees,
// Yen's k shortest paths — is a query on a RouteEngine.
//
// The engine compiles a snapshot once into an immutable CSR adjacency
// (topology/compact_graph.hpp) with per-edge precomputed cost/delay/
// capacity — it prices each link once and hands the links to the one CSR
// assembler, assembleGraph() — then answers any number of queries over
// generation-stamped scratch arrays and a reusable addressable heap (one
// entry per frontier node, keys lowered in place) — zero allocation per
// query once warmed up, no std::function or hash lookup in the hot loop.
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
// graph. The heap breaks distance ties by dense node index (== NetworkGraph
// insertion order), so equal-cost route choices are stable run-to-run, and
// batchShortestPathTrees() writes each source's tree into its own result
// slot — results are bit-identical at any thread count, including serial.
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

/// Reusable single-source search state: O(1) logical reset via generation
/// stamps, storage retained across queries. One arena per running search;
/// never share one arena between concurrent searches.
struct RouteScratch {
  StampedArray<double> dist;
  /// Parent edge per dense node; meaningful only where `dist` is touched
  /// this generation (shares its stamps instead of keeping a second set).
  std::vector<std::uint32_t> parentEdge;
  AddressableHeap frontier;
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

 private:
  friend class RouteEngine;

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

  /// Dijkstra with early exit at `dst`: trivial route for src == dst,
  /// invalid Route when unreachable, NotFoundError for unknown endpoints.
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
  /// Core Dijkstra over `scratch`; masks (may be null) mark forbidden
  /// dense nodes / edge indices as "touched".
  void runDijkstra(std::uint32_t srcIndex, std::uint32_t stopAtIndex,
                   RouteScratch& scratch, const StampedArray<char>* nodeMask,
                   const StampedArray<char>* edgeMask) const;
  Route extractFromScratch(std::uint32_t srcIndex, std::uint32_t dstIndex,
                           RouteScratch& scratch) const;
  PathTree treeFrom(std::uint32_t srcIndex, RouteScratch& scratch) const;

  std::shared_ptr<const CompactGraph> csr_;
  /// Query-reuse arenas (see thread-safety note above).
  mutable RouteScratch scratch_;
  mutable StampedArray<char> forbiddenNodes_;
  mutable StampedArray<char> forbiddenEdges_;
};

}  // namespace openspace
