#include <openspace/routing/engine.hpp>

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/assert.hpp>
#include <openspace/geo/error.hpp>

namespace openspace {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kNoEdge = CompactGraph::kInvalidIndex;

/// Sources per batch chunk: amortizes one scratch arena over several tree
/// runs without starving the pool on mid-sized batches. Fixed (independent
/// of thread count) so the fan-out decomposition never varies.
constexpr std::size_t kBatchChunk = 4;

/// FNV-1a over a node sequence, for Yen's hashed candidate dedup set.
struct NodeSeqHash {
  std::size_t operator()(const std::vector<NodeId>& nodes) const noexcept {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const NodeId id : nodes) {
      h ^= id.value();
      h *= 0x100000001B3ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Aggregate a link's contribution to a Route's QoS fields.
void accumulateEdge(Route& r, const CompactGraph& g, std::uint32_t e) {
  r.propagationDelayS += g.edgePropagationDelayS(e);
  r.queueingDelayS += g.edgeQueueingDelayS(e);
  r.bottleneckBps = std::min(r.bottleneckBps, g.edgeCapacityBps(e));
}

}  // namespace

// --- PathTree ----------------------------------------------------------------

bool PathTree::reaches(NodeId dst) const { return std::isfinite(costTo(dst)); }

double PathTree::costTo(NodeId dst) const {
  OPENSPACE_ASSERT(valid(), "costTo on a default-constructed PathTree");
  const std::uint32_t i = csr_->indexOf(dst);
  if (i == CompactGraph::kInvalidIndex) {
    throw NotFoundError("PathTree::costTo: unknown node");
  }
  return dist_[i];
}

Route PathTree::routeTo(NodeId dst) const {
  OPENSPACE_ASSERT(valid(), "routeTo on a default-constructed PathTree");
  const std::uint32_t dstIndex = csr_->indexOf(dst);
  if (dstIndex == CompactGraph::kInvalidIndex) {
    throw NotFoundError("PathTree::routeTo: unknown node");
  }
  Route r;
  if (std::isinf(dist_[dstIndex])) return r;  // unreachable -> invalid route
  r.cost = dist_[dstIndex];
  std::size_t hops = 0;
  for (std::uint32_t cur = dstIndex; cur != sourceIndex_;
       cur = csr_->edgeSource(parentEdge_[cur])) {
    OPENSPACE_ASSERT(parentEdge_[cur] != kNoEdge,
                     "every reached node except the source has a parent");
    ++hops;
  }
  r.nodes.resize(hops + 1);
  r.links.resize(hops);
  std::vector<std::uint32_t> edges(hops);
  std::uint32_t cur = dstIndex;
  for (std::size_t i = hops; i-- > 0;) {
    const std::uint32_t e = parentEdge_[cur];
    edges[i] = e;
    r.links[i] = csr_->edgeLink(e);
    r.nodes[i + 1] = csr_->nodeAt(cur);
    cur = csr_->edgeSource(e);
  }
  r.nodes[0] = csr_->nodeAt(sourceIndex_);
  // Forward-order accumulation, matching the legacy extractRoute exactly
  // (floating-point sums are order-sensitive; equivalence tests compare
  // bit-for-bit).
  for (const std::uint32_t e : edges) accumulateEdge(r, *csr_, e);
  return r;
}

Route PathTree::routeToCheapest(const std::vector<NodeId>& targets) const {
  double bestCost = kInf;
  NodeId best{};
  for (const NodeId t : targets) {
    const double c = costTo(t);  // NotFoundError for unknown targets
    if (c < bestCost) {
      bestCost = c;
      best = t;
    }
  }
  return std::isinf(bestCost) ? Route{} : routeTo(best);
}

// --- RouteEngine -------------------------------------------------------------

namespace {

/// Prices every link of `g` once under `cost` as `home` and assembles.
CompactGraph compile(const NetworkGraph& g, const LinkCostFn& cost,
                     ProviderId home) {
  std::vector<NodeKind> kinds;
  kinds.reserve(g.nodeCount());
  for (const NodeId id : g.nodes()) kinds.push_back(g.node(id).kind);
  auto nodes = std::make_shared<const CompactGraph::NodeTable>(g.nodes(),
                                                               std::move(kinds));
  std::vector<Link> links;
  std::vector<double> costs;
  links.reserve(g.linkCount());
  costs.reserve(g.linkCount());
  for (const LinkId lid : g.links()) {
    const Link& l = g.link(lid);
    links.push_back(l);
    costs.push_back(cost(l, g.node(l.a), g.node(l.b), home));
  }
  return assembleGraph(std::move(nodes), links, costs);
}

}  // namespace

RouteEngine::RouteEngine(const NetworkGraph& g, const LinkCostFn& cost,
                         ProviderId home)
    : csr_(std::make_shared<const CompactGraph>(compile(g, cost, home))) {}

RouteEngine::RouteEngine(std::shared_ptr<const CompactGraph> graph)
    : csr_(std::move(graph)) {
  if (!csr_) throw InvalidArgumentError("RouteEngine: null compiled graph");
}

std::uint32_t RouteEngine::requireIndex(NodeId id, const char* what) const {
  const std::uint32_t i = csr_->indexOf(id);
  if (i == CompactGraph::kInvalidIndex) throw NotFoundError(what);
  return i;
}

void RouteEngine::runDijkstra(std::uint32_t srcIndex, std::uint32_t stopAtIndex,
                              RouteScratch& scratch,
                              const StampedArray<char>* nodeMask,
                              const StampedArray<char>* edgeMask) const {
  const CompactGraph& g = *csr_;
  scratch.dist.reset(g.nodeCount());
  if (scratch.parentEdge.size() < g.nodeCount()) {
    scratch.parentEdge.resize(g.nodeCount());
  }
  scratch.frontier.clear();
  scratch.frontier.reserve(g.nodeCount());
  scratch.dist.set(srcIndex, 0.0);
  scratch.frontier.push(0.0, srcIndex);
  // Costs are non-negative, so a node is pushed only on a strict
  // improvement and never re-enters the heap once popped: every pop
  // settles its node.
  while (!scratch.frontier.empty()) {
    const auto [d, u] = scratch.frontier.pop();
    if (u == stopAtIndex) break;
    const std::uint32_t end = g.rowEnd(u);
    for (std::uint32_t e = g.rowBegin(u); e < end; ++e) {
      if (edgeMask != nullptr && edgeMask->touched(e)) continue;
      const std::uint32_t v = g.edgeTarget(e);
      if (nodeMask != nullptr && nodeMask->touched(v)) continue;
      const double nd = d + g.edgeCost(e);
      OPENSPACE_ASSERT(nd >= d, "non-negative costs keep distances monotone");
      if (nd < scratch.dist.getOr(v, kInf)) {
        scratch.dist.set(v, nd);
        scratch.parentEdge[v] = e;  // valid while dist's stamp is current
        scratch.frontier.push(nd, v);  // insert, or lower v's key in place
      }
    }
  }
#ifndef NDEBUG
  scratch.frontier.audit();
#endif
}

Route RouteEngine::extractFromScratch(std::uint32_t srcIndex,
                                      std::uint32_t dstIndex,
                                      RouteScratch& scratch) const {
  const CompactGraph& g = *csr_;
  Route r;
  const double d = scratch.dist.getOr(dstIndex, kInf);
  if (std::isinf(d)) return r;  // unreachable -> invalid route
  r.cost = d;
  // First walk counts hops so every container is sized exactly once; the
  // second fills final positions back-to-front (no reversals, and the edge
  // staging buffer lives in the scratch arena).
  std::size_t hops = 0;
  for (std::uint32_t cur = dstIndex; cur != srcIndex;
       cur = g.edgeSource(scratch.parentEdge[cur])) {
    ++hops;
  }
  r.nodes.resize(hops + 1);
  r.links.resize(hops);
  scratch.pathEdges.resize(hops);
  std::uint32_t cur = dstIndex;
  for (std::size_t i = hops; i-- > 0;) {
    const std::uint32_t e = scratch.parentEdge[cur];
    scratch.pathEdges[i] = e;
    r.links[i] = g.edgeLink(e);
    r.nodes[i + 1] = g.nodeAt(cur);
    cur = g.edgeSource(e);
  }
  r.nodes[0] = g.nodeAt(srcIndex);
  // Forward-order accumulation, matching the legacy extractRoute exactly
  // (floating-point sums are order-sensitive; equivalence tests compare
  // bit-for-bit).
  for (const std::uint32_t e : scratch.pathEdges) accumulateEdge(r, g, e);
  return r;
}

Route RouteEngine::shortestPath(NodeId src, NodeId dst) const {
  const std::uint32_t s = requireIndex(src, "shortestPath: unknown endpoint node");
  const std::uint32_t t = requireIndex(dst, "shortestPath: unknown endpoint node");
  if (s == t) {
    Route r;
    r.nodes = {src};
    r.cost = 0.0;
    return r;
  }
  runDijkstra(s, t, scratch_, nullptr, nullptr);
  return extractFromScratch(s, t, scratch_);
}

PathTree RouteEngine::treeFrom(std::uint32_t srcIndex,
                               RouteScratch& scratch) const {
  runDijkstra(srcIndex, CompactGraph::kInvalidIndex, scratch, nullptr, nullptr);
  PathTree tree;
  tree.csr_ = csr_;
  tree.source_ = csr_->nodeAt(srcIndex);
  tree.sourceIndex_ = srcIndex;
  const std::size_t n = csr_->nodeCount();
  tree.dist_.resize(n);
  tree.parentEdge_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const bool reached = scratch.dist.touched(i);
    tree.dist_[i] = reached ? scratch.dist.getOr(i, kInf) : kInf;
    tree.parentEdge_[i] =
        reached && i != srcIndex ? scratch.parentEdge[i] : kNoEdge;
  }
  return tree;
}

PathTree RouteEngine::shortestPathTree(NodeId src) const {
  const std::uint32_t s = requireIndex(src, "shortestPathTree: unknown source");
  return treeFrom(s, scratch_);
}

PathTree RouteEngine::repairShortestPathTree(const PathTree& previous,
                                             TreeRepairStats* stats) const {
  if (!previous.valid()) {
    throw InvalidArgumentError(
        "repairShortestPathTree: previous tree is default-constructed");
  }
  TreeRepairStats local;
  TreeRepairStats& st = stats != nullptr ? *stats : local;
  st = TreeRepairStats{};
  if (previous.csr_.get() == csr_.get()) {
    st.repaired = true;  // same compiled graph object: nothing can differ
    return previous;
  }
  st.fallbackReason = "fresh-tree";
  return shortestPathTree(previous.source_);
}

std::vector<PathTree> RouteEngine::batchShortestPathTrees(
    const std::vector<NodeId>& sources) const {
  // Validate every source up front so NotFoundError is thrown from the
  // calling thread, never from inside the fan-out.
  std::vector<std::uint32_t> srcIndex;
  srcIndex.reserve(sources.size());
  for (const NodeId src : sources) {
    srcIndex.push_back(
        requireIndex(src, "batchShortestPathTrees: unknown source"));
  }
  std::vector<PathTree> out(sources.size());
  parallelFor(sources.size(), kBatchChunk,
              [&](std::size_t begin, std::size_t end) {
                RouteScratch scratch;  // one arena per chunk, reused within
                for (std::size_t i = begin; i < end; ++i) {
                  out[i] = treeFrom(srcIndex[i], scratch);
                }
              });
  return out;
}

std::vector<Route> RouteEngine::kShortestPaths(NodeId src, NodeId dst,
                                               int k) const {
  if (k < 1) throw InvalidArgumentError("kShortestPaths: k must be >= 1");
  requireIndex(src, "kShortestPaths: unknown endpoint node");
  requireIndex(dst, "kShortestPaths: unknown endpoint node");

  std::vector<Route> result;
  const Route first = shortestPath(src, dst);
  if (!first.valid()) return result;
  result.push_back(first);

  // Yen's algorithm. Dedup is a hashed node-sequence set covering every
  // path ever accepted (result ∪ candidates); root-prefix costs come from
  // running prefix sums over the compiled per-edge costs, so the cost
  // model is never re-invoked on an already-priced prefix.
  std::unordered_set<std::vector<NodeId>, NodeSeqHash> seen;
  seen.insert(first.nodes);
  std::vector<Route> candidates;

  // Per-iteration prefix aggregates of result.back(): index i holds the
  // aggregate over the first i links.
  std::vector<double> prefixCost, prefixPropS, prefixQueueS, prefixBottleneckBps;

  for (int ki = 1; ki < k; ++ki) {
    const Route& prev = result.back();
    prefixCost.assign(1, 0.0);
    prefixPropS.assign(1, 0.0);
    prefixQueueS.assign(1, 0.0);
    prefixBottleneckBps.assign(1, kInf);
    for (const LinkId lid : prev.links) {
      const auto& dirEdges = csr_->edgesOfLink(lid);
      OPENSPACE_ASSERT(!dirEdges.empty(), "route links exist in the CSR");
      const std::uint32_t e = dirEdges.front();
      prefixCost.push_back(prefixCost.back() + csr_->edgeCost(e));
      prefixPropS.push_back(prefixPropS.back() + csr_->edgePropagationDelayS(e));
      prefixQueueS.push_back(prefixQueueS.back() + csr_->edgeQueueingDelayS(e));
      prefixBottleneckBps.push_back(
          std::min(prefixBottleneckBps.back(), csr_->edgeCapacityBps(e)));
    }

    for (std::size_t spur = 0; spur + 1 < prev.nodes.size(); ++spur) {
      const std::uint32_t spurIdx = csr_->indexOf(prev.nodes[spur]);
      OPENSPACE_ASSERT(spurIdx != CompactGraph::kInvalidIndex,
                       "route nodes exist in the CSR");

      forbiddenEdges_.reset(csr_->edgeCount());
      for (const Route& r : result) {
        if (r.nodes.size() > spur &&
            std::equal(r.nodes.begin(),
                       r.nodes.begin() + static_cast<std::ptrdiff_t>(spur) + 1,
                       prev.nodes.begin())) {
          if (spur < r.links.size()) {
            for (const std::uint32_t e : csr_->edgesOfLink(r.links[spur])) {
              forbiddenEdges_.set(e, char{1});
            }
          }
        }
      }
      forbiddenNodes_.reset(csr_->nodeCount());
      for (std::size_t i = 0; i < spur; ++i) {
        forbiddenNodes_.set(csr_->indexOf(prev.nodes[i]), char{1});
      }

      const std::uint32_t dstIdx = csr_->indexOf(dst);
      runDijkstra(spurIdx, dstIdx, scratch_, &forbiddenNodes_, &forbiddenEdges_);
      Route spurRoute = extractFromScratch(spurIdx, dstIdx, scratch_);
      if (!spurRoute.valid()) continue;

      // Stitch root + spur; the root prefix is already priced.
      Route total;
      total.nodes.assign(prev.nodes.begin(),
                         prev.nodes.begin() + static_cast<std::ptrdiff_t>(spur));
      total.nodes.insert(total.nodes.end(), spurRoute.nodes.begin(),
                         spurRoute.nodes.end());
      total.links.assign(prev.links.begin(),
                         prev.links.begin() + static_cast<std::ptrdiff_t>(spur));
      total.links.insert(total.links.end(), spurRoute.links.begin(),
                         spurRoute.links.end());
      total.cost = prefixCost[spur] + spurRoute.cost;
      total.propagationDelayS = prefixPropS[spur] + spurRoute.propagationDelayS;
      total.queueingDelayS = prefixQueueS[spur] + spurRoute.queueingDelayS;
      total.bottleneckBps =
          std::min(prefixBottleneckBps[spur], spurRoute.bottleneckBps);

      if (!seen.insert(total.nodes).second) continue;  // already known
      candidates.push_back(std::move(total));
    }
    if (candidates.empty()) break;
    const auto it = std::min_element(
        candidates.begin(), candidates.end(),
        [](const Route& a, const Route& b) { return a.cost < b.cost; });
    result.push_back(std::move(*it));
    candidates.erase(it);
  }
  return result;
}

}  // namespace openspace
