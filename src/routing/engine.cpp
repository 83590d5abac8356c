#include <openspace/routing/engine.hpp>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/assert.hpp>
#include <openspace/core/hash.hpp>
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

constexpr std::uint32_t kNoEntry = 0xFFFFFFFFu;

/// The most bucket widths the largest edge cost may span. The ring holds
/// ceil(maxCost / width) + 3 buckets rounded up to a power of two, so at
/// most 1,024; a graph whose cost ratio is larger gets wider buckets.
constexpr double kMaxCostSpan = 1000.0;

bool masked(const StampedArray<char>* mask, std::uint32_t i) {
  return mask != nullptr && mask->touched(i);
}

/// Dijkstra's parents over labels that are already final at and below
/// `limit`: pops the settled nodes from a (distance, index) heap, pushing
/// each one when its first tight in-edge is relaxed, which is when
/// Dijkstra's own heap would first hold it at its final key. So the pops
/// come in Dijkstra's order, and every settled node except `src` gets its
/// first tight in-edge in that order as its parent. O(settled log
/// settled); the search runs it only when a tight edge joins two equal
/// labels, the one case where that order is not (distance, index).
void replayParents(const CompactGraph& g, std::uint32_t src, double limit,
                   const double* dist, std::uint32_t* parent,
                   AddressableHeap& heap, const StampedArray<char>* nodeMask,
                   const StampedArray<char>* edgeMask) {
  const auto n = static_cast<std::uint32_t>(g.nodeCount());
  for (std::uint32_t v = 0; v < n; ++v) {
    if (dist[v] <= limit) parent[v] = kNoEdge;
  }
  heap.clear();
  heap.reserve(n);
  heap.push(0.0, src);
  while (!heap.empty()) {
    const auto [du, u] = heap.pop();
    const std::uint32_t end = g.rowEnd(u);
    for (std::uint32_t e = g.rowBegin(u); e < end; ++e) {
      if (masked(edgeMask, e)) continue;
      const std::uint32_t v = g.edgeTarget(e);
      if (v == src || masked(nodeMask, v) || parent[v] != kNoEdge) continue;
      const double dv = dist[v];
      if (dv == kInf || dv > limit || du + g.edgeCost(e) != dv) continue;
      parent[v] = e;
      heap.push(dv, v);
    }
  }
}

/// The certificate PathTree::audit() states, over the labels at or below
/// `limit` of a search from `src` under the masks.
void auditLabels(const CompactGraph& g, std::uint32_t src, double limit,
                 const double* dist, const std::uint32_t* parent,
                 const StampedArray<char>* nodeMask,
                 const StampedArray<char>* edgeMask) {
  const auto fail = [](const char* what) {
    throw StateError(std::string("PathTree::audit: ") + what);
  };
  const auto n = static_cast<std::uint32_t>(g.nodeCount());
  const auto m = static_cast<std::uint32_t>(g.edgeCount());
  for (std::uint32_t v = 0; v < n; ++v) {
    // NaN fails this test too, so every later check may skip a node by
    // `settled` alone.
    if (!(dist[v] >= 0.0)) fail("a label is negative or NaN");
  }
  const auto settled = [&](std::uint32_t v) {
    return dist[v] != kInf && dist[v] <= limit;
  };
  if (bitsOf(dist[src]) != bitsOf(0.0) || parent[src] != kNoEdge) {
    fail("the source is not at 0 without a parent");
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    if (v == src || !settled(v)) continue;
    const std::uint32_t p = parent[v];
    if (p >= m || g.edgeTarget(p) != v || masked(edgeMask, p) ||
        masked(nodeMask, g.edgeSource(p)) ||
        bitsOf(dist[g.edgeSource(p)] + g.edgeCost(p)) != bitsOf(dist[v])) {
      fail("a parent edge does not reach its node tightly");
    }
  }
  bool flat = false;  // a tight edge between two equal labels
  for (std::uint32_t u = 0; u < n; ++u) {
    if (!settled(u) || masked(nodeMask, u)) continue;
    for (std::uint32_t e = g.rowBegin(u); e < g.rowEnd(u); ++e) {
      const std::uint32_t v = g.edgeTarget(e);
      if (masked(edgeMask, e) || masked(nodeMask, v)) continue;
      const double nd = dist[u] + g.edgeCost(e);
      if (nd < dist[v]) fail("an edge relaxes a label");
      flat |= nd == dist[v] && nd == dist[u];
    }
  }
  // Dijkstra pops lower labels first, so a parent's source holds the
  // lowest label among the tight in-edges' sources; without a flat step
  // it pops equal labels by index.
  for (std::uint32_t u = 0; u < n; ++u) {
    if (!settled(u) || masked(nodeMask, u)) continue;
    for (std::uint32_t e = g.rowBegin(u); e < g.rowEnd(u); ++e) {
      const std::uint32_t v = g.edgeTarget(e);
      if (v == src || masked(edgeMask, e) || masked(nodeMask, v) ||
          dist[u] + g.edgeCost(e) != dist[v]) {
        continue;
      }
      // Edges are numbered row by row in node order, so (label, edge)
      // order is (label, source index, row position) order.
      const std::uint32_t p = parent[v];
      const double dp = dist[g.edgeSource(p)];
      if (dist[u] < dp || (!flat && dist[u] == dp && e < p)) {
        fail("a parent is not the first tight in-edge in Dijkstra's order");
      }
    }
  }
  if (flat) {
    // With a flat step the order among equal labels is the heap's own;
    // the replay reads it. The search's own parents come from the same
    // replay there, so this half of the check binds hand-made trees; the
    // engine's are held to openspace::legacy's by the tests.
    std::vector<std::uint32_t> want(parent, parent + n);
    AddressableHeap heap;
    replayParents(g, src, limit, dist, want.data(), heap, nodeMask, edgeMask);
    for (std::uint32_t v = 0; v < n; ++v) {
      if (settled(v) && parent[v] != want[v]) {
        fail("a parent is not the first tight in-edge in Dijkstra's order");
      }
    }
  }
}

/// Put back +inf at the nodes the last point search on `scratch`
/// labelled: its entries name them all, so the reset costs what that
/// search did rather than the node count.
void resetPointLabels(RouteScratch& scratch) {
  if (!scratch.pointLabels) return;
  for (const RouteScratch::BucketEntry& entry : scratch.entries) {
    scratch.dist[entry.node] = kInf;
  }
  scratch.pointLabels = false;
}

/// Aggregate a link's contribution to a Route's QoS fields.
void accumulateEdge(Route& r, const CompactGraph& g, std::uint32_t e) {
  r.propagationDelayS += g.edgePropagationDelayS(e);
  r.queueingDelayS += g.edgeQueueingDelayS(e);
  r.bottleneckBps = std::min(r.bottleneckBps, g.edgeCapacityBps(e));
}

}  // namespace

// --- PathTree ----------------------------------------------------------------

void PathTree::audit() const {
  if (!valid()) throw StateError("PathTree::audit: default-constructed tree");
  for (std::size_t v = 0; v < dist_.size(); ++v) {
    if (dist_[v] == kInf && parentEdge_[v] != kNoEdge) {
      throw StateError("PathTree::audit: an unreached node has a parent");
    }
  }
  auditLabels(*csr_, sourceIndex_, kInf, dist_.data(), parentEdge_.data(),
              nullptr, nullptr);
}

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
    OPENSPACE_ASSERT(hops < csr_->nodeCount(),
                     "the parent walk reaches the source within the node count");
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
    : RouteEngine(std::make_shared<const CompactGraph>(compile(g, cost, home))) {}

RouteEngine::RouteEngine(std::shared_ptr<const CompactGraph> graph)
    : csr_(std::move(graph)) {
  if (!csr_) throw InvalidArgumentError("RouteEngine: null compiled graph");
  // The bucket width is the smallest positive cost, so a positive-cost
  // edge never lands in its source's bucket; it widens when the largest
  // cost would span more than kMaxCostSpan buckets, and never gets so
  // narrow that its reciprocal overflows. With no positive cost the scale
  // is 0 and every label shares bucket 0.
  const double width =
      std::max({csr_->minPositiveCost(), csr_->maxCost() / kMaxCostSpan,
                std::numeric_limits<double>::min()});
  bucketScale_ = 1.0 / width;
  // An edge from bucket b reaches at most bucket b + ceil(span) + 1, plus
  // one for rounding; the ring holds those and the current one.
  ringSize_ = std::bit_ceil(
      static_cast<std::uint64_t>(std::ceil(csr_->maxCost() * bucketScale_)) + 3);
}

std::uint32_t RouteEngine::requireIndex(NodeId id, const char* what) const {
  const std::uint32_t i = csr_->indexOf(id);
  if (i == CompactGraph::kInvalidIndex) throw NotFoundError(what);
  return i;
}

double RouteEngine::runSearch(std::uint32_t srcIndex, std::uint32_t stopAtIndex,
                              double* dist, std::uint32_t* parent,
                              RouteScratch& scratch,
                              const StampedArray<char>* nodeMask,
                              const StampedArray<char>* edgeMask) const {
  const CompactGraph& g = *csr_;
  std::vector<RouteScratch::BucketEntry>& entries = scratch.entries;
  std::vector<std::uint32_t>& head = scratch.bucketHead;
  std::vector<std::uint32_t>& tail = scratch.bucketTail;
  std::vector<std::uint64_t>& occupied = scratch.occupied;
  entries.clear();
  entries.reserve(g.edgeCount() + 1);
  head.resize(ringSize_);
  tail.resize(ringSize_);
  occupied.assign((ringSize_ + 63) / 64, 0);
  const double scale = bucketScale_;
  const std::uint64_t slotMask = ringSize_ - 1;
  const auto bucketOf = [scale](double d) {
    return static_cast<std::uint64_t>(d * scale);
  };
  std::uint64_t cur = 0;
  // Queue v at label d in its bucket, never below the current one.
  const auto queue = [&](std::uint32_t v, double d) {
    const std::uint64_t b = std::max(cur, bucketOf(d));
    OPENSPACE_ASSERT(b - cur < ringSize_, "the ring spans every edge's reach");
    const std::uint64_t slot = b & slotMask;
    const auto at = static_cast<std::uint32_t>(entries.size());
    entries.push_back({d, v, kNoEntry});
    std::uint64_t& word = occupied[slot >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
    if ((word & bit) == 0) {
      word |= bit;
      head[slot] = at;
    } else {
      entries[tail[slot]].next = at;
    }
    tail[slot] = at;
  };
  // The first bucket at or after `from` that holds entries. Every pending
  // entry lies less than a ring ahead of the current bucket, so the scan
  // reads at most ringSize_ / 64 + 1 words, whatever the buckets between.
  const auto nextOccupied = [&](std::uint64_t from) {
    std::uint64_t slot = from & slotMask;
    for (;;) {
      const std::uint64_t bits = occupied[slot >> 6] >> (slot & 63);
      if (bits != 0) {
        return from + static_cast<std::uint64_t>(std::countr_zero(bits));
      }
      const std::uint64_t step = std::min<std::uint64_t>(64 - (slot & 63),
                                                         ringSize_ - slot);
      from += step;
      slot = (slot + step) & slotMask;
    }
  };
  queue(srcIndex, 0.0);
  dist[srcIndex] = 0.0;
  parent[srcIndex] = kNoEdge;
  // Buckets drain in ascending order, each first-in first-out (entries
  // queued into the current bucket join its tail), and empty ones are
  // skipped. A node is relaxed only at the label its entry was queued
  // with; an entry whose node has a lower label since is skipped. So a
  // node is relaxed only inside the bucket of its final label, at most once
  // per first-in first-out pass over that bucket: at most as often as that
  // bucket holds nodes, and exactly once when no edge cost lands inside its
  // source's bucket (every cost zero or at least the width).
  std::size_t taken = 0;
  bool flat = false;  // a relaxation kept its source's label
  for (;;) {
    const std::uint64_t slot = cur & slotMask;
    for (std::uint32_t at = head[slot]; at != kNoEntry; at = entries[at].next) {
      ++taken;
      const double du = entries[at].dist;
      const std::uint32_t u = entries[at].node;
      if (du != dist[u]) continue;
      const std::uint32_t end = g.rowEnd(u);
      for (std::uint32_t e = g.rowBegin(u); e < end; ++e) {
        if (masked(edgeMask, e)) continue;
        const std::uint32_t v = g.edgeTarget(e);
        if (masked(nodeMask, v)) continue;
        const double nd = du + g.edgeCost(e);
        OPENSPACE_ASSERT(nd >= du, "non-negative costs keep labels monotone");
        const double dv = dist[v];
        if (nd < dv) {
          // Queued before the label is written, so `entries` names every
          // labelled node even if the push throws.
          queue(v, nd);
          dist[v] = nd;
          parent[v] = e;
          flat |= nd == du;
        } else if (nd == dv && dv != kInf && v != srcIndex) {
          // A second tight in-edge: keep the one Dijkstra relaxes first,
          // the lower (source label, edge index).
          flat |= nd == du;
          const std::uint32_t p = parent[v];
          const double dp = dist[g.edgeSource(p)];
          if (du < dp || (du == dp && e < p)) parent[v] = e;
        }
      }
    }
    occupied[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    if (taken == entries.size()) break;
    if (stopAtIndex != CompactGraph::kInvalidIndex &&
        dist[stopAtIndex] != kInf && bucketOf(dist[stopAtIndex]) <= cur) {
      break;
    }
    cur = nextOccupied(cur + 1);
  }
  const double limit = stopAtIndex != CompactGraph::kInvalidIndex &&
                               dist[stopAtIndex] != kInf && taken != entries.size()
                           ? dist[stopAtIndex]
                           : kInf;
  // Dijkstra pops equal labels by index, unless a tight edge joins two of
  // them: then the pop order is the heap's own, and the replay reads it.
  if (flat) {
    replayParents(g, srcIndex, limit, dist, parent, scratch.order, nodeMask,
                  edgeMask);
  }
#ifndef NDEBUG
  auditLabels(g, srcIndex, limit, dist, parent, nodeMask, edgeMask);
#endif
  return limit;
}

void RouteEngine::runPointSearch(std::uint32_t srcIndex, std::uint32_t dstIndex,
                                 const StampedArray<char>* nodeMask,
                                 const StampedArray<char>* edgeMask) const {
  const std::size_t n = csr_->nodeCount();
  if (scratch_.dist.size() != n) {
    scratch_.dist.assign(n, kInf);
    scratch_.parentEdge.resize(n);
  } else {
    resetPointLabels(scratch_);
  }
  scratch_.pointLabels = true;
  runSearch(srcIndex, dstIndex, scratch_.dist.data(), scratch_.parentEdge.data(),
            scratch_, nodeMask, edgeMask);
}

Route RouteEngine::extractFromScratch(std::uint32_t srcIndex,
                                      std::uint32_t dstIndex,
                                      RouteScratch& scratch) const {
  const CompactGraph& g = *csr_;
  Route r;
  const double d = scratch.dist[dstIndex];
  if (std::isinf(d)) return r;  // unreachable -> invalid route
  r.cost = d;
  // First walk counts hops so every container is sized exactly once; the
  // second fills final positions back-to-front (no reversals, and the edge
  // staging buffer lives in the scratch arena).
  std::size_t hops = 0;
  for (std::uint32_t cur = dstIndex; cur != srcIndex;
       cur = g.edgeSource(scratch.parentEdge[cur])) {
    ++hops;
    OPENSPACE_ASSERT(hops < g.nodeCount(),
                     "the parent walk reaches the source within the node count");
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
  runPointSearch(s, t, nullptr, nullptr);
  return extractFromScratch(s, t, scratch_);
}

PathTree RouteEngine::treeFrom(std::uint32_t srcIndex,
                               RouteScratch& scratch) const {
  PathTree tree;
  tree.csr_ = csr_;
  tree.source_ = csr_->nodeAt(srcIndex);
  tree.sourceIndex_ = srcIndex;
  tree.dist_.assign(csr_->nodeCount(), kInf);
  tree.parentEdge_.assign(csr_->nodeCount(), kNoEdge);
  resetPointLabels(scratch);  // before the tree's entries replace theirs
  runSearch(srcIndex, CompactGraph::kInvalidIndex, tree.dist_.data(),
            tree.parentEdge_.data(), scratch, nullptr, nullptr);
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
      runPointSearch(spurIdx, dstIdx, &forbiddenNodes_, &forbiddenEdges_);
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
