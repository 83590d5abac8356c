#include <openspace/topology/compact_graph.hpp>

#include <algorithm>
#include <cmath>
#include <string>

#include <openspace/core/assert.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/geo/error.hpp>

namespace openspace {

std::uint64_t CompactGraph::contentChecksum() const noexcept {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a(h, nodes_->denseToNode.size());
  for (const NodeId id : nodes_->denseToNode) h = fnv1a(h, id.value());
  for (const NodeKind k : nodes_->nodeKind) {
    h = fnv1a(h, static_cast<std::uint64_t>(k));
  }
  for (const std::uint32_t o : rowOffset_) h = fnv1a(h, o);
  h = fnv1a(h, edgeTo_.size());
  for (std::size_t e = 0; e < edgeTo_.size(); ++e) {
    h = fnv1a(h, edgeTo_[e]);
    h = fnv1a(h, edgeFrom_[e]);
    h = fnv1a(h, bitsOf(edgeCost_[e]));
    h = fnv1a(h, bitsOf(edgePropS_[e]));
    h = fnv1a(h, bitsOf(edgeQueueS_[e]));
    h = fnv1a(h, bitsOf(edgeCapBps_[e]));
    h = fnv1a(h, edgeLinkId_[e].value());
  }
  // The link->edges map, walked in link-id order so hash-map iteration
  // order never leaks into the checksum.
  for (std::size_t lid = 0; lid < linkEdges_.size(); ++lid) {
    const LinkEdgeRange& r = linkEdges_[lid];
    if (r.count == 0) continue;
    h = fnv1a(h, lid);
    for (const std::uint32_t e : r) h = fnv1a(h, e);
  }
  if (!sparseLinkEdges_.empty()) {
    std::vector<LinkId> ids;
    ids.reserve(sparseLinkEdges_.size());
    // det-waiver: keys collected then sorted before any use — order cannot leak
    for (const auto& [lid, r] : sparseLinkEdges_) ids.push_back(lid);
    std::sort(ids.begin(), ids.end(),
              [](LinkId a, LinkId b) { return a.value() < b.value(); });
    for (const LinkId lid : ids) {
      const LinkEdgeRange& r = sparseLinkEdges_.at(lid);
      h = fnv1a(h, lid.value());
      for (const std::uint32_t e : r) h = fnv1a(h, e);
    }
  }
  return h;
}

std::shared_ptr<const CompactGraph::NodeTable> CompactGraph::makeNodeTable(
    std::vector<NodeId> order, std::vector<NodeKind> kinds) {
  const std::size_t n = order.size();
  OPENSPACE_ASSERT(n < kInvalidIndex, "dense node indices fit in 32 bits");
  auto nt = std::make_shared<NodeTable>();
  nt->denseToNode = std::move(order);
  nt->nodeKind = std::move(kinds);
  nt->nodeToDense.reserve(n);
  std::uint32_t maxIdValue = 0;
  for (std::size_t i = 0; i < n; ++i) {
    nt->nodeToDense.emplace(nt->denseToNode[i], static_cast<std::uint32_t>(i));
    maxIdValue = std::max(maxIdValue, nt->denseToNode[i].value());
  }
  // Builder-assigned ids are dense (1..N), so a direct-mapped table makes
  // indexOf a single load. Skip it for pathological sparse id spaces where
  // it would waste memory.
  if (n > 0 && maxIdValue <= 4 * n + 1024) {
    nt->idToDense.assign(maxIdValue + 1, kInvalidIndex);
    for (std::size_t i = 0; i < n; ++i) {
      nt->idToDense[nt->denseToNode[i].value()] = static_cast<std::uint32_t>(i);
    }
  }
  return nt;
}

void CompactGraph::audit() const {
  const auto fail = [](const char* what) {
    throw StateError(std::string("CompactGraph::audit: ") + what);
  };
  const std::size_t n = nodeCount();
  const std::size_t m = edgeCount();
  const bool empty = n == 0 && m == 0 && rowOffset_.empty();  // default-built
  if (!empty && (rowOffset_.size() != n + 1 || rowOffset_.front() != 0 ||
                 rowOffset_.back() != m)) {
    fail("rowOffset does not span the edges");
  }
  if (edgeFrom_.size() != m || edgeCost_.size() != m || edgePropS_.size() != m ||
      edgeQueueS_.size() != m || edgeCapBps_.size() != m ||
      edgeLinkId_.size() != m) {
    fail("edge arrays differ in length");
  }
  for (std::uint32_t u = 0; u < n; ++u) {
    if (rowOffset_[u] > rowOffset_[u + 1] || rowOffset_[u + 1] > m) {
      fail("rowOffset is not monotone");
    }
    for (std::uint32_t e = rowOffset_[u]; e < rowOffset_[u + 1]; ++e) {
      if (edgeFrom_[e] != u) fail("edgeFrom is not the edge's row");
      if (edgeTo_[e] >= n) fail("edgeTo out of range");
    }
  }
  const auto sameBits = [&](std::uint32_t x, std::uint32_t y) {
    return bitsOf(edgeCost_[x]) == bitsOf(edgeCost_[y]) &&
           bitsOf(edgePropS_[x]) == bitsOf(edgePropS_[y]) &&
           bitsOf(edgeQueueS_[x]) == bitsOf(edgeQueueS_[y]) &&
           bitsOf(edgeCapBps_[x]) == bitsOf(edgeCapBps_[y]);
  };
  std::size_t listed = 0;
  const auto checkLink = [&](LinkId lid, const LinkEdgeRange& r) {
    if (r.count > 2) fail("a link lists more than two edges");
    for (const std::uint32_t e : r) {
      if (e >= m || edgeLinkId_[e] != lid) fail("edgesOfLink names a foreign edge");
    }
    if (r.count == 2) {
      const std::uint32_t x = r.e[0];
      const std::uint32_t y = r.e[1];
      if (edgeFrom_[x] != edgeTo_[y] || edgeTo_[x] != edgeFrom_[y]) {
        fail("a link's two edges are not reverses");
      }
      if (!sameBits(x, y)) fail("a link's two edges differ in payload");
    }
    listed += r.count;
  };
  for (std::size_t lid = 0; lid < linkEdges_.size(); ++lid) {
    checkLink(LinkId{static_cast<LinkId::rep_type>(lid)}, linkEdges_[lid]);
  }
  // det-waiver: order-independent checks and a count only
  for (const auto& [lid, r] : sparseLinkEdges_) checkLink(lid, r);
  if (listed != m) fail("an edge is not listed by its link");
}

CompactGraph compileGraph(const NetworkGraph& g, const CompactGraph::CostFn& cost,
                          ProviderId home) {
  CompactGraph out;
  const std::vector<NodeId>& order = g.nodes();
  const std::size_t n = order.size();
  std::vector<NodeKind> kinds;
  kinds.reserve(n);
  for (const NodeId id : order) kinds.push_back(g.node(id).kind);
  out.nodes_ = CompactGraph::makeNodeTable(order, std::move(kinds));

  out.rowOffset_.reserve(n + 1);
  out.rowOffset_.push_back(0);
  const std::size_t edgeGuess = 2 * g.linkCount();
  out.edgeTo_.reserve(edgeGuess);
  out.edgeFrom_.reserve(edgeGuess);
  out.edgeCost_.reserve(edgeGuess);
  out.edgePropS_.reserve(edgeGuess);
  out.edgeQueueS_.reserve(edgeGuess);
  out.edgeCapBps_.reserve(edgeGuess);
  out.edgeLinkId_.reserve(edgeGuess);

  // Same density heuristic as node ids: builder link ids are 1..L, so the
  // direct-mapped table covers them all and the sparse map stays empty.
  std::uint64_t maxLinkIdValue = 0;
  for (const LinkId lid : g.links()) {
    maxLinkIdValue = std::max<std::uint64_t>(maxLinkIdValue, lid.value());
  }
  const bool denseLinks = maxLinkIdValue <= 4 * g.linkCount() + 1024;
  if (denseLinks) out.linkEdges_.resize(maxLinkIdValue + 1);

  const auto noteLinkEdge = [&](LinkId lid, std::uint32_t e) {
    if (denseLinks) {
      CompactGraph::LinkEdgeRange& r = out.linkEdges_[lid.value()];
      OPENSPACE_ASSERT(r.count < 2, "an undirected link compiles to <= 2 edges");
      r.e[r.count++] = e;
    } else {
      CompactGraph::LinkEdgeRange& r = out.sparseLinkEdges_[lid];
      OPENSPACE_ASSERT(r.count < 2, "an undirected link compiles to <= 2 edges");
      r.e[r.count++] = e;
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const NodeId u = order[i];
    for (const LinkId lid : g.linksOf(u)) {
      const Link& l = g.link(lid);
      const double c = cost(g, l, home);
      if (std::isnan(c) || c < 0.0) {
        throw InvalidArgumentError("compileGraph: negative or NaN link cost");
      }
      if (std::isinf(c)) continue;  // forbidden edge: dropped at compile time
      const NodeId v = l.otherEnd(u);
      const auto itV = out.nodes_->nodeToDense.find(v);
      OPENSPACE_ASSERT(itV != out.nodes_->nodeToDense.end(),
                       "every link endpoint is a graph node");
      const auto e = static_cast<std::uint32_t>(out.edgeTo_.size());
      out.edgeTo_.push_back(itV->second);
      out.edgeFrom_.push_back(static_cast<std::uint32_t>(i));
      out.edgeCost_.push_back(c);
      out.edgePropS_.push_back(l.propagationDelayS);
      out.edgeQueueS_.push_back(l.queueingDelayS);
      out.edgeCapBps_.push_back(l.capacityBps);
      out.edgeLinkId_.push_back(lid);
      noteLinkEdge(lid, e);
    }
    out.rowOffset_.push_back(static_cast<std::uint32_t>(out.edgeTo_.size()));
  }
  return out;
}

}  // namespace openspace
