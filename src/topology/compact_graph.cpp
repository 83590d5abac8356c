#include <openspace/topology/compact_graph.hpp>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include <openspace/core/assert.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/geo/error.hpp>

namespace openspace {

CompactGraph::NodeTable::NodeTable(std::vector<NodeId> order,
                                   std::vector<NodeKind> kinds)
    : denseToNode_(std::move(order)), nodeKind_(std::move(kinds)) {
  const std::size_t n = denseToNode_.size();
  OPENSPACE_ASSERT(n < kInvalidIndex, "dense node indices fit in 32 bits");
  OPENSPACE_ASSERT(nodeKind_.size() == n, "one kind per node");
  std::uint32_t maxIdValue = 0;
  for (const NodeId id : denseToNode_) maxIdValue = std::max(maxIdValue, id.value());
  // Builder-assigned ids are dense (1..N), so a direct-mapped table makes
  // indexOf a single load. Pathological sparse id spaces, where it would
  // waste memory, get the hash map instead.
  if (n > 0 && maxIdValue <= 4 * n + 1024) {
    idToDense_.assign(maxIdValue + 1, kInvalidIndex);
    for (std::size_t i = 0; i < n; ++i) {
      idToDense_[denseToNode_[i].value()] = static_cast<std::uint32_t>(i);
    }
  } else {
    nodeToDense_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      nodeToDense_.emplace(denseToNode_[i], static_cast<std::uint32_t>(i));
    }
  }
}

CompactGraph::CompactGraph(std::shared_ptr<const NodeTable> nodes, Csr csr)
    : nodes_(std::move(nodes)), csr_(std::move(csr)) {
  OPENSPACE_ASSERT(nodes_ != nullptr, "a graph always has a node table");
}

std::uint64_t CompactGraph::contentChecksum() const noexcept {
  std::uint64_t h = kFnvOffsetBasis;
  h = fnv1a(h, nodes_->size());
  for (const NodeId id : nodes_->nodes()) h = fnv1a(h, id.value());
  for (const NodeKind k : nodes_->kinds()) {
    h = fnv1a(h, static_cast<std::uint64_t>(k));
  }
  for (const std::uint32_t o : csr_.rowOffset) h = fnv1a(h, o);
  h = fnv1a(h, csr_.edgeTo.size());
  for (std::size_t e = 0; e < csr_.edgeTo.size(); ++e) {
    h = fnv1a(h, csr_.edgeTo[e]);
    h = fnv1a(h, csr_.edgeFrom[e]);
    h = fnv1a(h, bitsOf(csr_.edgeCost[e]));
    h = fnv1a(h, bitsOf(csr_.edgePropS[e]));
    h = fnv1a(h, bitsOf(csr_.edgeQueueS[e]));
    h = fnv1a(h, bitsOf(csr_.edgeCapBps[e]));
    h = fnv1a(h, csr_.edgeLinkId[e].value());
  }
  // The link->edges map, in link-id order.
  for (std::size_t lid = 0; lid < csr_.linkEdges.size(); ++lid) {
    const LinkEdgeRange& r = csr_.linkEdges[lid];
    if (r.count == 0) continue;
    h = fnv1a(h, lid);
    for (const std::uint32_t e : r) h = fnv1a(h, e);
  }
  return h;
}

void CompactGraph::audit() const {
  const auto fail = [](const char* what) {
    throw StateError(std::string("CompactGraph::audit: ") + what);
  };
  const std::size_t n = nodeCount();
  const std::size_t m = edgeCount();
  const std::vector<std::uint32_t>& row = csr_.rowOffset;
  const bool empty = n == 0 && m == 0 && row.empty();  // default-built
  if (!empty && (row.size() != n + 1 || row.front() != 0 || row.back() != m)) {
    fail("rowOffset does not span the edges");
  }
  if (csr_.edgeFrom.size() != m || csr_.edgeCost.size() != m ||
      csr_.edgePropS.size() != m || csr_.edgeQueueS.size() != m ||
      csr_.edgeCapBps.size() != m || csr_.edgeLinkId.size() != m) {
    fail("edge arrays differ in length");
  }
  for (std::uint32_t u = 0; u < n; ++u) {
    if (row[u] > row[u + 1] || row[u + 1] > m) fail("rowOffset is not monotone");
    for (std::uint32_t e = row[u]; e < row[u + 1]; ++e) {
      if (csr_.edgeFrom[e] != u) fail("edgeFrom is not the edge's row");
      if (csr_.edgeTo[e] >= n) fail("edgeTo out of range");
    }
  }
  const auto sameBits = [&](std::uint32_t x, std::uint32_t y) {
    return bitsOf(csr_.edgeCost[x]) == bitsOf(csr_.edgeCost[y]) &&
           bitsOf(csr_.edgePropS[x]) == bitsOf(csr_.edgePropS[y]) &&
           bitsOf(csr_.edgeQueueS[x]) == bitsOf(csr_.edgeQueueS[y]) &&
           bitsOf(csr_.edgeCapBps[x]) == bitsOf(csr_.edgeCapBps[y]);
  };
  std::size_t listed = 0;
  for (std::size_t lid = 0; lid < csr_.linkEdges.size(); ++lid) {
    const LinkEdgeRange& r = csr_.linkEdges[lid];
    if (r.count > 2) fail("a link lists more than two edges");
    for (const std::uint32_t e : r) {
      if (e >= m || csr_.edgeLinkId[e].value() != lid) {
        fail("edgesOfLink names a foreign edge");
      }
    }
    if (r.count == 2) {
      const std::uint32_t x = r.e[0];
      const std::uint32_t y = r.e[1];
      if (csr_.edgeFrom[x] != csr_.edgeTo[y] || csr_.edgeTo[x] != csr_.edgeFrom[y]) {
        fail("a link's two edges are not reverses");
      }
      if (!sameBits(x, y)) fail("a link's two edges differ in payload");
    }
    listed += r.count;
  }
  if (listed != m) fail("an edge is not listed by its link");
  double minPositive = std::numeric_limits<double>::infinity();
  double maxCost = 0.0;
  for (const double c : csr_.edgeCost) {
    if (c > 0.0) minPositive = std::min(minPositive, c);
    maxCost = std::max(maxCost, c);
  }
  if (bitsOf(minPositive) != bitsOf(csr_.minPositiveCost) ||
      bitsOf(maxCost) != bitsOf(csr_.maxCost)) {
    fail("the cost range is not that of the edges");
  }
}

CompactGraph assembleGraph(std::shared_ptr<const CompactGraph::NodeTable> nodes,
                           const std::vector<Link>& links,
                           const std::vector<double>& costs) {
  OPENSPACE_ASSERT(costs.size() == links.size(), "one cost per link");
  const CompactGraph::NodeTable& table = *nodes;
  const std::size_t n = table.size();
  const auto denseOf = [&](NodeId id) {
    const std::uint32_t u = table.indexOf(id);
    OPENSPACE_ASSERT(u != CompactGraph::kInvalidIndex,
                     "every link endpoint is a table node");
    return u;
  };

  // Counting-sort CSR build: count each row's edges, then place the links
  // in LinkId order, so each row lists its links in LinkId order.
  CompactGraph::Csr csr;
  csr.rowOffset.assign(n + 1, 0);
  std::size_t edgeCount = 0;
  for (std::size_t p = 0; p < links.size(); ++p) {
    OPENSPACE_ASSERT(links[p].id == LinkId{static_cast<LinkId::rep_type>(p + 1)},
                     "links arrive in dense LinkId order");
    if (std::isnan(costs[p]) || costs[p] < 0.0) {
      throw InvalidArgumentError("assembleGraph: negative or NaN link cost");
    }
    if (std::isinf(costs[p])) continue;  // forbidden: dropped at assembly
    if (costs[p] > 0.0) {
      csr.minPositiveCost = std::min(csr.minPositiveCost, costs[p]);
    }
    csr.maxCost = std::max(csr.maxCost, costs[p]);
    ++csr.rowOffset[denseOf(links[p].a) + 1];
    ++csr.rowOffset[denseOf(links[p].b) + 1];
    edgeCount += 2;
  }
  for (std::size_t u = 0; u < n; ++u) csr.rowOffset[u + 1] += csr.rowOffset[u];
  csr.edgeTo.resize(edgeCount);
  csr.edgeFrom.resize(edgeCount);
  csr.edgeCost.resize(edgeCount);
  csr.edgePropS.resize(edgeCount);
  csr.edgeQueueS.resize(edgeCount);
  csr.edgeCapBps.resize(edgeCount);
  csr.edgeLinkId.resize(edgeCount);
  csr.linkEdges.resize(links.size() + 1);

  std::vector<std::uint32_t> fill(csr.rowOffset.begin(), csr.rowOffset.end() - 1);
  for (std::size_t p = 0; p < links.size(); ++p) {
    const Link& l = links[p];
    const double cost = costs[p];
    if (std::isinf(cost)) continue;
    const std::uint32_t ua = denseOf(l.a);
    const std::uint32_t ub = denseOf(l.b);
    const std::uint32_t ea = fill[ua]++;
    const std::uint32_t eb = fill[ub]++;
    const auto place = [&](std::uint32_t e, std::uint32_t from, std::uint32_t to) {
      csr.edgeTo[e] = to;
      csr.edgeFrom[e] = from;
      csr.edgeCost[e] = cost;
      csr.edgePropS[e] = l.propagationDelayS;
      csr.edgeQueueS[e] = l.queueingDelayS;
      csr.edgeCapBps[e] = l.capacityBps;
      csr.edgeLinkId[e] = l.id;
    };
    place(ea, ua, ub);
    place(eb, ub, ua);
    CompactGraph::LinkEdgeRange& r = csr.linkEdges[p + 1];
    r.count = 2;
    r.e[0] = std::min(ea, eb);
    r.e[1] = std::max(ea, eb);
  }
  CompactGraph g(std::move(nodes), std::move(csr));
#ifndef NDEBUG
  g.audit();
#endif
  return g;
}

}  // namespace openspace
