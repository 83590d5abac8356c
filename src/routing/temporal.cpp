#include <openspace/routing/temporal.hpp>

#include <limits>

#include <openspace/core/scratch.hpp>
#include <openspace/geo/error.hpp>

namespace openspace {

ContactGraphRouter::ContactGraphRouter(const TopologyBuilder& builder,
                                       const SnapshotOptions& opt, double t0S,
                                       double horizonS, double stepS) {
  if (stepS <= 0.0 || horizonS <= 0.0) {
    throw InvalidArgumentError("ContactGraphRouter: step/horizon must be > 0");
  }
  IncrementalTopology inc(builder, opt, latencyCost());
  for (double t = t0S; t < t0S + horizonS; t += stepS) {
    inc.step(t);
    snaps_.push_back({t, std::min(t + stepS, t0S + horizonS), inc.graph()});
  }
  gridEndS_ = t0S + horizonS;
}

TemporalRoute ContactGraphRouter::earliestArrival(NodeId src, NodeId dst,
                                                  double tStartS) const {
  if (snaps_.empty()) throw StateError("ContactGraphRouter: no snapshots");
  const CompactGraph& first = *snaps_.front().csr;
  const std::uint32_t srcIdx = first.indexOf(src);
  const std::uint32_t dstIdx = first.indexOf(dst);
  if (srcIdx == CompactGraph::kInvalidIndex ||
      dstIdx == CompactGraph::kInvalidIndex) {
    throw NotFoundError("earliestArrival: unknown node");
  }

  TemporalRoute out;
  out.departureS = tStartS;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = first.nodeCount();
  // Labels persist across intervals: stored messages wait on their node
  // until a later contact opens.
  std::vector<double> arrival(n, kInf);
  std::vector<double> inFlight(n, 0.0);
  std::vector<int> hops(n, 0);
  arrival[srcIdx] = tStartS;

  AddressableHeap pq;
  pq.reserve(n);
  int intervals = 0;
  for (const Interval& iv : snaps_) {
    if (iv.endS < tStartS) continue;  // before the message exists
    ++intervals;
    const CompactGraph& csr = *iv.csr;

    // Multi-source Dijkstra within this interval: a node participates once
    // its stored message is present (arrival <= iv.endS); transmission can
    // start no earlier than max(arrival, iv.startS).
    pq.clear();
    for (std::uint32_t u = 0; u < n; ++u) {
      if (arrival[u] <= iv.endS) pq.push(std::max(arrival[u], iv.startS), u);
    }
    // Keys never fall below the popped one (delays are non-negative), so a
    // node is pushed only on a strict improvement and every pop settles it.
    while (!pq.empty()) {
      const auto [t, u] = pq.pop();
      if (t > iv.endS) continue;
      for (std::uint32_t e = csr.rowBegin(u); e < csr.rowEnd(u); ++e) {
        const std::uint32_t v = csr.edgeTarget(e);
        const double delayS = csr.edgeCost(e);
        const double arrive = t + delayS;
        if (arrive > iv.endS) continue;  // contact closes mid-flight
        if (arrive < arrival[v]) {
          arrival[v] = arrive;
          inFlight[v] = inFlight[u] + delayS;
          hops[v] = hops[u] + 1;
          pq.push(arrive, v);  // insert, or lower v's key in place
        }
      }
    }
#ifndef NDEBUG
    pq.audit();
#endif

    if (arrival[dstIdx] <= iv.endS) {
      out.reachable = true;
      out.arrivalS = arrival[dstIdx];
      out.inFlightS = inFlight[dstIdx];
      out.waitingS = out.totalDelayS() - out.inFlightS;
      out.hops = hops[dstIdx];
      out.intervalsUsed = intervals;
      return out;
    }
  }
  return out;  // not reachable within the horizon
}

}  // namespace openspace
