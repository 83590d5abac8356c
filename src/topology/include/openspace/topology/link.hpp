// Typed links between OpenSpace nodes.
#pragma once

#include <cstdint>
#include <functional>

#include <openspace/core/ids.hpp>
#include <openspace/phy/bands.hpp>
#include <openspace/topology/node.hpp>

namespace openspace {

/// Kinds of links in the OpenSpace topology (paper §2: ground-to-satellite,
/// satellite-to-satellite, satellite-to-ground).
enum class LinkType {
  IslRf,     ///< Inter-satellite RF link (the interoperability minimum).
  IslLaser,  ///< Inter-satellite optical link (optional upgrade).
  Gsl,       ///< Satellite <-> ground station (gateway) link.
  UserLink,  ///< Satellite <-> user terminal link.
};

/// An undirected link in a topology snapshot. Distance/latency/capacity are
/// snapshot-time values; ownership & tariff feed the routing cost model.
struct Link {
  LinkId id{};
  NodeId a{};
  NodeId b{};
  LinkType type = LinkType::IslRf;
  Band band = Band::S;
  double distanceM = 0.0;
  double propagationDelayS = 0.0;
  double capacityBps = 0.0;
  /// Queueing/processing delay currently observed on this link (congestion
  /// state; §2.2 notes it cannot be predicted from ephemeris alone).
  double queueingDelayS = 0.0;
  /// Per-byte transit tariff (set by whoever owns the carrying asset; §3).
  double tariffUsdPerGb = 0.0;

  /// Total one-way latency contribution of this link.
  double totalDelayS() const noexcept { return propagationDelayS + queueingDelayS; }

  /// The endpoint that is not `from`. Throws InvalidArgumentError if `from`
  /// is not an endpoint.
  NodeId otherEnd(NodeId from) const;
};

/// The one cost model type: (link, node link.a, node link.b, home) -> cost,
/// evaluated once per link by both graph producers (RouteEngine over a
/// NetworkGraph, IncrementalTopology per step). Return +inf to forbid the
/// link; NaN or a negative cost is an InvalidArgumentError at assembly.
using LinkCostFn =
    std::function<double(const Link&, const Node&, const Node&, ProviderId)>;

/// Pure-latency cost, l.totalDelayS() (the paper's §4 "use this path
/// length to estimate latency" evaluation model).
LinkCostFn latencyCost();

}  // namespace openspace
