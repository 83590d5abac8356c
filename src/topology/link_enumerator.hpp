// Which links a topology snapshot has, and in which order.
//
// The one enumeration behind both TopologyBuilder::snapshot() (which adds
// each Link to a NetworkGraph, in order) and IncrementalTopology (which
// prices the Links and assembles them straight into a CompactGraph). Not a
// public header: the link set is a pure function of (ephemeris,
// capabilities, sites, options, t), and only this file decides it. The
// test-only spec legacy::topologySnapshot (openspace_spec) is the
// reference it is pinned against; DESIGN.md §13 argues the equivalence.
// Beside each Link it emits a link key, the candidate the link came from,
// which IncrementalTopology merges to count added and removed links.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include <openspace/geo/geodetic.hpp>
#include <openspace/topology/builder.hpp>

namespace openspace {

class ConstellationSnapshot;

class LinkEnumerator {
 public:
  /// Precomputes the per-builder constants. Throws InvalidArgumentError for
  /// a NaN maxIslRangeM or minElevationRad, a negative nearestK, and
  /// PlusGrid options without planes dividing the fleet or that wire a
  /// satellite to itself. The builder must outlive the enumerator.
  LinkEnumerator(const TopologyBuilder& builder, const SnapshotOptions& opt);

  /// Replace `out` with the links of `snap`, in snapshot() order: out[p]
  /// has LinkId p+1, `a` is a satellite, `b` the neighbor satellite or
  /// ground site, and queueing delay and tariff are 0. `keys[p]` is out[p]'s
  /// link key: a pure function of which candidate the link is, the same
  /// at every time the candidate is accepted, and distinct for distinct
  /// links of one enumeration:
  ///   PlusGrid          the attempt index (position in the attempt list);
  ///   NearestNeighbors, the ordered satellite-index pair i << 32 | j;
  ///   AllInRange
  ///   ground links      1 << 63 | site << 32 | satellite index, the site
  ///                     counted over stations, then users; the tag sorts
  ///                     them after every ISL key.
  void enumerate(const ConstellationSnapshot& snap, std::vector<Link>& out,
                 std::vector<std::uint64_t>& keys);

  /// True when enumerate() emits its keys in ascending order (PlusGrid:
  /// attempts and sites are tried in key order). The other wirings emit
  /// ISLs per satellite in distance or adjacency order.
  bool keysAscending() const noexcept {
    return opt_.wiring == IslWiring::PlusGrid;
  }

 private:
  struct Site {
    NodeId node;
    GroundObserver observer;
  };

  void tryIsl(const std::vector<Vec3>& satEci, std::size_t i, std::size_t j,
              std::uint64_t key, std::vector<Link>& out,
              std::vector<std::uint64_t>& keys);
  void groundLinks(const ConstellationSnapshot& snap,
                   const std::vector<Site>& sites, std::uint64_t firstSite,
                   LinkType type, std::vector<Link>& out,
                   std::vector<std::uint64_t>& keys) const;

  const TopologyBuilder& builder_;
  SnapshotOptions opt_;
  ElevationMask mask_;  ///< opt_.minElevationRad, compiled.
  std::vector<SatelliteId> satIds_;
  std::vector<NodeId> satNode_;
  std::vector<Site> stations_;  ///< Empty unless includeGroundStations.
  std::vector<Site> users_;     ///< Empty unless includeUserLinks.
  /// PlusGrid candidate pairs in attempt order, duplicates preserved.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> plusGridPairs_;

  /// Laser flags, refreshed when builder_.capabilitiesVersion() moves (~0
  /// forces the first enumerate() to read them).
  std::vector<char> satLaser_;
  std::uint64_t satLaserVersion_ = ~std::uint64_t{0};

  // Per-enumeration scratch.
  std::vector<std::vector<std::uint32_t>> acceptedIsl_;  ///< findLink replay.
  std::vector<std::pair<double, std::size_t>> nnCand_;
};

}  // namespace openspace
