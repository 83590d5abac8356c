#include "link_enumerator.hpp"

#include <algorithm>
#include <cmath>

#include <openspace/core/assert.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/walker.hpp>

namespace openspace {

namespace {

/// losClearanceM sentinel that makes lineOfSightClear() unconditionally
/// true (block radius collapses to zero). The NearestNeighbors wiring
/// selects its k candidates by distance alone and only applies the
/// line-of-sight filter to the selected pairs — so its candidate adjacency
/// must be range-pruned but NOT LOS-pruned, or a blocked near neighbor
/// would be silently backfilled by a farther one the spec never considers.
constexpr double kNoLosClearanceM = -wgs84::kMeanRadiusM;

/// Position p of an enumeration is LinkId p+1.
LinkId nextId(const std::vector<Link>& out) {
  return LinkId{static_cast<LinkId::rep_type>(out.size() + 1)};
}

/// The key of an ISL between satellite indices i and j, in that order.
std::uint64_t pairKey(std::size_t i, std::size_t j) noexcept {
  return (static_cast<std::uint64_t>(i) << 32) | j;
}

/// Ground-link keys carry this tag, so they sort after every ISL key.
constexpr std::uint64_t kGroundKeyTag = std::uint64_t{1} << 63;

}  // namespace

LinkEnumerator::LinkEnumerator(const TopologyBuilder& builder,
                               const SnapshotOptions& opt)
    : builder_(builder),
      opt_(opt),
      mask_(ElevationMask::of(opt.minElevationRad)),
      satIds_(builder.ephemeris().satellites()) {
  if (std::isnan(opt_.maxIslRangeM) || std::isnan(opt_.minElevationRad)) {
    throw InvalidArgumentError(
        "snapshot: maxIslRangeM and minElevationRad must not be NaN");
  }
  if (opt_.nearestK < 0) {
    throw InvalidArgumentError("snapshot: nearestK must be >= 0");
  }
  const std::size_t s = satIds_.size();
  satNode_.reserve(s);
  for (const SatelliteId sid : satIds_) satNode_.push_back(builder_.nodeOf(sid));
  const auto compileSites = [](const std::vector<TopologyBuilder::SiteEntry>& in,
                               std::vector<Site>& out) {
    for (const auto& entry : in) {
      out.push_back({entry.node, GroundObserver(entry.site.location)});
    }
  };
  if (opt_.includeGroundStations) compileSites(builder_.stationSites(), stations_);
  if (opt_.includeUserLinks) compileSites(builder_.userSites(), users_);
  // 31-bit indices keep every ISL key below kGroundKeyTag and the two
  // fields of a key apart.
  OPENSPACE_ASSERT(s < (std::size_t{1} << 31) &&
                       stations_.size() + users_.size() < (std::size_t{1} << 31),
                   "satellite and site indices fit 31 bits");
  satLaser_.assign(s, 0);
  acceptedIsl_.resize(s);

  if (opt_.wiring == IslWiring::PlusGrid) {
    if (opt_.planes <= 0 || s == 0 ||
        s % static_cast<std::size_t>(opt_.planes) != 0) {
      throw InvalidArgumentError(
          "snapshot: PlusGrid wiring requires planes dividing the fleet");
    }
    const PlaneGrid grid(s, opt_.planes);
    const auto addPair = [&](std::size_t i, std::size_t j) {
      if (i == j) {
        throw InvalidArgumentError(
            "snapshot: PlusGrid wiring wires a satellite to itself "
            "(degenerate plane/slot counts)");
      }
      plusGridPairs_.emplace_back(static_cast<std::uint32_t>(i),
                                  static_cast<std::uint32_t>(j));
    };
    for (std::size_t idx = 0; idx < s; ++idx) {
      const PlaneId plane = grid.planeOf(idx);
      const std::size_t slot = grid.slotOf(idx);
      // Intra-plane ring neighbor, then the same-slot neighbor in the next
      // plane (seam optional).
      addPair(idx, grid.indexOf(plane, slot + 1));
      if (!grid.isSeamPlane(plane) || opt_.interPlaneSeam) {
        addPair(idx, grid.indexOf(grid.nextPlane(plane), slot));
      }
    }
  }
}

// The range filter, the line-of-sight filter, the findLink() dedup (only
// an *accepted* link suppresses a later attempt at the same pair: a
// filtered attempt leaves the later one free to re-evaluate) and the
// capacity check, in the spec's order.
void LinkEnumerator::tryIsl(const std::vector<Vec3>& satEci, std::size_t i,
                            std::size_t j, std::uint64_t key,
                            std::vector<Link>& out,
                            std::vector<std::uint64_t>& keys) {
  const double dist = satEci[i].distanceTo(satEci[j]);
  if (dist > opt_.maxIslRangeM) return;
  if (!lineOfSightClear(satEci[i], satEci[j], km(80.0))) return;
  for (const std::uint32_t q : acceptedIsl_[i]) {
    if (q == j) return;
  }
  const bool laser = opt_.preferLaser && satLaser_[i] != 0 && satLaser_[j] != 0;
  const double cap = islCapacityBps(dist, laser);
  if (cap <= 0.0) return;
  acceptedIsl_[i].push_back(static_cast<std::uint32_t>(j));
  acceptedIsl_[j].push_back(static_cast<std::uint32_t>(i));
  out.push_back({nextId(out), satNode_[i], satNode_[j],
                 laser ? LinkType::IslLaser : LinkType::IslRf,
                 laser ? Band::Optical : Band::S, dist,
                 dist / kSpeedOfLightMps, cap});
  keys.push_back(key);
}

// Stations then users, in registration order, each scanning satellites in
// index order, so the keys ascend. The exact mask predicate rejects most
// satellites without an acos; only an accepted link pays for the elevation
// its capacity needs.
void LinkEnumerator::groundLinks(const ConstellationSnapshot& snap,
                                 const std::vector<Site>& sites,
                                 std::uint64_t firstSite, LinkType type,
                                 std::vector<Link>& out,
                                 std::vector<std::uint64_t>& keys) const {
  const std::vector<Vec3>& satEcef = snap.ecef();
  for (std::size_t k = 0; k < sites.size(); ++k) {
    const Site& site = sites[k];
    const std::uint64_t siteKey = kGroundKeyTag | ((firstSite + k) << 32);
    const Vec3& siteEcef = site.observer.ecef();
    for (std::size_t i = 0; i < satEcef.size(); ++i) {
      if (!site.observer.sees(satEcef[i], mask_)) continue;
      const double elev = site.observer.elevationTo(satEcef[i]);
      const double dist = siteEcef.distanceTo(satEcef[i]);
      const double cap = (type == LinkType::Gsl)
                             ? gslCapacityBps(dist, elev)
                             : userLinkCapacityBps(dist, elev);
      if (cap <= 0.0) continue;
      out.push_back({nextId(out), satNode_[i], site.node, type, Band::Ku,
                     dist, dist / kSpeedOfLightMps, cap});
      keys.push_back(siteKey | i);
    }
  }
}

void LinkEnumerator::enumerate(const ConstellationSnapshot& snap,
                               std::vector<Link>& out,
                               std::vector<std::uint64_t>& keys) {
  out.clear();
  keys.clear();
  const std::size_t s = satIds_.size();
  // Laser flags only move when someone calls setCapabilities(); keying the
  // refresh on the builder's version counter skips the per-satellite
  // capability lookups for a static-capability sweep.
  if (const std::uint64_t v = builder_.capabilitiesVersion();
      v != satLaserVersion_) {
    for (std::size_t i = 0; i < s; ++i) {
      satLaser_[i] =
          builder_.capabilities(satIds_[i]).hasLaserTerminal ? char{1} : char{0};
    }
    satLaserVersion_ = v;
  }
  for (auto& accepted : acceptedIsl_) accepted.clear();
  const std::vector<Vec3>& satEci = snap.eci();

  switch (opt_.wiring) {
    case IslWiring::PlusGrid:
      for (std::size_t p = 0; p < plusGridPairs_.size(); ++p) {
        const auto [i, j] = plusGridPairs_[p];
        tryIsl(satEci, i, j, p, out, keys);
      }
      break;
    case IslWiring::NearestNeighbors: {
      // The spec sorts every other satellite by (distance, index) and tries
      // the k nearest. Every in-range neighbor is strictly closer than
      // every out-of-range one, and out-of-range attempts are rejected, so
      // the min(k, in-range) smallest in-range pairs from the range-pruned
      // (never LOS-pruned) grid adjacency give the same accepted links in
      // the same order.
      const auto topo = snap.islTopology(opt_.maxIslRangeM, kNoLosClearanceM);
      const auto k = static_cast<std::size_t>(opt_.nearestK);
      for (std::size_t i = 0; i < s; ++i) {
        nnCand_.clear();
        for (const auto& [j, d] : topo->adjacency[i]) nnCand_.emplace_back(d, j);
        const std::size_t take = std::min(nnCand_.size(), k);
        std::partial_sort(nnCand_.begin(),
                          nnCand_.begin() + static_cast<std::ptrdiff_t>(take),
                          nnCand_.end());
        for (std::size_t q = 0; q < take; ++q) {
          const std::size_t j = nnCand_[q].second;
          tryIsl(satEci, i, j, pairKey(i, j), out, keys);
        }
      }
      break;
    }
    case IslWiring::AllInRange: {
      // Pairs (i, j > i) in index order from the snapshot's range- and
      // LOS-pruned adjacency.
      const auto topo = snap.islTopology(opt_.maxIslRangeM);
      for (std::size_t i = 0; i < s; ++i) {
        for (const auto& neighbor : topo->adjacency[i]) {
          const std::size_t j = neighbor.first;
          if (j > i) tryIsl(satEci, i, j, pairKey(i, j), out, keys);
        }
      }
      break;
    }
  }

  groundLinks(snap, stations_, 0, LinkType::Gsl, out, keys);
  groundLinks(snap, users_, stations_.size(), LinkType::UserLink, out, keys);
}

}  // namespace openspace
