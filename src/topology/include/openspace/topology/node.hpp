// Network nodes: satellites, ground stations, and ground users.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include <openspace/core/ids.hpp>
#include <openspace/geo/geodetic.hpp>
#include <openspace/orbit/ephemeris.hpp>

namespace openspace {

/// Kinds of OpenSpace network participants.
enum class NodeKind { Satellite, GroundStation, User };

/// A network node. Satellites carry their ephemeris id (position comes from
/// the shared EphemerisService); ground assets carry a fixed geodetic
/// location.
struct Node {
  NodeId id{};
  NodeKind kind = NodeKind::Satellite;
  ProviderId provider{};
  std::string name;
  /// Set iff kind == Satellite.
  std::optional<SatelliteId> satellite;
  /// Set iff kind != Satellite.
  std::optional<Geodetic> location;

  bool isSatellite() const noexcept { return kind == NodeKind::Satellite; }
  bool isGroundStation() const noexcept { return kind == NodeKind::GroundStation; }
  bool isUser() const noexcept { return kind == NodeKind::User; }
};

}  // namespace openspace
