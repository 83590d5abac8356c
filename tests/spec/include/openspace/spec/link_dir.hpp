// Typed link directions (test-only; openspace_spec).
//
// A topology Link is undirected; every transmitter, queue and utilization
// counter lives on one *direction* of it. Those used to be addressed by a
// raw `bool fromA` flag plus a hand-rolled `link id * 2 + dir` map key at
// every call site — exactly the kind of convention that silently flips when
// one caller disagrees about what `true` means. LinkDir and DirectedLinkId
// make the direction a type: the a->b and b->a transmitters are distinct,
// hashable identities, and the only way to get one from a node is to say
// which node you are leaving. The ForwardingEngine spec keys its
// transmitters by DirectedLinkId; FlowSimulator addresses the same
// directions by CompactGraph edge index.
#pragma once

#include <cstdint>
#include <functional>

#include <openspace/geo/error.hpp>
#include <openspace/topology/link.hpp>

namespace openspace {

/// One direction of an undirected link: from endpoint `a` toward `b`, or
/// the reverse.
enum class LinkDir : std::uint8_t {
  AtoB = 0,
  BtoA = 1,
};

/// The opposite direction.
[[nodiscard]] constexpr LinkDir reverse(LinkDir d) noexcept {
  return d == LinkDir::AtoB ? LinkDir::BtoA : LinkDir::AtoB;
}

/// One direction of one link: the identity of a transmitter.
struct DirectedLinkId {
  LinkId link{};
  LinkDir dir = LinkDir::AtoB;

  /// Dense packing (link id * 2 + dir) for flat maps and arrays; the typed
  /// replacement for the raw key arithmetic callers used to open-code.
  [[nodiscard]] constexpr std::uint64_t key() const noexcept {
    return static_cast<std::uint64_t>(link.value()) * 2 +
           static_cast<std::uint64_t>(dir);
  }

  [[nodiscard]] constexpr DirectedLinkId reversed() const noexcept {
    return DirectedLinkId{link, reverse(dir)};
  }

  friend constexpr bool operator==(DirectedLinkId, DirectedLinkId) noexcept =
      default;
};

/// Direction in which `link` is traversed when leaving node `from`. Throws
/// InvalidArgumentError if `from` is not an endpoint of the link.
[[nodiscard]] inline LinkDir directionFrom(const Link& link, NodeId from) {
  if (link.a == from) return LinkDir::AtoB;
  if (link.b == from) return LinkDir::BtoA;
  throw InvalidArgumentError("directionFrom: node is not an endpoint of link");
}

/// The transmitter `from` uses when sending over `link`.
[[nodiscard]] inline DirectedLinkId directedFrom(const Link& link, NodeId from) {
  return DirectedLinkId{link.id, directionFrom(link, from)};
}

}  // namespace openspace

template <>
struct std::hash<openspace::DirectedLinkId> {
  std::size_t operator()(openspace::DirectedLinkId id) const noexcept {
    return std::hash<std::uint64_t>{}(id.key());
  }
};
