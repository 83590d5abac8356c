// Path-vector inter-provider routing (the §3 BGP comparison, executable).
//
// The paper: "The closest example of a heterogeneous distributed
// connectivity model that we can draw from is BGP ... However, applying
// its architecture to OpenSpace is not straightforward, mainly because
// there is a less clear-cut separation between subsystems. ... the notion
// of a 'customer' and a 'provider' in BGP is not translatable to a meshed
// system like OpenSpace."
//
// This module makes that claim testable: a provider-level path-vector
// protocol with two policy modes —
//  * GaoRexford: classic BGP economics (customer routes exported to
//    everyone; peer/provider routes only to customers; route preference
//    customer > peer > provider),
//  * OpenMesh: the OpenSpace model (export everything, prefer shortest
//    provider path) with settlement handled by the §3 ledgers instead of
//    export policy.
// Benchmarks compare reachability and path quality under both.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include <openspace/orbit/ephemeris.hpp>

namespace openspace {

/// Business relationship toward a neighbor, from this provider's view.
enum class Relationship {
  Customer,  ///< They pay us.
  Peer,      ///< Settlement-free exchange.
  Provider,  ///< We pay them.
  Mesh,      ///< OpenSpace: no hierarchy, ledger settlement per byte.
};

/// A route advertisement for one destination provider.
struct PathAdvertisement {
  ProviderId destination{};
  /// Provider-level path, destination last; self is prepended on export.
  std::vector<ProviderId> path;

  int pathLength() const noexcept { return static_cast<int>(path.size()); }
  bool containsLoop(ProviderId self) const;
};

/// One provider's path-vector control plane.
class PathVectorNode {
 public:
  explicit PathVectorNode(ProviderId self);

  /// Declare a neighbor and the relationship toward it. Re-declaring
  /// overwrites. Throws InvalidArgumentError for self-neighboring.
  void addNeighbor(ProviderId neighbor, Relationship rel);

  /// Process an advertisement received from `from`. Returns true if the
  /// RIB changed (triggering re-advertisement). Loop-containing paths are
  /// discarded. Throws NotFoundError for unknown neighbors.
  bool receive(ProviderId from, const PathAdvertisement& adv);

  /// Best known route to `destination` (nullopt if none). The self
  /// destination is implicit.
  std::optional<PathAdvertisement> bestRoute(ProviderId destination) const;

  /// Advertisements this node exports to `neighbor` under its policy:
  ///  * Mesh relationship: everything (plus self).
  ///  * Gao-Rexford: self + customer-learned routes to anyone;
  ///    peer/provider-learned routes only to customers.
  std::vector<PathAdvertisement> exportTo(ProviderId neighbor) const;

  ProviderId self() const noexcept { return self_; }
  const std::map<ProviderId, Relationship>& neighbors() const noexcept {
    return neighbors_;
  }

 private:
  struct RibEntry {
    PathAdvertisement adv;
    ProviderId learnedFrom{};
    Relationship learnedVia = Relationship::Mesh;
  };
  /// Preference: customer > peer > provider (Gao-Rexford econ), then
  /// shorter path; Mesh neighbors rank with peers.
  static int relRank(Relationship r) noexcept;
  bool better(const RibEntry& a, const RibEntry& b) const;

  ProviderId self_;
  std::map<ProviderId, Relationship> neighbors_;
  std::map<ProviderId, RibEntry> rib_;
};

/// Provider-level adjacency with relationship labels (symmetric pairs must
/// be added consistently by the caller: A customer-of B <=> B provider-of A).
struct ProviderLink {
  ProviderId a{};
  ProviderId b{};
  Relationship aToB = Relationship::Mesh;  ///< a's view of b.
  Relationship bToA = Relationship::Mesh;  ///< b's view of a.
};

/// Result of running the protocol to convergence.
struct ConvergenceReport {
  int rounds = 0;
  int messages = 0;
  bool converged = false;  ///< false = hit the round cap.
  /// reachablePairs / (n * (n-1)).
  double reachability = 0.0;
  double meanPathHops = 0.0;  ///< Over reachable pairs.
};

/// Build nodes from links, run synchronous advertisement rounds until no
/// RIB changes (or `maxRounds`), and report. Nodes are returned through
/// `outNodes` when non-null (for per-pair inspection).
ConvergenceReport runPathVector(const std::vector<ProviderId>& providers,
                                const std::vector<ProviderLink>& links,
                                int maxRounds = 100,
                                std::map<ProviderId, PathVectorNode>* outNodes =
                                    nullptr);

}  // namespace openspace
