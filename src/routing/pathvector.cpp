#include <openspace/routing/pathvector.hpp>

#include <algorithm>

#include <openspace/geo/error.hpp>

namespace openspace {

bool PathAdvertisement::containsLoop(ProviderId self) const {
  return std::find(path.begin(), path.end(), self) != path.end();
}

PathVectorNode::PathVectorNode(ProviderId self) : self_(self) {}

void PathVectorNode::addNeighbor(ProviderId neighbor, Relationship rel) {
  if (neighbor == self_) {
    throw InvalidArgumentError("PathVectorNode: cannot neighbor self");
  }
  neighbors_[neighbor] = rel;
}

int PathVectorNode::relRank(Relationship r) noexcept {
  switch (r) {
    case Relationship::Customer: return 0;  // most preferred (they pay us)
    case Relationship::Peer: return 1;
    case Relationship::Mesh: return 1;  // mesh ranks with peers
    case Relationship::Provider: return 2;
  }
  return 3;
}

bool PathVectorNode::better(const RibEntry& a, const RibEntry& b) const {
  const int ra = relRank(a.learnedVia);
  const int rb = relRank(b.learnedVia);
  if (ra != rb) return ra < rb;
  if (a.adv.pathLength() != b.adv.pathLength()) {
    return a.adv.pathLength() < b.adv.pathLength();
  }
  return a.learnedFrom < b.learnedFrom;  // deterministic tie break
}

bool PathVectorNode::receive(ProviderId from, const PathAdvertisement& adv) {
  const auto nb = neighbors_.find(from);
  if (nb == neighbors_.end()) {
    throw NotFoundError("PathVectorNode::receive: unknown neighbor");
  }
  if (adv.destination == self_) return false;  // we are the destination
  if (adv.containsLoop(self_)) return false;   // path-vector loop prevention

  RibEntry candidate;
  candidate.adv = adv;
  candidate.learnedFrom = from;
  candidate.learnedVia = nb->second;

  const auto it = rib_.find(adv.destination);
  if (it == rib_.end() || better(candidate, it->second)) {
    rib_[adv.destination] = std::move(candidate);
    return true;
  }
  return false;
}

std::optional<PathAdvertisement> PathVectorNode::bestRoute(
    ProviderId destination) const {
  const auto it = rib_.find(destination);
  if (it == rib_.end()) return std::nullopt;
  return it->second.adv;
}

std::vector<PathAdvertisement> PathVectorNode::exportTo(
    ProviderId neighbor) const {
  const auto nb = neighbors_.find(neighbor);
  if (nb == neighbors_.end()) {
    throw NotFoundError("PathVectorNode::exportTo: unknown neighbor");
  }
  const Relationship toNeighbor = nb->second;

  std::vector<PathAdvertisement> out;
  // Always advertise self.
  PathAdvertisement selfAdv;
  selfAdv.destination = self_;
  selfAdv.path = {self_};
  out.push_back(std::move(selfAdv));

  for (const auto& [dst, entry] : rib_) {
    if (entry.learnedFrom == neighbor) continue;  // split horizon
    bool exportIt = false;
    if (toNeighbor == Relationship::Mesh) {
      // OpenSpace: everything flows; accounting handles compensation.
      exportIt = true;
    } else if (toNeighbor == Relationship::Customer) {
      // Customers receive everything (they pay for full reachability).
      exportIt = true;
    } else {
      // To peers and providers: only customer-learned routes (no free
      // transit) — the Gao-Rexford export rule.
      exportIt = (entry.learnedVia == Relationship::Customer);
    }
    if (!exportIt) continue;
    PathAdvertisement adv = entry.adv;
    adv.path.insert(adv.path.begin(), self_);
    out.push_back(std::move(adv));
  }
  return out;
}

ConvergenceReport runPathVector(const std::vector<ProviderId>& providers,
                                const std::vector<ProviderLink>& links,
                                int maxRounds,
                                std::map<ProviderId, PathVectorNode>* outNodes) {
  if (maxRounds < 1) {
    throw InvalidArgumentError("runPathVector: maxRounds must be >= 1");
  }
  std::map<ProviderId, PathVectorNode> nodes;
  for (const ProviderId p : providers) nodes.emplace(p, PathVectorNode(p));
  for (const ProviderLink& l : links) {
    const auto ia = nodes.find(l.a);
    const auto ib = nodes.find(l.b);
    if (ia == nodes.end() || ib == nodes.end()) {
      throw NotFoundError("runPathVector: link references unknown provider");
    }
    ia->second.addNeighbor(l.b, l.aToB);
    ib->second.addNeighbor(l.a, l.bToA);
  }

  ConvergenceReport rep;
  for (rep.rounds = 0; rep.rounds < maxRounds; ++rep.rounds) {
    bool changed = false;
    // Synchronous round: everyone exports against the previous RIBs.
    std::vector<std::tuple<ProviderId, ProviderId, PathAdvertisement>> inbox;
    for (const auto& [p, node] : nodes) {
      for (const auto& [nbr, rel] : node.neighbors()) {
        for (const auto& adv : node.exportTo(nbr)) {
          inbox.emplace_back(nbr, p, adv);
          ++rep.messages;
        }
      }
    }
    for (const auto& [to, from, adv] : inbox) {
      changed |= nodes.at(to).receive(from, adv);
    }
    if (!changed) {
      rep.converged = true;
      ++rep.rounds;
      break;
    }
  }

  // Reachability + path quality.
  const std::size_t n = providers.size();
  if (n > 1) {
    std::size_t reachable = 0;
    double pathSum = 0.0;
    for (const auto& [p, node] : nodes) {
      for (const ProviderId q : providers) {
        if (q == p) continue;
        const auto r = node.bestRoute(q);
        if (r) {
          ++reachable;
          pathSum += r->pathLength();
        }
      }
    }
    rep.reachability =
        static_cast<double>(reachable) / static_cast<double>(n * (n - 1));
    rep.meanPathHops = reachable ? pathSum / static_cast<double>(reachable) : 0.0;
  }
  if (outNodes) *outNodes = std::move(nodes);
  return rep;
}

}  // namespace openspace
