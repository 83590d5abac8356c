#include <openspace/spec/forwarding.hpp>

#include <openspace/geo/error.hpp>

namespace openspace {

ForwardingEngine::ForwardingEngine(const NetworkGraph& graph, EventQueue& events,
                                   QueueConfig cfg)
    : graph_(graph), events_(events), cfg_(cfg) {
  if (cfg_.maxQueueBits <= 0.0) {
    throw InvalidArgumentError("ForwardingEngine: queue limit must be > 0");
  }
}

void ForwardingEngine::onComplete(std::function<void(const DeliveryRecord&)> cb) {
  onComplete_ = std::move(cb);
}

ForwardingEngine::Tx& ForwardingEngine::txFor(DirectedLinkId id) {
  return tx_[id];
}

double ForwardingEngine::bitsCarried(LinkId id) const {
  const auto it = carriedBits_.find(id);
  return it == carriedBits_.end() ? 0.0 : it->second;
}

double ForwardingEngine::backlogBits(DirectedLinkId id) const {
  const auto it = tx_.find(id);
  return it == tx_.end() ? 0.0 : it->second.backlogBits;
}

void ForwardingEngine::send(const Packet& pkt, const Route& route) {
  if (!route.valid()) {
    finish(InFlight{pkt, route, 0}, false, DropReason::NoRoute);
    return;
  }
  if (route.nodes.front() != pkt.src || route.nodes.back() != pkt.dst) {
    throw InvalidArgumentError(
        "ForwardingEngine::send: route endpoints do not match packet");
  }
  if (pkt.sizeBits <= 0.0) {
    throw InvalidArgumentError("ForwardingEngine::send: packet size must be > 0");
  }
  arriveAtNode(InFlight{pkt, route, 0}, pkt.src);
}

void ForwardingEngine::arriveAtNode(InFlight f, NodeId node) {
  if (node == f.pkt.dst) {
    finish(f, true, DropReason::None);
    return;
  }
  if (f.hop >= f.route.links.size()) {
    finish(f, false, DropReason::NoRoute);  // route exhausted short of dst
    return;
  }
  const LinkId lid = f.route.links[f.hop];
  const Link& link = graph_.link(lid);
  if (link.a != node && link.b != node) {
    throw StateError("ForwardingEngine: route link not incident to node");
  }
  const DirectedLinkId did = directedFrom(link, node);
  Tx& tx = txFor(did);
  const double now = events_.now();

  // Drain the modeled backlog to what will still be queued at `now`.
  if (tx.busyUntilS <= now) {
    tx.backlogBits = 0.0;
  }
  if (tx.backlogBits + f.pkt.sizeBits > cfg_.maxQueueBits) {
    finish(f, false, DropReason::QueueOverflow);
    return;
  }

  const double start = std::max(now, tx.busyUntilS);
  const double txTime = f.pkt.sizeBits / link.capacityBps;
  tx.busyUntilS = start + txTime;
  tx.backlogBits += f.pkt.sizeBits;
  carriedBits_[lid] += f.pkt.sizeBits;

  // Backlog drains when serialization finishes; arrival happens one
  // propagation delay later.
  const double txDone = tx.busyUntilS;
  const double arrival = txDone + link.propagationDelayS;
  const NodeId next = link.otherEnd(node);
  const double sizeBits = f.pkt.sizeBits;
  events_.schedule(txDone, [this, did, sizeBits]() {
    Tx& t = txFor(did);
    t.backlogBits = std::max(0.0, t.backlogBits - sizeBits);
  });
  f.hop += 1;
  events_.schedule(arrival, [this, f = std::move(f), next]() mutable {
    arriveAtNode(std::move(f), next);
  });
}

void ForwardingEngine::finish(const InFlight& f, bool deliveredOk,
                              DropReason reason) {
  DeliveryRecord rec;
  rec.packet = f.pkt;
  rec.delivered = deliveredOk;
  rec.drop = reason;
  rec.hops = static_cast<int>(f.hop);
  if (deliveredOk) {
    rec.deliveredAtS = events_.now();
    rec.latencyS = rec.deliveredAtS - f.pkt.createdAtS;
    stats_.add(rec.latencyS);
    ++delivered_;
  } else {
    stats_.addLoss();
    ++dropped_;
  }
  if (onComplete_) onComplete_(rec);
}

}  // namespace openspace
