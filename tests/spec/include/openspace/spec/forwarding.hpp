// Store-and-forward packet transport spec (test-only; openspace_spec).
//
// Each link direction has one transmitter: packets serialize at link
// capacity, wait in a byte-bounded drop-tail queue while the transmitter
// is busy, then incur the link's propagation delay. This yields real
// queueing under load — the congestion that §2.2 says proactive routing
// cannot anticipate.
//
// This is the toy-scale reference engine: FlowSimulator (sim/flow_sim.hpp)
// is the library's packet engine and is property-tested to reproduce this
// engine's delivery records bit for bit.
#pragma once

#include <functional>
#include <unordered_map>

#include <openspace/net/metrics.hpp>
#include <openspace/net/packet.hpp>
#include <openspace/spec/event.hpp>
#include <openspace/spec/link_dir.hpp>

namespace openspace {

/// Per-direction transmitter queue limits.
struct QueueConfig {
  double maxQueueBits = 8e6;  ///< ~1 MB buffer per link direction.
};

class ForwardingEngine {
 public:
  /// The graph and event queue must outlive the engine.
  ForwardingEngine(const NetworkGraph& graph, EventQueue& events,
                   QueueConfig cfg = {});

  /// Inject `pkt` at events.now() to travel along `route` (source-routed;
  /// the paper's home-ISP controls the full path, §3). Throws
  /// InvalidArgumentError if the route is invalid or does not start at
  /// pkt.src / end at pkt.dst.
  void send(const Packet& pkt, const Route& route);

  /// Completion callback (delivered or dropped). Optional.
  void onComplete(std::function<void(const DeliveryRecord&)> cb);

  /// Aggregate delivery stats.
  const LatencyStats& stats() const noexcept { return stats_; }
  std::size_t delivered() const noexcept { return delivered_; }
  std::size_t dropped() const noexcept { return dropped_; }

  /// Bits so far offered to each link (both directions), for utilization
  /// estimates feeding the congestion-aware router.
  double bitsCarried(LinkId id) const;

  /// Current queue backlog of one link direction, bits.
  double backlogBits(DirectedLinkId id) const;
  double backlogBits(LinkId id, LinkDir dir) const {
    return backlogBits(DirectedLinkId{id, dir});
  }

 private:
  struct Tx {
    double busyUntilS = 0.0;
    double backlogBits = 0.0;
  };
  struct InFlight {
    Packet pkt;
    Route route;
    std::size_t hop = 0;  ///< Next link index to traverse.
  };

  void arriveAtNode(InFlight f, NodeId node);
  void finish(const InFlight& f, bool delivered, DropReason reason);
  Tx& txFor(DirectedLinkId id);

  const NetworkGraph& graph_;
  EventQueue& events_;
  QueueConfig cfg_;
  std::unordered_map<DirectedLinkId, Tx> tx_;
  std::unordered_map<LinkId, double> carriedBits_;
  std::function<void(const DeliveryRecord&)> onComplete_;
  LatencyStats stats_;
  std::size_t delivered_ = 0;
  std::size_t dropped_ = 0;
};

}  // namespace openspace
