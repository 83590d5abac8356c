// Poisson packet generation spec (test-only; openspace_spec).
//
// FlowGenerator is the reference emitter FlowSimulator (sim/flow_sim.hpp)
// is pinned to: the same exponential draws from the same single RNG stream,
// in the same flow order, give bit-identical packet ids and timestamps.
#pragma once

#include <functional>

#include <openspace/geo/rng.hpp>
#include <openspace/net/flows.hpp>
#include <openspace/net/packet.hpp>
#include <openspace/spec/event.hpp>

namespace openspace {

/// Emits packets for a set of flows into a sink callback via the event
/// queue. Poisson arrivals: exponential inter-packet gaps with mean
/// packetBits / rateBps. Deterministic given the Rng.
class FlowGenerator {
 public:
  using Sink = std::function<void(const Packet&)>;

  /// Throws InvalidArgumentError on flows with non-positive rate/size.
  FlowGenerator(EventQueue& events, Rng& rng, Sink sink);

  /// Register a flow; packets are scheduled lazily (one event at a time).
  void addFlow(const FlowSpec& flow);

  std::size_t packetsEmitted() const noexcept { return emitted_; }

 private:
  void scheduleNext(const FlowSpec& flow, double afterS);

  EventQueue& events_;
  Rng& rng_;
  Sink sink_;
  std::size_t emitted_ = 0;
  PacketId nextId_ = 1;
};

}  // namespace openspace
