// Synthetic traffic flows.
//
// The paper (§5(1)) calls for "modelling a potential user base along with
// potential user traffic patterns"; a FlowSpec is one such pattern: a
// unidirectional Poisson packet stream between two nodes. FlowSimulator
// (sim/flow_sim.hpp) turns FlowSpecs into packets: exponential inter-packet
// gaps with mean packetBits / rateBps, deterministic given its seed.
#pragma once

#include <openspace/net/packet.hpp>

namespace openspace {

/// A unidirectional traffic flow specification.
struct FlowSpec {
  NodeId src{};
  NodeId dst{};
  double rateBps = 1e6;        ///< Mean offered load.
  double packetBits = 12'000;  ///< Packet size.
  QosClass qos = QosClass::Standard;
  ProviderId homeProvider{};
  double startS = 0.0;
  double stopS = 0.0;  ///< Exclusive; <= startS means no packets.
};

}  // namespace openspace
