#include <openspace/spec/flow_generator.hpp>

#include <openspace/geo/error.hpp>

namespace openspace {

FlowGenerator::FlowGenerator(EventQueue& events, Rng& rng, Sink sink)
    : events_(events), rng_(rng), sink_(std::move(sink)) {
  if (!sink_) throw InvalidArgumentError("FlowGenerator: null sink");
}

void FlowGenerator::addFlow(const FlowSpec& flow) {
  if (flow.rateBps <= 0.0 || flow.packetBits <= 0.0) {
    throw InvalidArgumentError("FlowGenerator: rate and packet size must be > 0");
  }
  if (flow.stopS <= flow.startS) return;  // degenerate: no packets
  scheduleNext(flow, flow.startS);
}

void FlowGenerator::scheduleNext(const FlowSpec& flow, double afterS) {
  const double meanGapS = flow.packetBits / flow.rateBps;
  const double t = afterS + rng_.exponential(1.0 / meanGapS);
  if (t >= flow.stopS) return;
  events_.schedule(t, [this, flow, t]() {
    Packet p;
    p.id = nextId_++;
    p.src = flow.src;
    p.dst = flow.dst;
    p.sizeBits = flow.packetBits;
    p.createdAtS = t;
    p.qos = flow.qos;
    p.homeProvider = flow.homeProvider;
    ++emitted_;
    sink_(p);
    scheduleNext(flow, t);
  });
}

}  // namespace openspace
