#include <openspace/sim/flow_sweep.hpp>

#include <algorithm>
#include <memory>

#include <openspace/geo/error.hpp>
#include <openspace/routing/engine.hpp>

namespace openspace {
namespace {

/// Fold one step's selected routes into the sweep checksum. Hashes the node
/// sequence (not costs): the graphs are checksum-compared elsewhere, and the
/// node sequence is what the simulator actually consumes.
std::uint64_t mixRoute(std::uint64_t h, const Route& r) {
  h = fnv1a(h, r.nodes.size());
  for (const NodeId n : r.nodes) h = fnv1a(h, n.value());
  return h;
}

}  // namespace

FlowSweepReport runFlowSweep(const TopologyBuilder& builder,
                             const SnapshotOptions& opt,
                             const std::vector<FlowSweepDemand>& demands,
                             const FlowSweepConfig& cfg) {
  if (cfg.stepS <= 0.0 || cfg.horizonS <= 0.0) {
    throw InvalidArgumentError("runFlowSweep: step/horizon must be > 0");
  }
  for (const FlowSweepDemand& d : demands) {
    if (!d.src.isValid() || !d.dst.isValid()) {
      throw InvalidArgumentError("runFlowSweep: demand endpoint is unset");
    }
  }

  // Distinct sources in first-appearance order: one routing tree each per
  // step.
  std::vector<NodeId> sources;
  std::vector<std::size_t> demandSource(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const auto it = std::find(sources.begin(), sources.end(), demands[i].src);
    demandSource[i] = static_cast<std::size_t>(it - sources.begin());
    if (it == sources.end()) sources.push_back(demands[i].src);
  }

  IncrementalTopology inc(builder, opt, latencyCost());

  FlowSweepReport out;
  const double endS = cfg.t0S + cfg.horizonS;
  std::size_t stepIdx = 0;
  for (double t = cfg.t0S; t < endS; t += cfg.stepS, ++stepIdx) {
    FlowSweepStep step;
    step.tS = t;

    step.structural = inc.step(t).structural;
    const std::shared_ptr<const CompactGraph> graph = inc.graph();
    const std::vector<PathTree> trees =
        RouteEngine(graph).batchShortestPathTrees(sources);

    FlowSimConfig simCfg = cfg.sim;
    simCfg.startS = t;
    simCfg.durationS = std::min(t + cfg.stepS, endS) - t;
    simCfg.seed = fnv1a(cfg.sim.seed, stepIdx);
    FlowSimulator sim(graph, simCfg);

    for (std::size_t i = 0; i < demands.size(); ++i) {
      const Route r = trees[demandSource[i]].routeTo(demands[i].dst);
      out.checksum = mixRoute(out.checksum, r);
      if (!r.valid()) continue;  // all packets would drop NoRoute
      FlowSpec spec;
      spec.src = demands[i].src;
      spec.dst = demands[i].dst;
      spec.rateBps = demands[i].rateBps;
      spec.packetBits = demands[i].packetBits;
      spec.startS = simCfg.startS;
      spec.stopS = simCfg.startS + simCfg.durationS;
      sim.addFlow(spec, r);
    }

    const FlowSimReport rep = sim.run();
    step.packetsOffered = rep.packetsOffered;
    step.packetsDelivered = rep.packetsDelivered;
    step.packetsDropped = rep.packetsDropped;
    step.recordChecksum = rep.recordChecksum;
    out.checksum = fnv1a(out.checksum, rep.recordChecksum);

    out.packetsOffered += rep.packetsOffered;
    out.packetsDelivered += rep.packetsDelivered;
    out.packetsDropped += rep.packetsDropped;
    if (step.structural) ++out.structuralSteps;
    out.steps.push_back(step);
  }
  return out;
}

}  // namespace openspace
