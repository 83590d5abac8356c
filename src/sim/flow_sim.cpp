#include <openspace/sim/flow_sim.hpp>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/sim/population.hpp>

namespace openspace {

namespace {

/// Timer-wheel bucketing granularity. It only buckets events: firing times
/// stay exact doubles (net/scheduler.hpp), so no result depends on it.
constexpr double kWheelTickS = 1e-6;

}  // namespace

std::uint64_t mixDeliveryRecord(std::uint64_t h, const DeliveryRecord& rec) noexcept {
  h = fnv1a(h, rec.packet.id);
  h = fnv1a(h, rec.packet.src.value());
  h = fnv1a(h, rec.packet.dst.value());
  h = fnv1a(h, bitsOf(rec.packet.sizeBits));
  h = fnv1a(h, bitsOf(rec.packet.createdAtS));
  h = fnv1a(h, rec.delivered ? 1u : 0u);
  h = fnv1a(h, static_cast<std::uint64_t>(rec.drop));
  h = fnv1a(h, bitsOf(rec.deliveredAtS));
  h = fnv1a(h, bitsOf(rec.latencyS));
  h = fnv1a(h, static_cast<std::uint64_t>(rec.hops));
  return h;
}

FlowSimulator::FlowSimulator(std::shared_ptr<const CompactGraph> graph,
                             FlowSimConfig cfg)
    : graph_(std::move(graph)),
      cfg_(cfg),
      wheel_(kWheelTickS, cfg.startS),
      rng_(cfg.seed) {
  if (!graph_) {
    throw InvalidArgumentError("FlowSimulator: null graph");
  }
  if (cfg_.maxQueueBits <= 0.0) {
    throw InvalidArgumentError("FlowSimulator: queue limit must be > 0");
  }
  edges_.resize(graph_->edgeCount());
  bitsCarried_.assign(graph_->edgeCount(), 0.0);
}

std::uint32_t FlowSimulator::addPath(const Route& route) {
  if (!route.valid()) {
    throw InvalidArgumentError("FlowSimulator::addPath: invalid route");
  }
  PathInfo info;
  info.src = route.nodes.front();
  info.dst = route.nodes.back();
  std::uint32_t cur = graph_->indexOf(info.src);
  const std::uint32_t dst = graph_->indexOf(info.dst);
  if (cur == CompactGraph::kInvalidIndex || dst == CompactGraph::kInvalidIndex) {
    throw NotFoundError("FlowSimulator::addPath: route endpoint not in graph");
  }
  info.off = static_cast<std::uint32_t>(pathEdges_.size());
  for (const LinkId lid : route.links) {
    // The legacy engine delivers the moment the packet touches dst, even
    // mid-route; truncating here keeps hop counts identical.
    if (cur == dst) break;
    const auto& candidates = graph_->edgesOfLink(lid);
    std::uint32_t found = CompactGraph::kInvalidIndex;
    for (const std::uint32_t e : candidates) {
      if (graph_->edgeSource(e) == cur) {
        found = e;
        break;
      }
    }
    if (found == CompactGraph::kInvalidIndex) {
      throw InvalidArgumentError(
          "FlowSimulator::addPath: route traverses an edge the compiled "
          "graph does not carry");
    }
    pathEdges_.push_back(found);
    cur = graph_->edgeTarget(found);
  }
  if (cur != dst) {
    throw InvalidArgumentError(
        "FlowSimulator::addPath: route does not reach its destination");
  }
  info.len = static_cast<std::uint32_t>(pathEdges_.size()) - info.off;
  paths_.push_back(info);
  return static_cast<std::uint32_t>(paths_.size() - 1);
}

std::uint32_t FlowSimulator::addFlow(const FlowSpec& flow, std::uint32_t pathId) {
  if (flow.rateBps <= 0.0 || flow.packetBits <= 0.0) {
    throw InvalidArgumentError(
        "FlowSimulator::addFlow: rate and packet size must be > 0");
  }
  if (pathId != kNoPath) {
    if (pathId >= paths_.size()) {
      throw InvalidArgumentError("FlowSimulator::addFlow: unknown path id");
    }
    const PathInfo& p = paths_[pathId];
    if (p.src != flow.src || p.dst != flow.dst) {
      throw InvalidArgumentError(
          "FlowSimulator::addFlow: path endpoints do not match flow");
    }
  }
  FlowState f;
  f.spec = flow;
  f.path = pathId;
  flows_.push_back(f);
  return static_cast<std::uint32_t>(flows_.size() - 1);
}

std::uint32_t FlowSimulator::addFlow(const FlowSpec& flow, const Route& route) {
  return addFlow(flow, route.valid() ? addPath(route) : kNoPath);
}

void FlowSimulator::onComplete(std::function<void(const DeliveryRecord&)> cb) {
  onComplete_ = std::move(cb);
}

std::uint32_t FlowSimulator::allocPkt() {
  if (pktFreeHead_ != 0xFFFFFFFFu) {
    const std::uint32_t slot = pktFreeHead_;
    pktFreeHead_ = pkts_[slot].next;
    return slot;
  }
  pkts_.emplace_back();
  return static_cast<std::uint32_t>(pkts_.size() - 1);
}

void FlowSimulator::freePkt(std::uint32_t slot) {
  pkts_[slot].next = pktFreeHead_;
  pktFreeHead_ = slot;
}

void FlowSimulator::scheduleNextEmit(std::uint32_t flow, double afterS) {
  // Token-identical arithmetic to FlowGenerator::scheduleNext: same mean,
  // same draw, same exclusive stopS bound.
  const FlowSpec& spec = flows_[flow].spec;
  const double meanGapS = spec.packetBits / spec.rateBps;
  const double t = afterS + rng_.exponential(1.0 / meanGapS);
  if (t >= spec.stopS) return;
  wheel_.schedule(t, Ev{kEmit, flow, 0});
}

void FlowSimulator::dispatch(double tS, const Ev& ev) {
  switch (ev.kind) {
    case kEmit: {
      FlowState& f = flows_[ev.a];
      const PacketId pid = nextPacketId_++;
      ++offered_;
      ++f.offered;
      if (f.path == kNoPath) {
        finish(ev.a, pid, tS, 0, false, DropReason::NoRoute);
      } else {
        const std::uint32_t slot = allocPkt();
        PktState& p = pkts_[slot];
        p.createdAtS = tS;
        p.id = pid;
        p.flow = ev.a;
        p.hop = 0;
        arrive(slot);
      }
      scheduleNextEmit(ev.a, tS);
      break;
    }
    case kTxDone: {
      EdgeState& tx = edges_[ev.a];
      const double sizeBits = flows_[ev.b].spec.packetBits;
      tx.backlogBits = std::max(0.0, tx.backlogBits - sizeBits);
      break;
    }
    case kArrive:
      arrive(ev.a);
      break;
  }
}

void FlowSimulator::arrive(std::uint32_t pktSlot) {
  PktState& p = pkts_[pktSlot];
  const FlowState& f = flows_[p.flow];
  const PathInfo& path = paths_[f.path];
  if (p.hop == path.len) {
    finish(p.flow, p.id, p.createdAtS, p.hop, true, DropReason::None);
    freePkt(pktSlot);
    return;
  }
  const std::uint32_t e = pathEdges_[path.off + p.hop];
  EdgeState& tx = edges_[e];
  const double now = wheel_.now();
  const double sizeBits = f.spec.packetBits;

  // Identical floating-point expressions, in the same order, as
  // ForwardingEngine::arriveAtNode — the bit-for-bit contract.
  if (tx.busyUntilS <= now) {
    tx.backlogBits = 0.0;
  }
  if (tx.backlogBits + sizeBits > cfg_.maxQueueBits) {
    finish(p.flow, p.id, p.createdAtS, p.hop, false, DropReason::QueueOverflow);
    freePkt(pktSlot);
    return;
  }
  const double start = std::max(now, tx.busyUntilS);
  const double txTime = sizeBits / graph_->edgeCapacityBps(e);
  tx.busyUntilS = start + txTime;
  tx.backlogBits += sizeBits;
  bitsCarried_[e] += sizeBits;

  const double txDone = tx.busyUntilS;
  const double arrival = txDone + graph_->edgePropagationDelayS(e);
  wheel_.schedule(txDone, Ev{kTxDone, e, p.flow});
  p.hop += 1;
  wheel_.schedule(arrival, Ev{kArrive, pktSlot, 0});
}

void FlowSimulator::finish(std::uint32_t flowIdx, PacketId id, double createdAtS,
                           std::uint32_t hops, bool deliveredOk,
                           DropReason reason) {
  FlowState& f = flows_[flowIdx];
  DeliveryRecord rec;
  rec.packet.id = id;
  rec.packet.src = f.spec.src;
  rec.packet.dst = f.spec.dst;
  rec.packet.sizeBits = f.spec.packetBits;
  rec.packet.createdAtS = createdAtS;
  rec.packet.qos = f.spec.qos;
  rec.packet.homeProvider = f.spec.homeProvider;
  rec.delivered = deliveredOk;
  rec.drop = reason;
  rec.hops = static_cast<int>(hops);
  if (deliveredOk) {
    rec.deliveredAtS = wheel_.now();
    rec.latencyS = rec.deliveredAtS - createdAtS;
    stats_.add(rec.latencyS);
    ++delivered_;
    if (f.delivered == 0) {
      f.minLatencyS = rec.latencyS;
      f.maxLatencyS = rec.latencyS;
    } else {
      f.minLatencyS = std::min(f.minLatencyS, rec.latencyS);
      f.maxLatencyS = std::max(f.maxLatencyS, rec.latencyS);
      f.jitterSumS += std::abs(rec.latencyS - f.lastLatencyS);
    }
    f.latencySumS += rec.latencyS;
    f.lastLatencyS = rec.latencyS;
    ++f.delivered;
  } else {
    stats_.addLoss();
    ++dropped_;
    ++f.dropped;
  }
  checksum_ = mixDeliveryRecord(checksum_, rec);
  if (onComplete_) onComplete_(rec);
}

FlowSimReport FlowSimulator::run() {
  if (ran_) {
    throw StateError("FlowSimulator::run: single-shot; already ran");
  }
  ran_ = true;

  // Seed every flow's first emission in registration order — the same
  // order (and the same single RNG stream) as legacy addFlow calls.
  for (std::uint32_t i = 0; i < flows_.size(); ++i) {
    const FlowSpec& spec = flows_[i].spec;
    if (spec.stopS <= spec.startS) continue;  // degenerate: no packets
    scheduleNextEmit(i, spec.startS);
  }
  const std::size_t fired =
      wheel_.runAll([this](double tS, const Ev& ev) { dispatch(tS, ev); });

  FlowSimReport rep;
  rep.packetsOffered = offered_;
  rep.packetsDelivered = delivered_;
  rep.packetsDropped = dropped_;
  rep.eventsExecuted = fired;
  rep.latency = std::move(stats_);
  rep.flows.reserve(flows_.size());
  for (const FlowState& f : flows_) {
    FlowSummary s;
    s.offered = f.offered;
    s.delivered = f.delivered;
    s.dropped = f.dropped;
    if (f.delivered > 0) {
      s.meanLatencyS = f.latencySumS / static_cast<double>(f.delivered);
      s.minLatencyS = f.minLatencyS;
      s.maxLatencyS = f.maxLatencyS;
    }
    if (f.delivered > 1) {
      s.meanJitterS = f.jitterSumS / static_cast<double>(f.delivered - 1);
    }
    rep.flows.push_back(s);
  }
  rep.edgeBitsCarried = std::move(bitsCarried_);
  rep.edgeUtilization.assign(rep.edgeBitsCarried.size(), 0.0);
  for (std::size_t e = 0; e < rep.edgeBitsCarried.size(); ++e) {
    const double cap = graph_->edgeCapacityBps(static_cast<std::uint32_t>(e));
    if (cap > 0.0 && cfg_.durationS > 0.0) {
      rep.edgeUtilization[e] = rep.edgeBitsCarried[e] / (cap * cfg_.durationS);
    }
  }
  rep.recordChecksum = checksum_;
  return rep;
}

CityFlows buildCityFlows(const CityFlowConfig& cfg,
                         std::shared_ptr<const ConstellationSnapshot> snapshot,
                         const std::vector<NodeId>& satNodes,
                         const std::vector<NodeId>& gateways,
                         const RouteEngine& engine) {
  if (!snapshot) {
    throw InvalidArgumentError("buildCityFlows: null snapshot");
  }
  if (cfg.users < 0) {
    throw InvalidArgumentError("buildCityFlows: users must be >= 0");
  }
  const auto positive = [](double v) { return v > 0.0 && std::isfinite(v); };
  if (!positive(cfg.meanRateBps) || !positive(cfg.packetBits) ||
      !positive(cfg.durationS)) {
    throw InvalidArgumentError(
        "buildCityFlows: rate, packet size and duration must be finite and > 0");
  }
  if (!std::isfinite(cfg.startS + cfg.durationS) ||
      !std::isfinite(cfg.utcSeconds) || !std::isfinite(cfg.minElevationRad)) {
    throw InvalidArgumentError(
        "buildCityFlows: start, stop, time of day and elevation mask must be "
        "finite");
  }
  if (satNodes.size() != snapshot->size()) {
    throw InvalidArgumentError(
        "buildCityFlows: satNodes must map every snapshot satellite");
  }
  if (gateways.empty()) {
    throw InvalidArgumentError("buildCityFlows: at least one gateway required");
  }

  CityFlows out;

  // Per-satellite uplink routes: one batched tree sweep, then the cheapest
  // reachable gateway per satellite (ties to the first listed gateway).
  const std::vector<PathTree> trees = engine.batchShortestPathTrees(satNodes);
  out.routes.resize(satNodes.size());
  for (std::size_t s = 0; s < trees.size(); ++s) {
    out.routes[s] = trees[s].routeToCheapest(gateways);
  }

  // Sampling, association and the fold run as one pipeline over fixed
  // 512-user chunks. Sampling draws from one stream and the fold extends
  // one checksum, so each runs in chunk order, one chunk at a time
  // (ChunkTurns), exactly as a serial loop would run them; association and
  // rate jitter run between the two on any thread. The jitter streams stay
  // per 4096-user block: each block's block-seeded RNG draws once per user
  // in order, and a chunk starts its block's stream at its own offset. So
  // the result is bit-identical at any thread count.
  static const std::vector<PopulationCenter> kWorldCenters =
      defaultWorldPopulation().centers();
  const PopulationModel pop(kWorldCenters, cfg.ruralFraction);
  Rng rng(cfg.seed);
  const auto index = FootprintIndex2::compiled(snapshot, cfg.minElevationRad);

  // Every spec shares its packet size, start and stop: one fixed run.
  const double stopS = cfg.startS + cfg.durationS;
  const FnvFixedRun sharedFields = {bitsOf(cfg.packetBits), bitsOf(cfg.startS),
                                    bitsOf(stopS)};
  const std::size_t userCount = static_cast<std::size_t>(cfg.users);
  out.specs.reserve(userCount);
  out.routeOf.reserve(userCount);
  std::uint64_t h = kFnvOffsetBasis;

  constexpr std::size_t kJitterBlock = 4096;
  constexpr std::size_t kChunk = 512;
  static_assert(kJitterBlock % kChunk == 0, "a chunk lies in one block");
  constexpr std::uint32_t kUnserved = 0xFFFFFFFFu;
  ChunkTurns sampling;
  ChunkTurns folding;
  parallelFor(userCount, kChunk, [&](std::size_t begin, std::size_t end) {
    const std::size_t chunk = begin / kChunk;
    const std::size_t size = end - begin;
    try {
      std::vector<SampledUser> users;
      if (!sampling.inOrder(chunk, [&] {
            users = pop.sampleUsers(static_cast<int>(size), rng);
          })) {
        return;
      }
      const std::uint64_t block = begin / kJitterBlock;
      Rng blockRng(cfg.seed ^ (0x9E3779B97F4A7C15ull * (block + 1)));
      blockRng.engine().discard(begin - block * kJitterBlock);  // one per user
      std::array<std::uint32_t, kChunk> satOf;
      std::array<double, kChunk> rateOf;
      for (std::size_t i = 0; i < size; ++i) {
        // Draw before the visibility test so the block's draw sequence does
        // not depend on which users end up served.
        const double jitter = blockRng.uniform(0.5, 1.5);
        satOf[i] = kUnserved;
        const auto sat = index->closestVisible(users[i].location);
        if (!sat || !out.routes[*sat].valid()) continue;
        satOf[i] = static_cast<std::uint32_t>(*sat);
        rateOf[i] = cfg.meanRateBps * users[i].weight *
                    diurnalDemandFactor(cfg.utcSeconds,
                                        users[i].location.longitudeRad) *
                    jitter;
      }
      // Compaction and the checksum fold, in user order: the folding turns
      // run this section for one chunk at a time, in chunk order.
      folding.inOrder(chunk, [&] {
        for (std::size_t i = 0; i < size; ++i) {
          const std::uint32_t sat = satOf[i];
          if (sat == kUnserved) {
            ++out.unservedUsers;  // det-waiver: in-order section (ChunkTurns)
            continue;
          }
          // det-waiver: in-order section (ChunkTurns)
          FlowSpec& s = out.specs.emplace_back();
          s.src = satNodes[sat];
          s.dst = out.routes[sat].nodes.back();
          s.rateBps = rateOf[i];
          s.packetBits = cfg.packetBits;
          s.startS = cfg.startS;
          s.stopS = stopS;
          out.routeOf.push_back(sat);  // det-waiver: in-order section
          h = fnv1a(h, s.src.value());
          h = fnv1a(h, s.dst.value());
          h = fnv1a(h, bitsOf(s.rateBps));
          h = sharedFields.fold(h);  // packetBits, startS, stopS
          h = fnv1a(h, sat);
        }
      });
    } catch (...) {
      sampling.fail();
      folding.fail();
      throw;
    }
  });
  h = fnv1a(h, static_cast<std::uint64_t>(out.unservedUsers));
  out.checksum = h;
  return out;
}

}  // namespace openspace
