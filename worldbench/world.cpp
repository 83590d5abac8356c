// One simulated hour of the OpenSpace world, end to end and per layer.
//
// Every epoch (240 x 15 s, the paper's handover cadence) calls the public
// entry point of each layer in pipeline order:
//
//   orbit     SnapshotCache::global().at
//   coverage  FootprintIndex2::compiled
//   topology  IncrementalTopology::step
//   routing   RouteEngine::repairShortestPathTree, one tree per gateway
//   session   HandoverSweep::seed / SessionTable::disassociateRegion (churn
//             workloads), then HandoverSweep::runEpoch
//   sim       buildCityFlows, then one FlowSimulator slice
//   econ      SettlementEngine::recordRouteTraffic, crossVerify, settle
//
// Each call runs in its own stage span. After them comes the benchmark's
// own block: the correctness checks (Serving sessions == summed
// per-satellite occupancy, offered == delivered + dropped, crossVerify,
// outage drop count), the output digest, and the generation of the next
// epoch's churn inputs. Then the epoch's library objects are released.
// An epoch is timed from its first call to that release, by a clock of
// its own; run_s leaves out the benchmark's block, timed on every epoch.
// So trace.unattributed_frac is the library time the spans miss, and
// trace.bench_frac the share of the loop the benchmark itself takes.
// Workload inputs derive from --seed only.
//
// Modes:
//   --trace 0  hours back to back until --seconds is used up (at least
//              one); reports the end-to-end metrics.
//   --trace 1  one untraced hour, one traced hour at the pool thread count
//              and one traced hour at one thread; reports the per-layer
//              split, tracing overhead and per-stage parallel speedup.
//
// Output: one JSON record on stdout. worldbench/run.py builds this binary,
// runs it and turns the record into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <openspace/auth/certificate.hpp>
#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/core/simd.hpp>
#include <openspace/coverage/footprint_index.hpp>
#include <openspace/econ/ledger.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/propagation_batch.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/session/handover_sweep.hpp>
#include <openspace/session/session_table.hpp>
#include <openspace/sim/flow_sim.hpp>
#include <openspace/sim/population.hpp>
#include <openspace/sim/session_scenarios.hpp>
#include <openspace/topology/builder.hpp>
#include <openspace/topology/delta.hpp>

#ifndef WORLDBENCH_BUILD_TYPE
#define WORLDBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace openspace;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kEpochS = 15.0;
constexpr double kMaskRad = deg2rad(10.0);
constexpr std::uint32_t kProviders = 3;
constexpr double kCertLifetimeS = 7.0 * 86'400.0;
constexpr double kArrivalRadiusM = 300e3;
constexpr double kPacketBits = 12'000.0;
/// setup_s is the median of at least this many set-ups per run, and of
/// more while their total stays under kSetupBudgetS (quick set-ups).
constexpr std::size_t kSetupSamples = 7;
constexpr double kSetupBudgetS = 2.0;
constexpr int kWarmupEpochs = 24;
/// The load is one process with a pool of min(nproc, 2) threads. On a
/// shared 4-vCPU VM a 4-thread pool doubled its run-to-run spread: its
/// barrier phases stall whenever the host takes one vCPU away.
constexpr unsigned kPoolThreadsMax = 2;

// --- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  bool mega;                     ///< 5,040-sat Walker Delta, else Iridium star.
  std::size_t baseUsers;         ///< Seeded at t0.
  std::size_t arrivalsPerEpoch;  ///< flashCrowdSeeds per epoch (churn).
  double outageRadiusM;          ///< disassociateRegion per epoch; 0 = none.
  int flowUsers;                 ///< Users per flow slice; 0 = sim+econ off.
  double flowRateBps;            ///< CityFlowConfig::meanRateBps.
  double flowSliceS;             ///< Flow slice length per epoch.
};

const Workload kWorkloads[] = {
    {"iridium-hour", false, 100'000, 0, 0.0, 20'000, 250.0, 0.25},
    {"mega-5k", true, 2'000, 0, 0.0, 0, 0.0, 0.0},
    {"iridium-churn", false, 25'000, 250, 500e3, 10'000, 20e3, 0.125},
};

const struct {
  const char* name;
  double latDeg, lonDeg;
} kGateways[] = {
    {"paris", 48.86, 2.35},       {"denver", 39.74, -104.99},
    {"jburg", -26.20, 28.05},     {"sydney", -33.87, 151.21},
    {"saopaulo", -23.55, -46.63}, {"tokyo", 35.68, 139.69},
};

ProviderId providerOf(std::size_t i) {
  return ProviderId{static_cast<ProviderId::rep_type>(1 + i % kProviders)};
}

// --- spans -----------------------------------------------------------------

enum Stage : std::size_t {
  kOrbit,
  kCoverage,
  kTopology,
  kRouting,
  kSessionSeed,
  kSessionOutage,
  kSessionSweep,
  kSimCityFlows,
  kSimFlowSim,
  kEcon,
  kStageCount
};

using StageTimes = std::array<double, kStageCount>;

/// A layer groups the stage spans of one library module.
struct Layer {
  const char* name;
  std::vector<Stage> stages;
};

const Layer kLayers[] = {
    {"orbit", {kOrbit}},
    {"coverage", {kCoverage}},
    {"topology", {kTopology}},
    {"routing", {kRouting}},
    {"session", {kSessionSeed, kSessionOutage, kSessionSweep}},
    {"sim", {kSimCityFlows, kSimFlowSim}},
    {"econ", {kEcon}},
};

/// Records one span per stage call when tracing; otherwise just runs it.
class Spans {
 public:
  explicit Spans(bool traced) : traced_(traced) {}

  template <typename Fn>
  void run(Stage stage, Fn&& fn) {
    if (!traced_) {
      fn();
      return;
    }
    const Clock::time_point t0 = Clock::now();
    fn();
    times_[stage] += secondsSince(t0);
  }

  const StageTimes& times() const noexcept { return times_; }

 private:
  bool traced_;
  StageTimes times_{};
};

// --- one hour --------------------------------------------------------------

struct EpochRecord {
  double wallS = 0.0;   ///< The whole epoch.
  double benchS = 0.0;  ///< The benchmark's own checks, digest and inputs.
  StageTimes stageS{};
  bool failed = false;

  /// The epoch's cost to the library: its wall time minus the bench block.
  double runS() const { return wallS - benchS; }
};

/// Deterministic outputs of one hour: identical at any thread count and
/// on every repetition of the same seed.
struct HourCounts {
  std::uint64_t digest = kFnvOffsetBasis;
  std::uint64_t handovers = 0;
  std::uint64_t touched = 0;
  std::uint64_t certHits = 0;
  std::uint64_t certMisses = 0;
  std::uint64_t structuralSteps = 0;
  std::uint64_t linksChanged = 0;
  std::uint64_t repairAttempts = 0;
  std::uint64_t repaired = 0;
  std::uint64_t queuePops = 0;
  std::uint64_t packetsOffered = 0;
  std::uint64_t packetsDelivered = 0;
  std::uint64_t packetsDropped = 0;
  std::uint64_t events = 0;
  std::uint64_t outageDrops = 0;
  std::uint64_t sessions = 0;
  double peakEdgeUtil = 0.0;
  /// Last TreeRepairStats::fallbackReason seen ("none" if every repair ran).
  std::string repairFallback = "none";
};

/// Resident sizes at the end of an hour (not part of the digest).
struct HourBytes {
  std::size_t table = 0;
  std::size_t certCache = 0;
  std::size_t snapshotCache = 0;
  std::size_t indexCache = 0;
};

struct HourResult {
  double setupS = 0.0;
  std::vector<EpochRecord> epochs;
  HourCounts counts;
  HourBytes bytes;
  int epochsFailed = 0;

  double runS() const {
    double s = 0.0;
    for (const EpochRecord& e : epochs) s += e.runS();
    return s;
  }

  double benchS() const {
    double s = 0.0;
    for (const EpochRecord& e : epochs) s += e.benchS;
    return s;
  }
};

std::vector<OrbitalElements> makeFleet(bool mega) {
  if (!mega) return makeWalkerStar(iridiumConfig());
  return makeWalkerDelta({5'040, 72, 1, km(550.0), deg2rad(53.0)});
}

SnapshotOptions snapshotOptions(bool mega) {
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = mega ? 72 : 6;
  if (mega) opt.maxIslRangeM = km(3'000.0);
  opt.minElevationRad = kMaskRad;
  opt.includeUserLinks = false;
  return opt;
}

/// The OpenSpace world of one workload. The constructor is the set-up;
/// epoch() runs one 15 s epoch through every layer.
class World {
 public:
  World(const Workload& w, std::uint64_t seed, double scale)
      : w_(w),
        seed_(seed),
        rng_(0x9E3779B97F4A7C15ull ^ seed),
        authority_(ProviderId{1}, 0xB47C'5E55ull ^ seed, kCertLifetimeS),
        sweeper_(publishFleet(), SweepConfig{kMaskRad}),
        topo_(eph_),
        table_(eph_.satellites().size()) {
    for (std::size_t g = 0; g < std::size(kGateways); ++g) {
      const auto& gw = kGateways[g];
      gateways_.push_back(topo_.nodeOf(topo_.addGroundStation(
          {gw.name, Geodetic::fromDegrees(gw.latDeg, gw.lonDeg),
           providerOf(g)})));
    }
    for (const SatelliteId sid : eph_.satellites()) {
      satNodes_.push_back(topo_.nodeOf(sid));
    }
    const SnapshotOptions opt = snapshotOptions(w.mega);
    inc_ = std::make_unique<IncrementalTopology>(topo_, opt, delayCostModel());
    trees_.resize(gateways_.size());

    if (w.flowUsers > 0) {
      flowUsers_ = std::max(1, static_cast<int>(w.flowUsers * scale));
      // recordRouteTraffic reads only node providers; the node set is
      // static, so the t0 graph serves every epoch.
      nodeGraph_ = std::make_unique<NetworkGraph>(topo_.snapshot(0.0, opt));
      for (std::uint32_t p = 0; p < kProviders; ++p) {
        settlement_.addProvider(providerOf(p));
        settlement_.setTariff({providerOf(p), ProviderId{0}, 0.5 + 0.25 * p});
      }
    }

    const auto users = static_cast<int>(
        std::max<double>(16.0, static_cast<double>(w.baseUsers) * scale));
    arrivals_ = static_cast<std::size_t>(
        static_cast<double>(w.arrivalsPerEpoch) * scale);
    centers_ = defaultWorldPopulation().centers();
    const auto sampled = defaultWorldPopulation().sampleUsers(users, rng_);
    const std::vector<SessionSeed> seeds =
        issueSeedCertificates(authority_, sampled, /*firstUser=*/1, 0.0);
    remember(seeds);
    table_.setCertificateCacheByteBudget(128 * seeds.size());
    sweeper_.seed(table_, seeds, 0.0, SeedMode::ClosestAssociation);
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// One epoch; its wall time covers everything the loop does for it:
  /// the stage calls, the bench block and the release of the epoch's
  /// library objects.
  EpochRecord epoch(int e, bool traced) {
    EpochRecord rec;
    Spans spans(traced);
    const Clock::time_point t0 = Clock::now();
    try {
      step(e, spans, rec);
    } catch (const std::exception& ex) {
      rec.failed = true;
      std::fprintf(stderr, "world_bench: epoch %d failed: %s\n", e, ex.what());
    }
    rec.wallS = secondsSince(t0);
    rec.stageS = spans.times();
    return rec;
  }

  /// Fold the end-of-hour state into the digest and return the counts.
  HourCounts finish() {
    counts_.digest = fnv1a(counts_.digest, table_.stateChecksum());
    counts_.sessions = table_.size();
    if (flowUsers_ > 0) {
      for (const SettlementItem& item : settlement_.settle()) {
        counts_.digest = fnv1a(counts_.digest, item.payer.value());
        counts_.digest = fnv1a(counts_.digest, item.payee.value());
        counts_.digest = fnv1a(counts_.digest, bitsOf(item.bytes));
        counts_.digest = fnv1a(counts_.digest, bitsOf(item.amountUsd));
      }
    }
    return counts_;
  }

  HourBytes bytes() const {
    return {table_.approxBytes(), table_.certificateCacheApproxBytes(),
            SnapshotCache::global().approxBytes(),
            FootprintIndex2::compiledCacheApproxBytes()};
  }

 private:
  /// The stage calls of epoch e, one span each, then the bench block,
  /// which sets rec.failed and rec.benchS.
  void step(int e, Spans& spans, EpochRecord& rec) {
    const double t = e * kEpochS;
    std::shared_ptr<const ConstellationSnapshot> snap;
    spans.run(kOrbit, [&] { snap = SnapshotCache::global().at(eph_, t); });
    spans.run(kCoverage,
              [&] { (void)FootprintIndex2::compiled(snap, kMaskRad); });
    const TopologyDelta* delta = nullptr;
    spans.run(kTopology, [&] { delta = &inc_->step(t); });
    std::optional<RouteEngine> engine;
    std::vector<TreeRepairStats> repairs;
    spans.run(kRouting, [&] {
      engine.emplace(inc_->graph());
      for (std::size_t g = 0; g < trees_.size(); ++g) {
        if (trees_[g].valid()) {
          trees_[g] = engine->repairShortestPathTree(
              trees_[g], &repairs.emplace_back());
        } else {
          trees_[g] = engine->shortestPathTree(gateways_[g]);
        }
      }
    });
    spans.run(kSessionSeed, [&] {
      if (!pending_.empty()) {
        sweeper_.seed(table_, pending_, table_.clockS(),
                      SeedMode::ClosestAssociation);
      }
    });
    std::size_t dropped = 0;
    const Geodetic outageCenter =
        centers_[(seed_ + static_cast<std::uint64_t>(e)) % centers_.size()]
            .location;
    spans.run(kSessionOutage, [&] {
      if (w_.outageRadiusM > 0.0) {
        dropped = table_.disassociateRegion(outageCenter, w_.outageRadiusM);
      }
    });
    EpochStats st;
    spans.run(kSessionSweep, [&] { st = sweeper_.runEpoch(table_, t); });
    CityFlows flows;
    FlowSimReport report;
    spans.run(kSimCityFlows, [&] {
      if (flowUsers_ > 0) flows = cityFlows(snap, *engine, t, e);
    });
    spans.run(kSimFlowSim, [&] {
      if (flowUsers_ > 0) report = simulate(flows, *engine, e);
    });
    bool verified = true;
    spans.run(kEcon, [&] {
      if (flowUsers_ > 0) verified = settle(flows, report);
    });

    // --- bench block: checks, digest, next epoch's inputs -----------------
    const Clock::time_point b0 = Clock::now();
    bool ok = verified && servingMatchesOccupancy() &&
              report.packetsOffered ==
                  report.packetsDelivered + report.packetsDropped;
    fold(st, *delta, flows, report);
    for (const TreeRepairStats& r : repairs) {
      ++counts_.repairAttempts;
      counts_.repaired += r.repaired ? 1 : 0;
      counts_.queuePops += r.queuePops;
      if (r.fallbackReason != nullptr) {
        counts_.repairFallback = r.fallbackReason;
      }
    }
    pending_.clear();
    if (w_.outageRadiusM > 0.0) {
      counts_.outageDrops += dropped;
      const std::size_t reseeds = queueReseeds(outageCenter, t);
      ok = ok && dropped == reseeds;
    }
    if (arrivals_ > 0) queueArrivals(e, t);
    rec.failed = !ok;
    rec.benchS = secondsSince(b0);
  }

  const EphemerisService& publishFleet() {
    const std::vector<OrbitalElements> fleet = makeFleet(w_.mega);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      eph_.publish(providerOf(i), fleet[i]);
    }
    return eph_;
  }

  void remember(const std::vector<SessionSeed>& seeds) {
    for (const SessionSeed& s : seeds) {
      sites_.push_back(s.location);
      siteEcef_.push_back(geodeticToEcef(s.location));
    }
  }

  CityFlows cityFlows(std::shared_ptr<const ConstellationSnapshot> snap,
                      const RouteEngine& engine, double t, int e) const {
    CityFlowConfig cfg;
    cfg.users = flowUsers_;
    cfg.meanRateBps = w_.flowRateBps;
    cfg.packetBits = kPacketBits;
    cfg.durationS = w_.flowSliceS;
    cfg.minElevationRad = kMaskRad;
    cfg.utcSeconds = 12.0 * 3'600.0 + t;
    cfg.seed = seed_ * std::uint64_t{1'000'003} + static_cast<std::uint64_t>(e);
    return buildCityFlows(cfg, std::move(snap), satNodes_, gateways_, engine);
  }

  FlowSimReport simulate(const CityFlows& flows, const RouteEngine& engine,
                         int e) const {
    FlowSimulator sim(engine.sharedGraph(),
                      FlowSimConfig{}
                          .withSeed(seed_ * std::uint64_t{7'919} +
                                    static_cast<std::uint64_t>(e))
                          .withDuration(w_.flowSliceS));
    std::vector<std::uint32_t> pathOf(flows.routes.size(),
                                      FlowSimulator::kNoPath);
    for (std::size_t i = 0; i < flows.specs.size(); ++i) {
      const std::uint32_t sat = flows.routeOf[i];
      if (pathOf[sat] == FlowSimulator::kNoPath) {
        pathOf[sat] = sim.addPath(flows.routes[sat]);
      }
      sim.addFlow(flows.specs[i], pathOf[sat]);
    }
    return sim.run();
  }

  /// Charge each flow's delivered bytes to its owner (providers
  /// round-robin by flow) along its uplink route; true iff the ledgers
  /// cross-verify.
  bool settle(const CityFlows& flows, const FlowSimReport& report) {
    std::vector<double> bytes(flows.routes.size() * kProviders, 0.0);
    for (std::size_t i = 0; i < flows.specs.size(); ++i) {
      bytes[flows.routeOf[i] * kProviders + i % kProviders] +=
          static_cast<double>(report.flows[i].delivered) *
          flows.specs[i].packetBits / 8.0;
    }
    for (std::size_t r = 0; r < flows.routes.size(); ++r) {
      for (std::uint32_t p = 0; p < kProviders; ++p) {
        const double b = bytes[r * kProviders + p];
        if (b > 0.0) {
          settlement_.recordRouteTraffic(*nodeGraph_, flows.routes[r],
                                         providerOf(p), b);
        }
      }
    }
    const bool ok = settlement_.crossVerify();
    (void)settlement_.settle();
    return ok;
  }

  /// Serving sessions, counted one by one, must equal the summed
  /// per-satellite occupancy.
  bool servingMatchesOccupancy() const {
    std::uint64_t occupied = 0;
    for (const std::uint64_t n : table_.perSatelliteOccupancy()) occupied += n;
    constexpr std::size_t kChunk = 8'192;
    std::vector<std::uint64_t> serving((sites_.size() + kChunk - 1) / kChunk);
    parallelFor(sites_.size(), kChunk, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const auto view = table_.find(static_cast<UserId>(i + 1));
        if (view && view->state == SessionState::Serving) {
          ++serving[begin / kChunk];
        }
      }
    });
    std::uint64_t total = 0;
    for (const std::uint64_t n : serving) total += n;
    return total == occupied;
  }

  /// Queue every user the outage dropped for re-association at the next
  /// boundary with a fresh certificate; returns how many (the library's
  /// own drop count must agree).
  std::size_t queueReseeds(const Geodetic& center, double t) {
    const Vec3 centerEcef = geodeticToEcef(center);
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      if (siteEcef_[i].distanceTo(centerEcef) > w_.outageRadiusM) continue;
      const auto user = static_cast<UserId>(i + 1);
      const Certificate cert = authority_.issue(user, t);
      pending_.push_back(
          SessionSeed{user, sites_[i], cert.expiresAtS, cert.tag});
    }
    return pending_.size();
  }

  void queueArrivals(int e, double t) {
    const Geodetic& center =
        centers_[(seed_ * 7 + 3 * static_cast<std::uint64_t>(e)) %
                 centers_.size()]
            .location;
    const std::vector<SessionSeed> crowd =
        flashCrowdSeeds(authority_, center, kArrivalRadiusM, arrivals_,
                        static_cast<UserId>(sites_.size() + 1), t, rng_);
    remember(crowd);
    pending_.insert(pending_.end(), crowd.begin(), crowd.end());
  }

  void fold(const EpochStats& st, const TopologyDelta& delta,
            const CityFlows& flows, const FlowSimReport& report) {
    std::uint64_t& h = counts_.digest;
    h = fnv1a(h, st.eventChecksum);
    h = fnv1a(h, delta.linkCount);
    for (const PathTree& tree : trees_) {
      for (const double d : tree.distByIndex()) h = fnv1a(h, bitsOf(d));
    }
    h = fnv1a(h, flows.checksum);
    h = fnv1a(h, report.recordChecksum);
    counts_.handovers += st.handovers;
    counts_.touched += st.sessionsTouched;
    counts_.certHits += st.certCacheHits;
    counts_.certMisses += st.certCacheMisses;
    counts_.structuralSteps += delta.structural ? 1 : 0;
    counts_.linksChanged += delta.addedLinks + delta.removedLinks;
    counts_.packetsOffered += report.packetsOffered;
    counts_.packetsDelivered += report.packetsDelivered;
    counts_.packetsDropped += report.packetsDropped;
    counts_.events += report.eventsExecuted;
    for (const double u : report.edgeUtilization) {
      counts_.peakEdgeUtil = std::max(counts_.peakEdgeUtil, u);
    }
  }

  const Workload& w_;
  std::uint64_t seed_;
  Rng rng_;
  CertificateAuthority authority_;
  EphemerisService eph_;
  HandoverSweep sweeper_;  // publishes the fleet into eph_ first
  TopologyBuilder topo_;
  SessionTable table_;
  std::unique_ptr<IncrementalTopology> inc_;
  std::unique_ptr<NetworkGraph> nodeGraph_;
  SettlementEngine settlement_;
  std::vector<NodeId> gateways_;
  std::vector<NodeId> satNodes_;
  std::vector<PathTree> trees_;
  std::vector<PopulationCenter> centers_;
  std::vector<Geodetic> sites_;  ///< By user id - 1.
  std::vector<Vec3> siteEcef_;
  std::vector<SessionSeed> pending_;  ///< Seeded at the next epoch start.
  std::size_t arrivals_ = 0;
  int flowUsers_ = 0;
  HourCounts counts_;
};

/// Empty the process-wide snapshot, compiled-fleet and compiled-index
/// caches so each set-up and each hour starts cold, as the first one does.
/// A zero byte budget still keeps the newest entry, so a one-satellite
/// placeholder is compiled last and is all that stays.
void resetCaches() {
  static const std::vector<OrbitalElements> placeholder = {
      makeWalkerStar(iridiumConfig()).front()};
  SnapshotCache::global().clear();
  const std::size_t fleetBudget = FleetEphemeris::setCompiledCacheByteBudget(0);
  const std::size_t indexBudget =
      FootprintIndex2::setCompiledCacheByteBudget(0);
  (void)FootprintIndex2::compiled(
      std::make_shared<const ConstellationSnapshot>(placeholder, 0.0),
      kMaskRad);
  FleetEphemeris::setCompiledCacheByteBudget(fleetBudget);
  FootprintIndex2::setCompiledCacheByteBudget(indexBudget);
}

/// Set-up only: build a world and drop it.
double timeSetup(const Workload& w, std::uint64_t seed, double scale) {
  resetCaches();
  const Clock::time_point t0 = Clock::now();
  const World world(w, seed, scale);
  return secondsSince(t0);
}

HourResult runHour(const Workload& w, std::uint64_t seed, double scale,
                   int epochs, bool traced) {
  resetCaches();
  HourResult r;
  const Clock::time_point t0 = Clock::now();
  World world(w, seed, scale);
  r.setupS = secondsSince(t0);
  r.epochs.reserve(static_cast<std::size_t>(epochs));
  for (int e = 1; e <= epochs; ++e) {
    r.epochs.push_back(world.epoch(e, traced));
    if (r.epochs.back().failed) ++r.epochsFailed;
  }
  r.counts = world.finish();
  r.bytes = world.bytes();
  return r;
}

// --- statistics ------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Mean ms per epoch of one stage over an hour.
double stageMs(const HourResult& h, Stage s) {
  double sum = 0.0;
  for (const EpochRecord& e : h.epochs) sum += e.stageS[s];
  return 1e3 * ratio(sum, static_cast<double>(h.epochs.size()));
}

double layerMs(const HourResult& h, const Layer& layer) {
  double sum = 0.0;
  for (const Stage s : layer.stages) sum += stageMs(h, s);
  return sum;
}

// --- output ----------------------------------------------------------------

class JsonObject {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    raw(key, buf);
  }
  void count(const char* key, std::uint64_t v) { raw(key, std::to_string(v)); }
  void str(const char* key, const std::string& v) {
    raw(key, "\"" + v + "\"");
  }
  void boolean(const char* key, bool v) { raw(key, v ? "true" : "false"); }
  void raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string compilerName() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

std::string countsJson(const HourCounts& c) {
  JsonObject o;
  o.count("handovers", c.handovers);
  o.count("sessions_touched", c.touched);
  o.count("cert_hits", c.certHits);
  o.count("cert_misses", c.certMisses);
  o.count("structural_steps", c.structuralSteps);
  o.count("links_changed", c.linksChanged);
  o.count("repair_attempts", c.repairAttempts);
  o.count("repaired", c.repaired);
  o.count("queue_pops", c.queuePops);
  o.count("packets_offered", c.packetsOffered);
  o.count("packets_delivered", c.packetsDelivered);
  o.count("packets_dropped", c.packetsDropped);
  o.count("events", c.events);
  o.count("outage_drops", c.outageDrops);
  o.count("sessions", c.sessions);
  return o.text();
}

std::string perLayerJson(const HourResult& traced, const HourResult& serial,
                         double untracedRunS) {
  const HourCounts& c = traced.counts;
  const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  const double epochs = f(traced.epochs.size());
  const double sweepMs = stageMs(traced, kSessionSweep);
  const double flowSimMs = stageMs(traced, kSimFlowSim);
  std::vector<double> sweepEpochMs;
  for (const EpochRecord& e : traced.epochs) {
    sweepEpochMs.push_back(1e3 * e.stageS[kSessionSweep]);
  }
  const double benchS = traced.benchS();
  double spannedMs = 0.0;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    spannedMs += stageMs(traced, static_cast<Stage>(s));
  }
  const double tracedRunS = traced.runS();

  JsonObject o;
  o.num("orbit.propagate_ms", stageMs(traced, kOrbit));
  o.num("orbit.snapshot_cache_bytes", f(traced.bytes.snapshotCache));
  o.num("coverage.index_ms", stageMs(traced, kCoverage));
  o.num("coverage.index_cache_bytes", f(traced.bytes.indexCache));
  o.num("topology.step_ms", stageMs(traced, kTopology));
  o.num("topology.structural_frac", f(c.structuralSteps) / epochs);
  o.num("topology.links_changed", f(c.linksChanged) / epochs);
  o.num("routing.trees_ms", stageMs(traced, kRouting));
  o.num("routing.repair_ratio", ratio(f(c.repaired), f(c.repairAttempts)));
  o.num("routing.queue_pops", f(c.queuePops));
  o.num("session.sweep_ms", sweepMs);
  o.num("session.sweep_p95_ms", percentile(sweepEpochMs, 0.95));
  o.num("session.seed_ms", stageMs(traced, kSessionSeed));
  o.num("session.outage_ms", stageMs(traced, kSessionOutage));
  o.num("session.handovers", f(c.handovers));
  o.num("session.touched", f(c.touched));
  o.num("session.us_per_handover",
        1e3 * epochs * ratio(sweepMs, f(c.handovers)));
  o.num("session.cert_hit_ratio",
        ratio(f(c.certHits), f(c.certHits + c.certMisses)));
  o.num("session.table_bytes", f(traced.bytes.table));
  o.num("session.cert_cache_bytes", f(traced.bytes.certCache));
  o.num("sim.cityflows_ms", stageMs(traced, kSimCityFlows));
  o.num("sim.flowsim_ms", flowSimMs);
  o.num("sim.events_per_s", ratio(f(c.events), 1e-3 * epochs * flowSimMs));
  o.num("sim.packets_offered", f(c.packetsOffered));
  o.num("sim.loss_frac", ratio(f(c.packetsDropped), f(c.packetsOffered)));
  o.num("sim.peak_edge_util", c.peakEdgeUtil);
  o.num("econ.settle_ms", stageMs(traced, kEcon));
  for (const Layer& layer : kLayers) {
    const std::string key = std::string("concurrency.speedup.") + layer.name;
    o.num(key.c_str(), ratio(layerMs(serial, layer), layerMs(traced, layer)));
  }
  o.num("trace.unattributed_frac",
        1.0 - ratio(1e-3 * epochs * spannedMs, tracedRunS));
  o.num("trace.overhead_frac", ratio(tracedRunS, untracedRunS) - 1.0);
  o.num("trace.bench_frac", ratio(benchS, tracedRunS + benchS));
  o.count("epochs_failed", static_cast<std::uint64_t>(traced.epochsFailed +
                                                      serial.epochsFailed));
  return o.text();
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  double scale = 1.0;
  int epochs = 240;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "world_bench: %s\n"
               "usage: world_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--scale X] [--epochs N]\n",
               msg);
  std::exit(2);
}

/// Strict numeric parse: the whole argument must be consumed.
template <typename T>
T parseNumber(const char* flag, const char* text, T lo, T hi) {
  char* end = nullptr;
  errno = 0;
  double v = 0.0;
  if constexpr (std::is_integral_v<T>) {
    v = static_cast<double>(std::strtoull(text, &end, 10));
  } else {
    v = std::strtod(text, &end);
  }
  if (end == text || *end != '\0' || errno != 0 ||
      !(v >= static_cast<double>(lo)) || !(v <= static_cast<double>(hi))) {
    usage((std::string("bad value for ") + flag + ": " + text).c_str());
  }
  return static_cast<T>(v);
}

Options parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) o.workload = &w;
      }
      if (o.workload == nullptr) {
        usage((std::string("unknown workload ") + v).c_str());
      }
    } else if (flag == "--seed") {
      o.seed = parseNumber<std::uint64_t>("--seed", v, 0, 1ull << 53);
    } else if (flag == "--seconds") {
      o.seconds = parseNumber<double>("--seconds", v, 0.0, 3'600.0);
    } else if (flag == "--trace") {
      o.trace = parseNumber<int>("--trace", v, 0, 1) == 1;
    } else if (flag == "--scale") {
      o.scale = parseNumber<double>("--scale", v, 1e-4, 10.0);
    } else if (flag == "--epochs") {
      o.epochs = parseNumber<int>("--epochs", v, 1, 100'000);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseOptions(argc, argv);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const int threads = static_cast<int>(std::min(nproc, kPoolThreadsMax));
  setParallelThreadCount(threads);
  const Workload& w = *opt.workload;

  std::vector<HourResult> hours;
  JsonObject out;
  out.str("workload", w.name);
  out.count("seed", opt.seed);
  out.num("scale", opt.scale);
  out.count("epochs_per_hour", static_cast<std::uint64_t>(opt.epochs));
  JsonObject fp;
  fp.count("nproc", nproc);
  fp.str("compiler", compilerName());
  fp.str("build_type", WORLDBENCH_BUILD_TYPE);
  fp.str("simd", simdLevelName(activeSimdLevel()));
  fp.count("pool_threads", static_cast<std::uint64_t>(threads));
  out.raw("fingerprint", fp.text());

  // A short warm-up hour first: the pool threads start and the heap is
  // faulted in before any measured hour. Its set-up is the process's cold
  // one and counts as a set-up sample.
  std::vector<double> setupS = {
      runHour(w, opt.seed, opt.scale, std::min(opt.epochs, kWarmupEpochs),
              false)
          .setupS};
  if (opt.trace) {
    hours.push_back(runHour(w, opt.seed, opt.scale, opt.epochs, false));
    hours.push_back(runHour(w, opt.seed, opt.scale, opt.epochs, true));
    setParallelThreadCount(1);
    hours.push_back(runHour(w, opt.seed, opt.scale, opt.epochs, true));
    setParallelThreadCount(threads);
    out.raw("per_layer",
            perLayerJson(hours[1], hours[2], hours[0].runS()));
  } else {
    // Start another hour only while it is expected to finish in budget.
    const Clock::time_point start = Clock::now();
    do {
      hours.push_back(runHour(w, opt.seed, opt.scale, opt.epochs, false));
      setupS.push_back(hours.back().setupS);
    } while (secondsSince(start) + hours.back().setupS + hours.back().runS() +
                 hours.back().benchS() <=
             opt.seconds);
    double setupTotalS = 0.0;
    for (const double s : setupS) setupTotalS += s;
    while (setupS.size() < kSetupSamples || setupTotalS < kSetupBudgetS) {
      setupS.push_back(timeSetup(w, opt.seed, opt.scale));
      setupTotalS += setupS.back();
    }
  }

  std::vector<double> runS, epochMs;
  int failed = 0;
  bool stable = true;
  for (const HourResult& h : hours) {
    runS.push_back(h.runS());
    for (const EpochRecord& e : h.epochs) epochMs.push_back(1e3 * e.runS());
    failed += h.epochsFailed;
    // In a traced run the last hour ran at one thread: serial == parallel.
    stable = stable && h.counts.digest == hours.front().counts.digest &&
             countsJson(h.counts) == countsJson(hours.front().counts);
  }
  if (!opt.trace) {
    JsonObject e2e;
    e2e.num("setup_s", median(setupS));
    e2e.num("run_s", median(runS));
    e2e.num("epoch_p50_ms", percentile(epochMs, 0.50));
    e2e.num("epoch_p95_ms", percentile(epochMs, 0.95));
    e2e.num("peak_rss_mb", peakRssMiB());
    out.raw("end_to_end", e2e.text());
  }
  out.count("hours", hours.size());
  std::string hourRunS;
  for (const double r : runS) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6f", hourRunS.empty() ? "" : ", ", r);
    hourRunS += buf;
  }
  out.raw("hour_run_s", "[" + hourRunS + "]");
  out.count("epochs_attempted", epochMs.size());
  out.count("epochs_failed", static_cast<std::uint64_t>(failed));
  out.str("digest", hex64(hours.front().counts.digest));
  out.boolean("outputs_stable", stable);
  out.raw("counts", countsJson(hours.front().counts));
  out.str("repair_fallback", hours.front().counts.repairFallback);
  std::printf("%s\n", out.text().c_str());
  return 0;
}
