// Anchor C / ablation: handover cadence and the predictive-vs-reassociate
// comparison (§2.2 "Satellite Handovers").
//
// Expectation: LEO handovers are frequent (Starlink: every ~15 s with
// thousands of satellites; an Iridium-like 66-sat constellation hands over
// on the order of minutes). OpenSpace's predictive scheme should cut
// per-handover outage by orders of magnitude versus re-running association
// + RADIUS authentication every time.
//
// Each study runs on the library's handover engine: the user's whole
// window is a one-user, one-shard SessionTable seeded with
// SeedMode::Planner and a non-expiring certificate, then swept by one
// HandoverSweep::runEpoch. Handover count, mean interval and mean latency
// come from the SessionEvents, outage from EpochStats::outageS. Untimed
// afterwards, every study is re-run on the per-user spec simulateHandovers
// (openspace_spec): any event or outage that differs by a bit fails the
// bench (non-zero exit) — a hard gate, like bench_session's.
//
// Besides the human-readable tables the bench writes a machine-readable
// JSON record to BENCH_handover.json (or argv[1]); argv[2] is an optional
// workload scale applied to the service window (0.2 for a quick run). The
// timelines are deterministic seeded computations, so
// tools/bench_compare.py re-asserts the cadence numbers exactly against
// the committed baseline (recorded at scale 1.0) — any drift is a semantic
// change, not noise.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include <openspace/core/hash.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/session/handover_sweep.hpp>
#include <openspace/session/session_table.hpp>
#include <openspace/spec/handover.hpp>

namespace {

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ModeStats {
  int handovers = 0;
  double meanIntervalS = 0.0;
  double meanLatencyS = 0.0;
  double outageS = 0.0;
  double availabilityPct = 0.0;
};

struct CadenceRow {
  int sats = 0;
  int handovers = 0;
  double intervalS = 0.0;
};

const double kMaskRad = openspace::deg2rad(10.0);

/// One user's service window on the handover engine.
struct Study {
  std::vector<openspace::SessionEvent> events;
  double outageS = 0.0;
  double meanIntervalS = 0.0;  ///< Mean time between handovers.
  int handovers() const noexcept { return static_cast<int>(events.size()); }
};

/// Sweep `user`'s window [0, horizonS] as a one-user, one-shard table in a
/// single epoch.
Study runStudy(const openspace::EphemerisService& eph,
               const openspace::Geodetic& user, double horizonS,
               openspace::HandoverMode mode) {
  using namespace openspace;
  SweepConfig cfg;
  cfg.minElevationRad = kMaskRad;
  cfg.mode = mode;
  const HandoverSweep sweep(eph, cfg);
  SessionTable table(eph.size(), 1);
  sweep.seed(table,
             {SessionSeed{1, user, std::numeric_limits<double>::infinity(), 1}},
             0.0, SeedMode::Planner);
  Study s;
  s.outageS = sweep.runEpoch(table, horizonS, &s.events).outageS;
  // The spec's definition: a lone handover counts the whole window.
  if (s.events.size() >= 2) {
    s.meanIntervalS = (s.events.back().atS - s.events.front().atS) /
                      static_cast<double>(s.events.size() - 1);
  } else if (s.events.size() == 1) {
    s.meanIntervalS = horizonS;
  }
  return s;
}

/// True iff the study is bit-for-bit the spec timeline: every event and
/// the outage.
bool matchesSpec(const openspace::EphemerisService& eph,
                 const openspace::Geodetic& user, double horizonS,
                 openspace::HandoverMode mode, const Study& s) {
  using namespace openspace;
  const HandoverTimeline tl =
      simulateHandovers(eph, kMaskRad, user, 0.0, horizonS, mode);
  if (s.events.size() != tl.events.size() ||
      bitsOf(s.outageS) != bitsOf(tl.outageS)) {
    return false;
  }
  const auto& sats = eph.satellites();
  for (std::size_t j = 0; j < s.events.size(); ++j) {
    const SessionEvent& got = s.events[j];
    const HandoverEvent& want = tl.events[j];
    if (bitsOf(got.atS) != bitsOf(want.atS) || sats[got.fromSat] != want.from ||
        sats[got.toSat] != want.to ||
        bitsOf(got.latencyS) != bitsOf(want.latencyS)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace openspace;

  const char* jsonPath = argc > 1 ? argv[1] : "BENCH_handover.json";
  const double scale =
      argc > 2 ? std::clamp(std::atof(argv[2]), 1e-3, 10.0) : 1.0;
  const double wallStartS = nowS();

  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);

  const Geodetic user = Geodetic::fromDegrees(40.4406, -79.9959);  // Pittsburgh
  // Two hours of service at scale 1.0; never below ten minutes (a shorter
  // window has too few handovers to say anything).
  const double horizon = std::max(600.0, 2.0 * 3600.0 * scale);

  std::printf("# Handover study: Iridium-like 66-sat Walker Star, "
              "user at Pittsburgh, 10 deg mask, %.0f min window\n\n",
              horizon / 60.0);

  // Every study, for the spec gate after the timed region.
  struct Gate {
    const EphemerisService* eph;
    HandoverMode mode;
    Study study;
  };
  std::vector<Gate> gates;

  ModeStats predictive, reassociate;
  for (const HandoverMode mode :
       {HandoverMode::Predictive, HandoverMode::ReAssociate}) {
    const Study tl = runStudy(eph, user, horizon, mode);
    const char* name =
        (mode == HandoverMode::Predictive) ? "predictive" : "re-associate";
    double meanLatency = 0.0;
    for (const auto& ev : tl.events) meanLatency += ev.latencyS;
    if (!tl.events.empty()) {
      meanLatency /= static_cast<double>(tl.events.size());
    }
    ModeStats& out =
        (mode == HandoverMode::Predictive) ? predictive : reassociate;
    out.handovers = tl.handovers();
    out.meanIntervalS = tl.meanIntervalS;
    out.meanLatencyS = meanLatency;
    out.outageS = tl.outageS;
    out.availabilityPct = 100.0 * (1.0 - tl.outageS / horizon);
    std::printf("%-13s handovers=%-4d mean_interval=%6.1f s  "
                "mean_handover_latency=%8.3f ms  total_outage=%8.3f s  "
                "availability=%.4f%%\n",
                name, tl.handovers(), tl.meanIntervalS,
                toMilliseconds(meanLatency), tl.outageS,
                100.0 * (1.0 - tl.outageS / horizon));
    gates.push_back({&eph, mode, tl});
  }

  // Handover cadence vs constellation density (the Starlink-15s anchor:
  // cadence shortens as fleets densify; rich fleets can afford to switch
  // to the best satellite often).
  std::printf("\n# cadence vs density (predictive):\n");
  std::printf("%-8s %-12s %-14s\n", "sats", "handovers", "interval_s");
  std::vector<CadenceRow> cadence;
  // Stable addresses: the gate below revisits each fleet.
  std::vector<EphemerisService> fleets(6);
  for (const int n : {11, 22, 44, 66, 132, 264}) {
    EphemerisService& e2 = fleets[cadence.size()];
    WalkerConfig wc = iridiumConfig();
    wc.totalSatellites = n;
    wc.planes = (n % 11 == 0) ? n / 11 : 6;
    if (n % wc.planes != 0) wc.planes = 1;
    wc.phasing = wc.phasing % wc.planes;
    for (const auto& el : makeWalkerStar(wc)) e2.publish(ProviderId{1}, el);
    const Study tl = runStudy(e2, user, horizon, HandoverMode::Predictive);
    gates.push_back({&e2, HandoverMode::Predictive, tl});
    cadence.push_back({n, tl.handovers(), tl.meanIntervalS});
    std::printf("%-8d %-12d %-14.1f\n", n, tl.handovers(), tl.meanIntervalS);
  }

  const double outageRatio =
      predictive.outageS > 0.0 ? reassociate.outageS / predictive.outageS
                               : 0.0;
  const double wallS = nowS() - wallStartS;
  if (std::FILE* f = std::fopen(jsonPath, "w")) {
    std::fprintf(
        f,
        "{\n  \"bench\": \"handover\",\n"
        "  \"wall_seconds\": %.6f,\n"
        "  \"scale\": %.4f,\n"
        "  \"horizon_s\": %.3f,\n"
        "  \"predictive_handovers\": %d,\n"
        "  \"predictive_mean_interval_s\": %.6f,\n"
        "  \"predictive_mean_latency_ms\": %.6f,\n"
        "  \"predictive_outage_s\": %.6f,\n"
        "  \"predictive_availability_pct\": %.6f,\n"
        "  \"reassociate_handovers\": %d,\n"
        "  \"reassociate_mean_interval_s\": %.6f,\n"
        "  \"reassociate_mean_latency_ms\": %.6f,\n"
        "  \"reassociate_outage_s\": %.6f,\n"
        "  \"reassociate_availability_pct\": %.6f,\n"
        "  \"outage_ratio\": %.3f,\n"
        "  \"cadence\": [",
        wallS, scale, horizon, predictive.handovers,
        predictive.meanIntervalS, 1e3 * predictive.meanLatencyS,
        predictive.outageS, predictive.availabilityPct,
        reassociate.handovers, reassociate.meanIntervalS,
        1e3 * reassociate.meanLatencyS, reassociate.outageS,
        reassociate.availabilityPct, outageRatio);
    for (std::size_t i = 0; i < cadence.size(); ++i) {
      std::fprintf(f,
                   "%s\n    {\"sats\": %d, \"handovers\": %d, "
                   "\"interval_s\": %.6f}",
                   i ? "," : "", cadence[i].sats, cadence[i].handovers,
                   cadence[i].intervalS);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\n# json: %s\n", jsonPath);
  }

  // --- spec gate (untimed): every study == simulateHandovers, bit for bit.
  // Reported on stderr so the tables above stay comparable run to run.
  std::size_t events = 0;
  bool allMatch = true;
  for (const Gate& g : gates) {
    events += g.study.events.size();
    allMatch = allMatch && matchesSpec(*g.eph, user, horizon, g.mode, g.study);
  }
  std::fprintf(stderr, "# spec gate: %zu timelines, %zu events: %s\n",
               gates.size(), events, allMatch ? "MATCH" : "MISMATCH");
  return allMatch ? 0 : 1;
}
