// openspace_cli — a small command-line front end over the library, the kind
// of tool an OpenSpace participant would script against.
//
//   $ ./openspace_cli generate 66 6 780 86.4 > fleet.txt
//   $ ./openspace_cli coverage fleet.txt 10
//   $ ./openspace_cli route fleet.txt 40.44 -79.99 48.86 2.35
//   $ ./openspace_cli flood fleet.txt
//
// Numeric arguments are parsed strictly: the whole token must be one finite
// number ("780", not "780km"), or the command fails with a typed error and
// a non-zero exit status.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>

#include <openspace/coverage/coverage.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/io/ephemeris_io.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/routing/linkstate.hpp>
#include <openspace/topology/builder.hpp>

namespace {

using namespace openspace;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  openspace_cli generate <sats> <planes> <alt_km> <incl_deg>\n"
               "      emit a Walker Star ephemeris file on stdout\n"
               "  openspace_cli coverage <file> <mask_deg>\n"
               "      Monte-Carlo coverage of the fleet in <file>\n"
               "  openspace_cli route <file> <lat1> <lon1> <lat2> <lon2>\n"
               "      route between two ground sites over the fleet\n"
               "  openspace_cli flood <file>\n"
               "      LSA flood convergence over the fleet's ISL mesh\n");
  return 2;
}

/// The whole of `token` as a finite T. Throws InvalidArgumentError naming
/// `what` for an empty token, trailing characters, overflow or a non-finite
/// value.
template <typename T>
T parseNumber(const char* token, const char* what) {
  const char* end = token + std::strlen(token);
  T value{};
  const auto [ptr, ec] = std::from_chars(token, end, value);
  bool ok = token != end && ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    throw InvalidArgumentError(std::string("invalid ") + what + " '" + token +
                               "': expected a number");
  }
  return value;
}

EphemerisService loadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw NotFoundError("cannot open '" + path + "'");
  return loadEphemeris(in);
}

int cmdGenerate(int argc, char** argv) {
  if (argc != 6) return usage();
  WalkerConfig wc;
  wc.totalSatellites = parseNumber<int>(argv[2], "<sats>");
  wc.planes = parseNumber<int>(argv[3], "<planes>");
  wc.phasing = 1 % std::max(1, wc.planes);
  wc.altitudeM = km(parseNumber<double>(argv[4], "<alt_km>"));
  wc.inclinationRad = deg2rad(parseNumber<double>(argv[5], "<incl_deg>"));
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(wc)) eph.publish(ProviderId{1}, el);
  saveEphemeris(eph, std::cout);
  return 0;
}

int cmdCoverage(int argc, char** argv) {
  if (argc != 4) return usage();
  const double maskRad = deg2rad(parseNumber<double>(argv[3], "<mask_deg>"));
  const EphemerisService eph = loadFile(argv[2]);
  std::vector<OrbitalElements> sats;
  for (const SatelliteId sid : eph.satellites()) {
    sats.push_back(eph.record(sid).elements);
  }
  Rng rng(1);
  const auto cov = monteCarloCoverage(sats, 0.0, maskRad, 20'000, rng);
  std::printf("satellites: %zu\ncoverage:   %.2f%%\n", sats.size(),
              100.0 * cov.coverageFraction);
  return 0;
}

int cmdRoute(int argc, char** argv) {
  if (argc != 7) return usage();
  const Geodetic siteA = Geodetic::fromDegrees(
      parseNumber<double>(argv[3], "<lat1>"), parseNumber<double>(argv[4], "<lon1>"));
  const Geodetic siteB = Geodetic::fromDegrees(
      parseNumber<double>(argv[5], "<lat2>"), parseNumber<double>(argv[6], "<lon2>"));
  const EphemerisService eph = loadFile(argv[2]);
  TopologyBuilder topo(eph);
  const NodeId a = topo.addUser({"site-a", siteA, ProviderId{1}});
  const NodeId b =
      topo.nodeOf(topo.addGroundStation({"site-b", siteB, ProviderId{2}}));
  SnapshotOptions opt;
  opt.wiring = IslWiring::NearestNeighbors;
  opt.nearestK = 4;
  opt.minElevationRad = deg2rad(10.0);
  const NetworkGraph g = topo.snapshot(0.0, opt);
  const Route r = RouteEngine(g, latencyCost()).shortestPath(a, b);
  if (!r.valid()) {
    std::printf("no path at t=0 (site out of coverage or mesh partitioned)\n");
    return 1;
  }
  std::printf("hops: %d\nlatency: %.2f ms\nbottleneck: %.1f Mbps\npath:", r.hops(),
              toMilliseconds(r.totalDelayS()), r.bottleneckBps / 1e6);
  for (const NodeId n : r.nodes) std::printf(" %s", g.node(n).name.c_str());
  std::printf("\n");
  return 0;
}

int cmdFlood(int argc, char** argv) {
  if (argc != 3) return usage();
  const EphemerisService eph = loadFile(argv[2]);
  TopologyBuilder topo(eph);
  SnapshotOptions opt;
  opt.wiring = IslWiring::NearestNeighbors;
  opt.nearestK = 4;
  const NetworkGraph g = topo.snapshot(0.0, opt);
  const auto sats = g.nodesOfKind(NodeKind::Satellite);
  if (sats.empty()) {
    std::printf("empty fleet\n");
    return 1;
  }
  const FloodReport rep = simulateLsaFlood(g, sats.front());
  std::printf("satellites reached: %d / %zu\nconvergence: %.1f ms\n"
              "messages: %d\n",
              rep.nodesReached, sats.size(),
              toMilliseconds(rep.convergenceTimeS), rep.messagesSent);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmdGenerate(argc, argv);
    if (cmd == "coverage") return cmdCoverage(argc, argv);
    if (cmd == "route") return cmdRoute(argc, argv);
    if (cmd == "flood") return cmdFlood(argc, argv);
  } catch (const openspace::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
