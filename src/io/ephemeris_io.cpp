#include <openspace/io/ephemeris_io.hpp>

#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include <openspace/geo/error.hpp>
#include <openspace/orbit/elements.hpp>

namespace openspace {

namespace {

void setFullPrecision(std::ostream& os) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
}

[[noreturn]] void malformed(int lineNo, const std::string& line,
                            const std::string& why) {
  throw ProtocolError("ephemeris_io: line " + std::to_string(lineNo) + " " +
                      why + ": '" + line + "'");
}

}  // namespace

void saveEphemeris(const EphemerisService& eph, std::ostream& os) {
  setFullPrecision(os);
  os << "# openspace ephemeris v1: sat <id> <owner> <a_m> <e> <incl> <raan>"
        " <argp> <M0>\n";
  for (const SatelliteId sid : eph.satellites()) {
    const EphemerisRecord& rec = eph.record(sid);
    const OrbitalElements& el = rec.elements;
    os << "sat " << sid << ' ' << rec.owner << ' ' << el.semiMajorAxisM << ' '
       << el.eccentricity << ' ' << el.inclinationRad << ' ' << el.raanRad
       << ' ' << el.argPerigeeRad << ' ' << el.meanAnomalyAtEpochRad << '\n';
  }
}

EphemerisService loadEphemeris(std::istream& is) {
  EphemerisService eph;
  std::string line;
  int lineNo = 0;
  while (std::getline(is, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string kind;
    ss >> kind;
    if (kind != "sat") continue;  // site lines and unknown records: skip
    // Serialization boundary: ids cross the wire as raw integers.
    SatelliteId::rep_type idValue = 0;
    ProviderId::rep_type ownerValue = 0;
    OrbitalElements el;
    ss >> idValue >> ownerValue >> el.semiMajorAxisM >> el.eccentricity >>
        el.inclinationRad >> el.raanRad >> el.argPerigeeRad >>
        el.meanAnomalyAtEpochRad;
    if (ss.fail()) malformed(lineNo, line, "has a malformed sat record");
    const SatelliteId id{idValue};
    const ProviderId owner{ownerValue};
    if (!id.isValid()) malformed(lineNo, line, "uses reserved satellite id 0");
    // "nan" and "inf" parse as valid doubles; the shared check refuses
    // them along with every other element set the propagators reject.
    try {
      requireValidElements(el);
    } catch (const InvalidArgumentError& e) {
      malformed(lineNo, line, std::string("has invalid elements (") +
                                  e.what() + ")");
    }
    try {
      eph.publishWithId(id, owner, el);
    } catch (const InvalidArgumentError&) {
      malformed(lineNo, line, "duplicates satellite id");
    }
  }
  return eph;
}

void saveSites(const std::vector<SiteRecord>& sites, std::ostream& os) {
  setFullPrecision(os);
  os << "# openspace sites v1: site <kind> <provider> <lat> <lon> <alt>"
        " <name...>\n";
  for (const SiteRecord& s : sites) {
    os << "site " << (s.isStation ? "station" : "user") << ' '
       << s.site.provider << ' ' << s.site.location.latitudeRad << ' '
       << s.site.location.longitudeRad << ' ' << s.site.location.altitudeM
       << ' ' << s.site.name << '\n';
  }
}

std::vector<SiteRecord> loadSites(std::istream& is) {
  std::vector<SiteRecord> out;
  std::string line;
  int lineNo = 0;
  while (std::getline(is, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string kind;
    ss >> kind;
    if (kind != "site") continue;
    SiteRecord rec;
    std::string siteKind;
    ProviderId::rep_type providerValue = 0;
    ss >> siteKind >> providerValue >> rec.site.location.latitudeRad >>
        rec.site.location.longitudeRad >> rec.site.location.altitudeM;
    if (ss.fail()) malformed(lineNo, line, "has a malformed site record");
    if (!std::isfinite(rec.site.location.latitudeRad) ||
        !std::isfinite(rec.site.location.longitudeRad) ||
        !std::isfinite(rec.site.location.altitudeM)) {
      malformed(lineNo, line, "has a non-finite coordinate");
    }
    rec.site.provider = ProviderId{providerValue};
    if (siteKind == "station") {
      rec.isStation = true;
    } else if (siteKind == "user") {
      rec.isStation = false;
    } else {
      malformed(lineNo, line, "has unknown site kind '" + siteKind + "'");
    }
    std::getline(ss, rec.site.name);
    // Trim the single separating space.
    if (!rec.site.name.empty() && rec.site.name.front() == ' ') {
      rec.site.name.erase(0, 1);
    }
    if (rec.site.name.empty()) malformed(lineNo, line, "is missing a name");
    out.push_back(std::move(rec));
  }
  return out;
}

std::string ephemerisToString(const EphemerisService& eph) {
  std::ostringstream os;
  saveEphemeris(eph, os);
  return os.str();
}

EphemerisService ephemerisFromString(const std::string& text) {
  std::istringstream is(text);
  return loadEphemeris(is);
}

}  // namespace openspace
