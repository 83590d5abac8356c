#include <openspace/security/reputation.hpp>

#include <algorithm>
#include <cmath>
#include <set>

#include <openspace/geo/error.hpp>

namespace openspace {

std::string_view misbehaviorName(MisbehaviorKind k) noexcept {
  switch (k) {
    case MisbehaviorKind::LedgerInflation: return "ledger-inflation";
    case MisbehaviorKind::TamperedPayload: return "tampered-payload";
    case MisbehaviorKind::AuthAbuse: return "auth-abuse";
    case MisbehaviorKind::Interception: return "interception";
  }
  return "?";
}

ReputationTracker::ReputationTracker(double quarantineScore,
                                     double priorGoodCount, double priorBadCount)
    : quarantineScore_(quarantineScore),
      priorGoodCount_(priorGoodCount),
      priorBadCount_(priorBadCount) {
  if (quarantineScore <= 0.0 || quarantineScore >= 1.0) {
    throw InvalidArgumentError("ReputationTracker: threshold must be in (0,1)");
  }
  if (priorGoodCount <= 0.0 || priorBadCount <= 0.0) {
    throw InvalidArgumentError("ReputationTracker: priors must be > 0");
  }
}

ReputationTracker::Record& ReputationTracker::recordOf(ProviderId p) {
  const auto it = records_.find(p);
  if (it != records_.end()) return it->second;
  return records_.emplace(p, Record{priorGoodCount_, priorBadCount_, {}}).first->second;
}

void ReputationTracker::reportMisbehavior(ProviderId p, MisbehaviorKind kind,
                                          double severityWeight) {
  if (severityWeight < 0.0) {
    throw InvalidArgumentError("reportMisbehavior: negative severityWeight");
  }
  Record& r = recordOf(p);
  r.badCount += severityWeight;
  r.incidents[kind] += 1;
}

void ReputationTracker::reportGoodService(ProviderId p, double weight) {
  if (weight < 0.0) {
    throw InvalidArgumentError("reportGoodService: negative weight");
  }
  recordOf(p).goodCount += weight;
}

double ReputationTracker::score(ProviderId p) const {
  const auto it = records_.find(p);
  if (it == records_.end()) return priorGoodCount_ / (priorGoodCount_ + priorBadCount_);
  return it->second.goodCount / (it->second.goodCount + it->second.badCount);
}

bool ReputationTracker::quarantined(ProviderId p) const {
  return score(p) < quarantineScore_;
}

std::vector<ProviderId> ReputationTracker::quarantinedProviders() const {
  std::vector<ProviderId> out;
  for (const auto& [p, r] : records_) {
    if (quarantined(p)) out.push_back(p);
  }
  return out;
}

std::map<MisbehaviorKind, int> ReputationTracker::incidents(ProviderId p) const {
  const auto it = records_.find(p);
  return it == records_.end() ? std::map<MisbehaviorKind, int>{}
                              : it->second.incidents;
}

std::vector<LedgerDiscrepancy> auditLedgers(const SettlementEngine& engine,
                                            double toleranceBytes) {
  std::vector<LedgerDiscrepancy> findings;
  const auto providers = engine.providers();
  // Union of keys across all books.
  std::set<std::pair<ProviderId, ProviderId>> keys;
  for (const ProviderId p : providers) {
    for (const auto& [key, bytes] : engine.ledger(p).entries()) keys.insert(key);
  }
  for (const auto& [carrier, owner] : keys) {
    if (carrier == owner) continue;
    const bool haveCarrier =
        std::find(providers.begin(), providers.end(), carrier) != providers.end();
    const bool haveOwner =
        std::find(providers.begin(), providers.end(), owner) != providers.end();
    if (!haveCarrier || !haveOwner) continue;
    const double byCarrier = engine.ledger(carrier).carriedBytes(carrier, owner);
    const double byOwner = engine.ledger(owner).carriedBytes(carrier, owner);
    if (std::abs(byCarrier - byOwner) <= toleranceBytes) continue;

    LedgerDiscrepancy d;
    d.carrier = carrier;
    d.owner = owner;
    d.carrierClaimBytes = byCarrier;
    d.ownerClaimBytes = byOwner;
    // Witness arbitration: every witness saw a subset of the true traffic,
    // so the true volume >= max witnessed volume. A principal claiming
    // *less* than that is understating; a principal claiming more than the
    // other while no witness backs the excess is overstating.
    double witnessMax = 0.0;
    for (const ProviderId w : providers) {
      if (w == carrier || w == owner) continue;
      witnessMax =
          std::max(witnessMax, engine.ledger(w).carriedBytes(carrier, owner));
    }
    if (witnessMax > 0.0) {
      const double carrierErr =
          (byCarrier < witnessMax - toleranceBytes)
              ? witnessMax - byCarrier                      // understating
              : std::max(0.0, byCarrier - witnessMax);      // above witness
      const double ownerErr = (byOwner < witnessMax - toleranceBytes)
                                  ? witnessMax - byOwner
                                  : std::max(0.0, byOwner - witnessMax);
      d.suspected = (carrierErr > ownerErr) ? carrier : owner;
    }
    findings.push_back(d);
  }
  return findings;
}

void applyAuditFindings(const std::vector<LedgerDiscrepancy>& findings,
                        ReputationTracker& reputation) {
  for (const auto& d : findings) {
    if (!d.suspected.isValid()) continue;  // unarbitrated: no attribution
    const double base = std::max(d.carrierClaimBytes, d.ownerClaimBytes);
    const double severityWeight =
        (base > 0.0)
            ? std::abs(d.carrierClaimBytes - d.ownerClaimBytes) / base
            : 1.0;
    reputation.reportMisbehavior(d.suspected, MisbehaviorKind::LedgerInflation,
                                 severityWeight * 4.0);
  }
}

LinkCostFn quarantineAwareCost(LinkCostFn base, const ReputationTracker& rep) {
  return [base = std::move(base), &rep](const Link& l, const Node& a,
                                        const Node& b,
                                        ProviderId home) -> double {
    if (rep.quarantined(a.provider) || rep.quarantined(b.provider)) {
      return std::numeric_limits<double>::infinity();
    }
    return base(l, a, b, home);
  };
}

}  // namespace openspace
