// Bad-actor detection and quarantine (paper §5(6)).
//
// "What security protocols can be enforced to ensure that a malicious
// provider does not take down the whole system? ... it is worth exploring
// a security protocol to quickly identify and cut off bad actors in the
// network." The pieces here:
//  * ReputationTracker — per-provider evidence accumulation with a
//    quarantine threshold; quarantined providers are cut out of routing.
//  * auditLedgers — turns the §3 cross-verifiable accounting into a
//    detector: discrepancies between the transacting parties' books are
//    attributed using third-party witnesses.
//  * quarantineAwareCost — a routing cost wrapper that refuses links
//    carried by quarantined providers.
#pragma once

#include <map>
#include <vector>

#include <openspace/econ/ledger.hpp>
#include <openspace/routing/route.hpp>

namespace openspace {

/// Kinds of observed misbehavior.
enum class MisbehaviorKind {
  LedgerInflation,   ///< Billing for traffic the counterparty never saw.
  TamperedPayload,   ///< Integrity tag failures on relayed user data.
  AuthAbuse,         ///< Forged/replayed authentication material.
  Interception,      ///< Evidence of traffic diversion to a non-member.
};

std::string_view misbehaviorName(MisbehaviorKind k) noexcept;

/// Beta-style reputation: score = good / (good + bad), with configurable
/// prior so new providers start trusted but not unimpeachable. Providers
/// whose score falls below the quarantine threshold are cut off until
/// enough good evidence accumulates.
class ReputationTracker {
 public:
  /// Throws InvalidArgumentError unless 0 < threshold < 1.
  explicit ReputationTracker(double quarantineScore = 0.5,
                             double priorGoodCount = 8.0, double priorBadCount = 1.0);

  /// Record misbehavior evidence; `severityWeight` scales the evidence (>= 0).
  void reportMisbehavior(ProviderId p, MisbehaviorKind kind,
                         double severityWeight = 1.0);

  /// Record successfully-audited good service.
  void reportGoodService(ProviderId p, double weight = 1.0);

  /// Current score in (0, 1); unknown providers return the prior score.
  double score(ProviderId p) const;

  bool quarantined(ProviderId p) const;
  std::vector<ProviderId> quarantinedProviders() const;

  /// Misbehavior counts by kind, for reporting.
  std::map<MisbehaviorKind, int> incidents(ProviderId p) const;

 private:
  struct Record {
    double goodCount;
    double badCount;
    std::map<MisbehaviorKind, int> incidents;
  };
  Record& recordOf(ProviderId p);

  double quarantineScore_;
  double priorGoodCount_;
  double priorBadCount_;
  std::map<ProviderId, Record> records_;
};

/// A detected books mismatch between a carrier and a traffic owner.
struct LedgerDiscrepancy {
  ProviderId carrier{};
  ProviderId owner{};
  double carrierClaimBytes = 0.0;
  double ownerClaimBytes = 0.0;
  /// The party whose claim disagrees with the witness consensus. 0 when no
  /// witness can arbitrate (the two principals simply disagree).
  ProviderId suspected{};
};

/// Audit every (carrier, owner) pair across all ledgers. For each mismatch
/// between the principals, third-party witnesses arbitrate: whichever
/// principal is farther from the maximum witnessed volume is suspected
/// (witnesses see subsets, so the true total is at least the witness max).
std::vector<LedgerDiscrepancy> auditLedgers(const SettlementEngine& engine,
                                            double toleranceBytes = 0.5);

/// Feed audit results into a reputation tracker (severityWeight scales with the
/// relative size of the discrepancy).
void applyAuditFindings(const std::vector<LedgerDiscrepancy>& findings,
                        ReputationTracker& reputation);

/// Wrap a cost function so links whose carrying providers are quarantined
/// become unroutable — the "cut off bad actors" enforcement point. `rep` is
/// captured by reference and must outlive every holder of the returned
/// cost (an IncrementalTopology keeps it for its whole sweep).
LinkCostFn quarantineAwareCost(LinkCostFn base, const ReputationTracker& rep);

}  // namespace openspace
