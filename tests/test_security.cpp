// Unit tests for the security module (§5(6)): authenticated encryption,
// reputation/quarantine, ledger auditing, quarantine-aware routing.
#include <gtest/gtest.h>

#include <openspace/econ/ledger.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/security/crypto.hpp>
#include <openspace/security/reputation.hpp>

namespace openspace {
namespace {

TEST(SecureChannel, RoundTrip) {
  const SecureChannel ch(0xDEADBEEFCAFEull);
  const SealedMessage msg = ch.seal("user payload over ISLs", 1);
  const auto plain = ch.open(msg);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, "user payload over ISLs");
}

TEST(SecureChannel, CiphertextDiffersFromPlaintext) {
  const SecureChannel ch(42);
  const SealedMessage msg = ch.seal("secret", 7);
  std::string raw(msg.ciphertext.begin(), msg.ciphertext.end());
  EXPECT_NE(raw, "secret");
  EXPECT_EQ(msg.ciphertext.size(), 6u);
}

TEST(SecureChannel, TamperingDetected) {
  const SecureChannel ch(42);
  SealedMessage msg = ch.seal("do not modify", 9);
  msg.ciphertext[3] ^= 0x01;  // a malicious relay flips one bit
  EXPECT_EQ(ch.open(msg), std::nullopt);
}

TEST(SecureChannel, TagForgeryDetected) {
  const SecureChannel ch(42);
  SealedMessage msg = ch.seal("payload", 11);
  msg.tag ^= 1;
  EXPECT_EQ(ch.open(msg), std::nullopt);
  SealedMessage msg2 = ch.seal("payload", 11);
  msg2.nonce = 12;  // replay under a different nonce
  EXPECT_EQ(ch.open(msg2), std::nullopt);
}

TEST(SecureChannel, WrongKeyCannotOpen) {
  const SecureChannel alice(1111);
  const SecureChannel eve(2222);
  const SealedMessage msg = alice.seal("for bob only", 3);
  EXPECT_EQ(eve.open(msg), std::nullopt);
}

TEST(SecureChannel, NoncesChangeCiphertext) {
  const SecureChannel ch(42);
  const SealedMessage a = ch.seal("same text", 1);
  const SealedMessage b = ch.seal("same text", 2);
  EXPECT_NE(a.ciphertext, b.ciphertext);
  EXPECT_NE(a.tag, b.tag);
}

TEST(SecureChannel, SessionKeyDerivationIsSymmetric) {
  const auto kAB = SecureChannel::deriveSessionKey(111, 222);
  const auto kBA = SecureChannel::deriveSessionKey(222, 111);
  EXPECT_EQ(kAB, kBA);
  EXPECT_NE(kAB, SecureChannel::deriveSessionKey(111, 333));
  // Both sides can talk using the derived key.
  const SecureChannel a(kAB), b(kBA);
  const auto opened = b.open(a.seal("hello", 5));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, "hello");
}

TEST(SecureChannel, EmptyMessageRoundTrips) {
  const SecureChannel ch(42);
  const auto opened = ch.open(ch.seal("", 1));
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

// --- reputation ---------------------------------------------------------------

TEST(Reputation, StartsTrustedDegradesWithEvidence) {
  ReputationTracker rep(0.5);
  EXPECT_GT(rep.score(ProviderId{7}), 0.5);
  EXPECT_FALSE(rep.quarantined(ProviderId{7}));
  for (int i = 0; i < 12; ++i) {
    rep.reportMisbehavior(ProviderId{7}, MisbehaviorKind::TamperedPayload);
  }
  EXPECT_LT(rep.score(ProviderId{7}), 0.5);
  EXPECT_TRUE(rep.quarantined(ProviderId{7}));
  EXPECT_EQ(rep.quarantinedProviders(), std::vector<ProviderId>{ProviderId{7}});
}

TEST(Reputation, GoodServiceRestoresTrust) {
  ReputationTracker rep(0.5);
  for (int i = 0; i < 12; ++i) {
    rep.reportMisbehavior(ProviderId{3}, MisbehaviorKind::LedgerInflation);
  }
  ASSERT_TRUE(rep.quarantined(ProviderId{3}));
  for (int i = 0; i < 40; ++i) rep.reportGoodService(ProviderId{3});
  EXPECT_FALSE(rep.quarantined(ProviderId{3}));
}

TEST(Reputation, IncidentBookkeeping) {
  ReputationTracker rep;
  rep.reportMisbehavior(ProviderId{5}, MisbehaviorKind::AuthAbuse);
  rep.reportMisbehavior(ProviderId{5}, MisbehaviorKind::AuthAbuse);
  rep.reportMisbehavior(ProviderId{5}, MisbehaviorKind::Interception, 0.5);
  const auto inc = rep.incidents(ProviderId{5});
  EXPECT_EQ(inc.at(MisbehaviorKind::AuthAbuse), 2);
  EXPECT_EQ(inc.at(MisbehaviorKind::Interception), 1);
  EXPECT_TRUE(rep.incidents(ProviderId{99}).empty());
}

TEST(Reputation, Validation) {
  EXPECT_THROW(ReputationTracker(0.0), InvalidArgumentError);
  EXPECT_THROW(ReputationTracker(1.0), InvalidArgumentError);
  EXPECT_THROW(ReputationTracker(0.5, 0.0, 1.0), InvalidArgumentError);
  ReputationTracker rep;
  EXPECT_THROW(rep.reportMisbehavior(ProviderId{1}, MisbehaviorKind::AuthAbuse, -1.0),
               InvalidArgumentError);
  EXPECT_THROW(rep.reportGoodService(ProviderId{1}, -1.0), InvalidArgumentError);
}

TEST(MisbehaviorNames, AllNamed) {
  for (const auto k : {MisbehaviorKind::LedgerInflation,
                       MisbehaviorKind::TamperedPayload,
                       MisbehaviorKind::AuthAbuse, MisbehaviorKind::Interception}) {
    EXPECT_NE(misbehaviorName(k), "?");
  }
}

// --- ledger auditing ------------------------------------------------------------

/// Engine with three providers and one honest traffic relationship:
/// carrier 2 carried 1 MB for owner 1, witnessed by provider 3.
SettlementEngine honestEngine() {
  SettlementEngine engine;
  for (ProviderId p : {ProviderId{1u}, ProviderId{2u}, ProviderId{3u}}) engine.addProvider(p);
  // All three parties record the same carriage (as recordRouteTraffic would).
  for (ProviderId p : {ProviderId{1u}, ProviderId{2u}, ProviderId{3u}}) {
    const_cast<TrafficLedger&>(engine.ledger(p)).record(ProviderId{2}, ProviderId{1}, 1e6);
  }
  return engine;
}

TEST(Audit, CleanBooksProduceNoFindings) {
  const SettlementEngine engine = honestEngine();
  EXPECT_TRUE(auditLedgers(engine).empty());
}

TEST(Audit, InflatedCarrierIsSuspected) {
  SettlementEngine engine = honestEngine();
  // Carrier 2 inflates its claim by 50%.
  const_cast<TrafficLedger&>(engine.ledger(ProviderId{2})).record(ProviderId{2}, ProviderId{1}, 5e5);
  const auto findings = auditLedgers(engine);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].carrier, ProviderId{2u});
  EXPECT_EQ(findings[0].owner, ProviderId{1u});
  EXPECT_EQ(findings[0].suspected, ProviderId{2u});  // witness 3 backs the owner
  EXPECT_DOUBLE_EQ(findings[0].carrierClaimBytes, 1.5e6);
  EXPECT_DOUBLE_EQ(findings[0].ownerClaimBytes, 1e6);
}

TEST(Audit, UnderstatingOwnerIsSuspected) {
  SettlementEngine engine;
  for (ProviderId p : {ProviderId{1u}, ProviderId{2u}, ProviderId{3u}}) engine.addProvider(p);
  const_cast<TrafficLedger&>(engine.ledger(ProviderId{2})).record(ProviderId{2}, ProviderId{1}, 1e6);
  const_cast<TrafficLedger&>(engine.ledger(ProviderId{3})).record(ProviderId{2}, ProviderId{1}, 1e6);
  // Owner 1 claims only half (dodging the bill).
  const_cast<TrafficLedger&>(engine.ledger(ProviderId{1})).record(ProviderId{2}, ProviderId{1}, 5e5);
  const auto findings = auditLedgers(engine);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].suspected, ProviderId{1u});
}

TEST(Audit, NoWitnessMeansNoAttribution) {
  SettlementEngine engine;
  engine.addProvider(ProviderId{1});
  engine.addProvider(ProviderId{2});
  const_cast<TrafficLedger&>(engine.ledger(ProviderId{2})).record(ProviderId{2}, ProviderId{1}, 2e6);
  const_cast<TrafficLedger&>(engine.ledger(ProviderId{1})).record(ProviderId{2}, ProviderId{1}, 1e6);
  const auto findings = auditLedgers(engine);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].suspected, ProviderId{0u});
}

TEST(Audit, FindingsFeedReputationAndQuarantine) {
  SettlementEngine engine = honestEngine();
  const_cast<TrafficLedger&>(engine.ledger(ProviderId{2})).record(ProviderId{2}, ProviderId{1}, 9e6);  // 10x fraud
  ReputationTracker rep(0.8);
  applyAuditFindings(auditLedgers(engine), rep);
  EXPECT_LT(rep.score(ProviderId{2}), rep.score(ProviderId{1}));
  EXPECT_TRUE(rep.quarantined(ProviderId{2}));
  const auto inc = rep.incidents(ProviderId{2});
  EXPECT_EQ(inc.at(MisbehaviorKind::LedgerInflation), 1);
}

// --- quarantine-aware routing ----------------------------------------------------

TEST(QuarantineRouting, CutsOffBadActorsLinks) {
  // Line: 1(P1) - 2(P2) - 4(P1); diamond alternative 1 - 3(P3) - 4.
  NetworkGraph g;
  auto addNode = [&](NodeId id, ProviderId p) {
    Node n;
    n.id = id;
    n.kind = NodeKind::Satellite;
    n.provider = p;
    n.name = std::to_string(id.value());
    n.satellite = SatelliteId{id.value()};
    g.addNode(std::move(n));
  };
  addNode(NodeId{1}, ProviderId{1});
  addNode(NodeId{2}, ProviderId{2});
  addNode(NodeId{3}, ProviderId{3});
  addNode(NodeId{4}, ProviderId{1});
  auto addLink = [&](NodeId a, NodeId b, double dist) {
    Link l;
    l.a = a;
    l.b = b;
    l.capacityBps = 1e6;
    l.distanceM = dist;
    l.propagationDelayS = dist / kSpeedOfLightMps;
    g.addLink(l);
  };
  addLink(NodeId{1}, NodeId{2}, 1000e3);  // short path via provider 2
  addLink(NodeId{2}, NodeId{4}, 1000e3);
  addLink(NodeId{1}, NodeId{3}, 3000e3);  // long path via provider 3
  addLink(NodeId{3}, NodeId{4}, 3000e3);

  ReputationTracker rep(0.5);
  const LinkCostFn cost = quarantineAwareCost(latencyCost(), rep);

  // Trusted network: short path via provider 2 wins.
  Route r = RouteEngine(g, cost).shortestPath(NodeId{1}, NodeId{4});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{4}}));

  // Provider 2 caught misbehaving: quarantine reroutes around it.
  for (int i = 0; i < 12; ++i) {
    rep.reportMisbehavior(ProviderId{2}, MisbehaviorKind::Interception);
  }
  r = RouteEngine(g, cost).shortestPath(NodeId{1}, NodeId{4});
  ASSERT_TRUE(r.valid());
  EXPECT_EQ(r.nodes, (std::vector<NodeId>{NodeId{1}, NodeId{3}, NodeId{4}}));

  // Both relays quarantined: the network is (correctly) partitioned.
  for (int i = 0; i < 12; ++i) {
    rep.reportMisbehavior(ProviderId{3}, MisbehaviorKind::Interception);
  }
  EXPECT_FALSE(RouteEngine(g, cost).shortestPath(NodeId{1}, NodeId{4}).valid());
}

}  // namespace
}  // namespace openspace
