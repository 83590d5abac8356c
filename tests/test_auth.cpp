// Unit tests for the auth module: keyed tags, certificates, RADIUS-style
// authentication, and the user association state machine.
#include <gtest/gtest.h>

#include <limits>

#include <openspace/auth/association.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>

namespace openspace {
namespace {

TEST(KeyedTag, DeterministicAndKeySensitive) {
  EXPECT_EQ(keyedTag(1, "hello"), keyedTag(1, "hello"));
  EXPECT_NE(keyedTag(1, "hello"), keyedTag(2, "hello"));
  EXPECT_NE(keyedTag(1, "hello"), keyedTag(1, "hellp"));
  EXPECT_NE(keyedTag(1, ""), keyedTag(2, ""));
}

TEST(Certificate, IssueAndVerify) {
  const CertificateAuthority ca(ProviderId{5}, 0xDEADBEEF, 3600.0);
  const Certificate cert = ca.issue(42, 100.0);
  EXPECT_EQ(cert.user, 42u);
  EXPECT_EQ(cert.homeProvider, ProviderId{5u});
  EXPECT_DOUBLE_EQ(cert.issuedAtS, 100.0);
  EXPECT_DOUBLE_EQ(cert.expiresAtS, 3700.0);
  EXPECT_TRUE(ca.verify(cert, 200.0));
}

TEST(Certificate, ExpiryEnforced) {
  const CertificateAuthority ca(ProviderId{5}, 1, 100.0);
  const Certificate cert = ca.issue(42, 0.0);
  EXPECT_TRUE(ca.verify(cert, 99.9));
  EXPECT_FALSE(ca.verify(cert, 100.0));
  EXPECT_TRUE(cert.expired(150.0));
}

TEST(Certificate, TamperingDetected) {
  const CertificateAuthority ca(ProviderId{5}, 0xABCD, 3600.0);
  Certificate cert = ca.issue(42, 0.0);
  cert.user = 43;  // forge a different user
  EXPECT_FALSE(ca.verify(cert, 10.0));
  Certificate cert2 = ca.issue(42, 0.0);
  cert2.expiresAtS += 1e6;  // extend validity
  EXPECT_FALSE(ca.verify(cert2, 10.0));
}

TEST(Certificate, WrongAuthorityRejects) {
  const CertificateAuthority caA(ProviderId{1}, 111, 3600.0);
  const CertificateAuthority caB(ProviderId{2}, 222, 3600.0);
  const Certificate cert = caA.issue(42, 0.0);
  EXPECT_FALSE(caB.verify(cert, 10.0));
}

TEST(Certificate, InvalidLifetimeThrows) {
  EXPECT_THROW(CertificateAuthority(ProviderId{1}, 1, 0.0), InvalidArgumentError);
}

TEST(Radius, AcceptsValidCredentials) {
  RadiusServer server(ProviderId{3}, 0xFEED);
  server.enroll(7, 0x1234);
  AccessRequest req;
  req.user = 7;
  req.homeProvider = ProviderId{3};
  req.nonce = "n-1";
  req.credentialProof = RadiusServer::proveCredential(0x1234, "n-1");
  const AccessResponse resp = server.authenticate(req, 50.0);
  EXPECT_TRUE(resp.accepted);
  EXPECT_TRUE(server.authority().verify(resp.certificate, 60.0));
  EXPECT_EQ(resp.certificate.user, 7u);
}

TEST(Radius, RejectsBadProofUnknownUserWrongProvider) {
  RadiusServer server(ProviderId{3}, 0xFEED);
  server.enroll(7, 0x1234);
  AccessRequest req;
  req.user = 7;
  req.homeProvider = ProviderId{3};
  req.nonce = "n-1";
  req.credentialProof = RadiusServer::proveCredential(0x9999, "n-1");
  EXPECT_FALSE(server.authenticate(req, 0.0).accepted);  // wrong secret

  req.credentialProof = RadiusServer::proveCredential(0x1234, "n-2");
  EXPECT_FALSE(server.authenticate(req, 0.0).accepted);  // replayed nonce

  req.user = 8;  // unknown subscriber
  req.credentialProof = RadiusServer::proveCredential(0x1234, "n-1");
  EXPECT_FALSE(server.authenticate(req, 0.0).accepted);

  req.user = 7;
  req.homeProvider = ProviderId{4};  // wrong home
  EXPECT_FALSE(server.authenticate(req, 0.0).accepted);
}

TEST(Radius, RevocationWorks) {
  RadiusServer server(ProviderId{3}, 0xFEED);
  server.enroll(7, 0x1234);
  EXPECT_EQ(server.subscriberCount(), 1u);
  server.revoke(7);
  EXPECT_EQ(server.subscriberCount(), 0u);
  EXPECT_THROW(server.revoke(7), NotFoundError);
  AccessRequest req;
  req.user = 7;
  req.homeProvider = ProviderId{3};
  req.nonce = "n";
  req.credentialProof = RadiusServer::proveCredential(0x1234, "n");
  EXPECT_FALSE(server.authenticate(req, 0.0).accepted);
}

// --- association --------------------------------------------------------------

class AssociationTest : public ::testing::Test {
 protected:
  AssociationTest()
      : server_(ProviderId{1}, 0xCAFE),
        schedule_(2.0),
        user_(Geodetic::fromDegrees(40.44, -79.99)) {
    // Interleave two providers across the Iridium constellation.
    int i = 0;
    for (const auto& el : makeWalkerStar(iridiumConfig())) {
      eph_.publish(ProviderId{static_cast<std::uint32_t>(1 + (i++ % 2))}, el);
    }
    builder_ = std::make_unique<TopologyBuilder>(eph_);
    // Provider 1's gateway (where its RADIUS server lives).
    gateway_ = builder_->nodeOf(builder_->addGroundStation(
        {"home-gw", Geodetic::fromDegrees(47.0, -122.0), ProviderId{1}}));
    server_.enroll(1, 0xABC);
    opt_.wiring = IslWiring::PlusGrid;
    opt_.planes = 6;
    opt_.minElevationRad = deg2rad(10.0);
  }

  std::vector<BeaconMessage> beaconsAt(double t) const {
    std::vector<BeaconMessage> out;
    for (const SatelliteId sid : eph_.satellites()) {
      BeaconMessage b;
      b.satellite = sid;
      b.provider = eph_.record(sid).owner;
      b.txTimeS = t;
      b.elements = eph_.record(sid).elements;
      out.push_back(std::move(b));
    }
    return out;
  }

  EphemerisService eph_;
  std::unique_ptr<TopologyBuilder> builder_;
  RadiusServer server_;
  BeaconSchedule schedule_;
  Geodetic user_;
  NodeId gateway_{};
  SnapshotOptions opt_;
};

TEST_F(AssociationTest, SelectsClosestVisibleSatellite) {
  AssociationAgent agent(1, ProviderId{1}, 0xABC, user_);
  const auto chosen =
      agent.selectSatellite(beaconsAt(0.0), 0.0, deg2rad(10.0));
  ASSERT_TRUE(chosen.has_value());
  // Verify it is indeed the closest visible one.
  const Vec3 userEcef = geodeticToEcef(user_);
  double chosenRange = 0.0, bestRange = 1e18;
  for (const SatelliteId sid : eph_.satellites()) {
    const Vec3 satEcef = eciToEcef(eph_.positionEci(sid, 0.0), 0.0);
    if (elevationAngleRad(userEcef, satEcef) < deg2rad(10.0)) continue;
    const double range = userEcef.distanceTo(satEcef);
    bestRange = std::min(bestRange, range);
    if (sid == *chosen) chosenRange = range;
  }
  EXPECT_DOUBLE_EQ(chosenRange, bestRange);
}

TEST_F(AssociationTest, SelectIndexBoundaryIsInvisible) {
  // selectSatellite once switched to a footprint-index path at 512
  // beacons; it is one scan at every size now. Around that old boundary
  // the winner must still equal the brute first-wins ascending scan, for
  // users that see many satellites and users that see none.
  WalkerConfig cfg;
  cfg.totalSatellites = 513;
  cfg.planes = 27;  // 513 = 27 * 19
  cfg.phasing = 5;
  cfg.altitudeM = km(550.0);
  cfg.inclinationRad = deg2rad(53.0);
  const auto fleet = makeWalkerDelta(cfg);

  std::vector<BeaconMessage> all;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    BeaconMessage b;
    b.satellite = SatelliteId{static_cast<std::uint32_t>(i) + 1000u};
    b.provider = ProviderId{1};
    b.elements = fleet[i];
    all.push_back(std::move(b));
  }

  const double t = 30.0, mask = deg2rad(25.0);
  const std::vector<Geodetic> sites = {
      Geodetic::fromDegrees(40.44, -79.99),
      Geodetic::fromDegrees(-33.9, 18.4),
      Geodetic::fromDegrees(89.0, 0.0),  // above the 53-degree shell: no view
  };
  for (const Geodetic& site : sites) {
    AssociationAgent agent(1, ProviderId{1}, 0xABC, site);
    const Vec3 userEcef = geodeticToEcef(site);
    for (const std::size_t n :
         {std::size_t{511}, std::size_t{512}, std::size_t{513}}) {
      const std::vector<BeaconMessage> beacons(all.begin(),
                                               all.begin() + static_cast<std::ptrdiff_t>(n));
      // Brute replica of the small-list scan.
      std::optional<SatelliteId> expect;
      double bestRange = std::numeric_limits<double>::infinity();
      for (const BeaconMessage& b : beacons) {
        const Vec3 satEcef = eciToEcef(positionEci(b.elements, t), t);
        if (elevationAngleRad(userEcef, satEcef) < mask) continue;
        const double range = userEcef.distanceTo(satEcef);
        if (range < bestRange) {
          bestRange = range;
          expect = b.satellite;
        }
      }
      EXPECT_EQ(agent.selectSatellite(beacons, t, mask), expect) << n;
    }
  }
}

TEST_F(AssociationTest, FullAssociationIssuesRoamingCertificate) {
  AssociationAgent agent(1, ProviderId{1}, 0xABC, user_);
  const NetworkGraph g = builder_->snapshot(0.0, opt_);
  const AssociationResult res =
      agent.associate(beaconsAt(0.0), g, *builder_, server_, gateway_, 0.0,
                      deg2rad(10.0), schedule_);
  ASSERT_TRUE(res.success) << res.failureReason;
  EXPECT_EQ(agent.state(), AssociationState::Associated);
  EXPECT_TRUE(agent.certificate().has_value());
  EXPECT_TRUE(server_.authority().verify(res.certificate,
                                         res.certificate.issuedAtS + 1.0));
  EXPECT_GT(res.authLatencyS, 0.0);
  EXPECT_GE(res.beaconScanLatencyS, 0.0);
  EXPECT_LE(res.beaconScanLatencyS, schedule_.periodS());
  EXPECT_EQ(agent.servingSatellite(), res.servingSatellite);
}

TEST_F(AssociationTest, RoamingOntoForeignSatelliteStillAuthenticatesHome) {
  AssociationAgent agent(1, ProviderId{1}, 0xABC, user_);
  const NetworkGraph g = builder_->snapshot(0.0, opt_);
  const AssociationResult res =
      agent.associate(beaconsAt(0.0), g, *builder_, server_, gateway_, 0.0,
                      deg2rad(10.0), schedule_);
  ASSERT_TRUE(res.success);
  // Whoever serves, the certificate comes from the home provider.
  EXPECT_EQ(res.certificate.homeProvider, ProviderId{1u});
}

TEST_F(AssociationTest, WrongCredentialFailsCleanly) {
  AssociationAgent agent(1, ProviderId{1}, 0xBAD, user_);  // wrong secret
  const NetworkGraph g = builder_->snapshot(0.0, opt_);
  const AssociationResult res =
      agent.associate(beaconsAt(0.0), g, *builder_, server_, gateway_, 0.0,
                      deg2rad(10.0), schedule_);
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.failureReason.find("RADIUS"), std::string::npos);
  EXPECT_EQ(agent.state(), AssociationState::Scanning);
  EXPECT_FALSE(agent.certificate().has_value());
}

TEST_F(AssociationTest, NoVisibleSatelliteFails) {
  AssociationAgent agent(1, ProviderId{1}, 0xABC, user_);
  const NetworkGraph g = builder_->snapshot(0.0, opt_);
  const AssociationResult res =
      agent.associate({}, g, *builder_, server_, gateway_, 0.0, deg2rad(10.0),
                      schedule_);
  EXPECT_FALSE(res.success);
}

TEST_F(AssociationTest, MoveRequiresReassociation) {
  AssociationAgent agent(1, ProviderId{1}, 0xABC, user_);
  const NetworkGraph g = builder_->snapshot(0.0, opt_);
  ASSERT_TRUE(agent
                  .associate(beaconsAt(0.0), g, *builder_, server_, gateway_,
                             0.0, deg2rad(10.0), schedule_)
                  .success);
  agent.moveTo(Geodetic::fromDegrees(-33.87, 151.21));
  EXPECT_EQ(agent.state(), AssociationState::Disassociated);
  EXPECT_FALSE(agent.certificate().has_value());
  EXPECT_FALSE(agent.servingSatellite().has_value());
}

TEST_F(AssociationTest, SuccessorAdoptionSkipsReauth) {
  AssociationAgent agent(1, ProviderId{1}, 0xABC, user_);
  const NetworkGraph g = builder_->snapshot(0.0, opt_);
  const auto res = agent.associate(beaconsAt(0.0), g, *builder_, server_,
                                   gateway_, 0.0, deg2rad(10.0), schedule_);
  ASSERT_TRUE(res.success);
  const Certificate before = *agent.certificate();
  agent.adoptSuccessor(SatelliteId{res.servingSatellite.value() + 1});
  EXPECT_EQ(agent.state(), AssociationState::Associated);
  EXPECT_EQ(agent.servingSatellite(), SatelliteId{res.servingSatellite.value() + 1});
  // Certificate unchanged: no re-authentication happened.
  EXPECT_EQ(agent.certificate()->tag, before.tag);
}

TEST_F(AssociationTest, AdoptWithoutAssociationThrows) {
  AssociationAgent agent(1, ProviderId{1}, 0xABC, user_);
  EXPECT_THROW(agent.adoptSuccessor(SatelliteId{5}), StateError);
}

TEST_F(AssociationTest, TimedAdoptionKeepsCertificateWhileValid) {
  AssociationAgent agent(1, ProviderId{1}, 0xABC, user_);
  const NetworkGraph g = builder_->snapshot(0.0, opt_);
  const auto res = agent.associate(beaconsAt(0.0), g, *builder_, server_,
                                   gateway_, 0.0, deg2rad(10.0), schedule_);
  ASSERT_TRUE(res.success);
  const Certificate before = *agent.certificate();
  const SatelliteId succ{res.servingSatellite.value() + 1};
  // Associated -> Associated: the predictive handover sticks, certificate
  // untouched (no re-authentication).
  EXPECT_TRUE(agent.adoptSuccessor(succ, before.expiresAtS - 1.0));
  EXPECT_EQ(agent.state(), AssociationState::Associated);
  EXPECT_EQ(agent.servingSatellite(), succ);
  EXPECT_EQ(agent.certificate()->tag, before.tag);
}

TEST_F(AssociationTest, TimedAdoptionOnExpiredCertificateDisassociates) {
  AssociationAgent agent(1, ProviderId{1}, 0xABC, user_);
  const NetworkGraph g = builder_->snapshot(0.0, opt_);
  const auto res = agent.associate(beaconsAt(0.0), g, *builder_, server_,
                                   gateway_, 0.0, deg2rad(10.0), schedule_);
  ASSERT_TRUE(res.success);
  const double expiry = agent.certificate()->expiresAtS;
  const SatelliteId succ{res.servingSatellite.value() + 1};
  // Associated -> Disassociated: an expired roaming certificate cannot
  // ride a predictive handover (expiry is inclusive: nowS == expiresAtS).
  EXPECT_FALSE(agent.adoptSuccessor(succ, expiry));
  EXPECT_EQ(agent.state(), AssociationState::Disassociated);
  EXPECT_FALSE(agent.certificate().has_value());
  EXPECT_FALSE(agent.servingSatellite().has_value());
  // And a further adoption now throws, like any non-associated agent.
  EXPECT_THROW(agent.adoptSuccessor(succ, expiry + 1.0), StateError);
}

TEST_F(AssociationTest, TimedAdoptionWithoutAssociationThrows) {
  AssociationAgent agent(1, ProviderId{1}, 0xABC, user_);
  EXPECT_THROW(agent.adoptSuccessor(SatelliteId{5}, 0.0), StateError);
}

TEST(AssociationStateNames, AllNamed) {
  for (const auto s : {AssociationState::Scanning, AssociationState::Authenticating,
                       AssociationState::Associated,
                       AssociationState::Disassociated}) {
    EXPECT_NE(associationStateName(s), "?");
  }
}

}  // namespace
}  // namespace openspace
