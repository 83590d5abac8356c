// Session seeds for the session plane (paper §5(1) user modeling x §2.2
// handovers): turn sampled users into HandoverSweep::seed input by issuing
// each one a roaming certificate, and scatter a flash crowd of seeds around
// one metro area. Deterministic given the Rng.
#pragma once

#include <cstddef>
#include <vector>

#include <openspace/auth/certificate.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/session/handover_sweep.hpp>
#include <openspace/sim/population.hpp>

namespace openspace {

/// Issue a roaming certificate per sampled user and package the users as
/// session seeds, ids firstUser, firstUser+1, ... in sample order.
std::vector<SessionSeed> issueSeedCertificates(
    const CertificateAuthority& authority,
    const std::vector<SampledUser>& users, UserId firstUser, double nowS);

/// `count` flash-crowd seeds scattered uniformly within `radiusM` (surface
/// chord) of `center`, certificates issued at `nowS`. Deterministic given
/// the Rng.
std::vector<SessionSeed> flashCrowdSeeds(const CertificateAuthority& authority,
                                         const Geodetic& center, double radiusM,
                                         std::size_t count, UserId firstUser,
                                         double nowS, Rng& rng);

}  // namespace openspace
