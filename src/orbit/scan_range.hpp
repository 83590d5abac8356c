// The argument check of the fixed-step time scans (groundTrack,
// contactWindows). Not a public header: both scans walk t = t0S, t0S +
// stepS, ... up to t1S, and this one check decides which ranges they take.
#pragma once

#include <cmath>
#include <string>

#include <openspace/geo/error.hpp>

namespace openspace {

/// Largest sample count (t1S - t0S) / stepS a scan takes: ~116 days at a
/// 1 s step, ~320 MB of ground-track points.
inline constexpr double kMaxScanSamples = 1e7;

/// Throws InvalidArgumentError, its message prefixed with `who`, unless
/// stepS is finite and > 0, t0S and t1S are finite with t0S <= t1S, the
/// range holds at most kMaxScanSamples steps, and one step moves t at both
/// ends of the range (past ~2^53 steps of the range's magnitude,
/// `t += stepS` stops advancing and the scan would never end). Negated
/// in-range tests, so that NaN is rejected too.
inline void checkScanRange(const char* who, double t0S, double t1S,
                           double stepS) {
  const auto fail = [who](const char* what) {
    throw InvalidArgumentError(std::string(who) + ": " + what);
  };
  if (!(stepS > 0.0) || std::isinf(stepS)) {
    fail("step must be finite and > 0");
  }
  if (!std::isfinite(t0S) || !std::isfinite(t1S)) fail("times must be finite");
  if (t1S < t0S) fail("t1S < t0S");
  if (!((t1S - t0S) / stepS <= kMaxScanSamples)) fail("more than 1e7 samples");
  if (!(t0S + stepS > t0S) || !(t1S + stepS > t1S)) {
    fail("step too small to advance t");
  }
}

}  // namespace openspace
