// Best-of-N wall-clock timing shared by the report benches.
//
// A timed pass returns a checksum of the work it did. Every pass of one
// leg must return the same checksum (a bench whose passes disagree exits
// 1), and the leg keeps its fastest wall time. Two legs compared against
// each other run interleaved, one pass of each in alternating order, so
// host load that comes and goes within a run slows both alike.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace openspace::bench {

/// Monotonic wall clock, seconds.
inline double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One leg's fastest pass and the checksum every pass returned.
struct Timed {
  double bestPassS = 0.0;
  std::uint64_t checksum = 0;
};

/// Run `pass` (returning a checksum) once as pass number `p` of `r`: keep
/// the fastest wall time and require a stable checksum.
template <typename Pass>
void timePass(Timed& r, int p, Pass&& pass) {
  const double t0 = nowS();
  const std::uint64_t sum = pass();
  const double dt = nowS() - t0;
  if (p == 0 || dt < r.bestPassS) r.bestPassS = dt;
  if (p == 0) {
    r.checksum = sum;
  } else if (sum != r.checksum) {
    std::fprintf(stderr, "non-deterministic pass checksum\n");
    std::exit(1);
  }
}

/// Time `pass` `passes` times on its own.
template <typename Pass>
Timed timeIt(Pass&& pass, int passes) {
  Timed r;
  for (int p = 0; p < passes; ++p) timePass(r, p, pass);
  return r;
}

/// Time two legs, `passes` each, interleaved: `first` runs first on even
/// passes, `second` on odd ones.
template <typename First, typename Second>
std::pair<Timed, Timed> timeInterleaved(First&& first, Second&& second,
                                        int passes) {
  Timed a;
  Timed b;
  for (int p = 0; p < passes; ++p) {
    if (p % 2 == 0) {
      timePass(a, p, first);
      timePass(b, p, second);
    } else {
      timePass(b, p, second);
      timePass(a, p, first);
    }
  }
  return {a, b};
}

}  // namespace openspace::bench
