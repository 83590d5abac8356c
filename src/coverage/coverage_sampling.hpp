// Shared Monte-Carlo stream derivation for the coverage estimators.
//
// Private to the coverage module (not installed under include/). Both the
// indexed estimators (coverage.cpp) and the brute executable spec
// (tests/spec/coverage_legacy.cpp, which reaches this header through the
// openspace_spec target's private include path) draw their per-chunk RNG streams from these exact
// functions: the bit-for-bit contract between the two paths depends on the
// chunk size and the seed derivation being literally the same code.
#pragma once

#include <cstddef>
#include <cstdint>

#include <openspace/geo/rng.hpp>

namespace openspace::coverage_detail {

/// Samples per RNG stream in the parallel Monte-Carlo estimators. Chunk
/// boundaries (and therefore every stream's draws) are fixed by the sample
/// count alone, so results are bit-identical at any thread count.
inline constexpr std::size_t kSampleChunk = 1024;

/// splitmix64 finalizer: decorrelates the per-chunk stream seeds.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// One deterministic RNG stream per sample chunk, derived from a single
/// draw off the caller's Rng (which also advances the caller's stream, so
/// successive calls with the same Rng differ as they always did).
inline Rng chunkRng(std::uint64_t baseSeed, std::size_t chunkIndex) {
  return Rng(mix64(baseSeed ^ (0xA0761D6478BD642Full * (chunkIndex + 1))));
}

}  // namespace openspace::coverage_detail
