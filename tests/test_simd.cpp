// Property tests for the vectorized cap-cell kernel
// (geo/spherical_index_simd.hpp):
//   * the dispatch level is consistent with what the build and CPU offer;
//   * the AVX2 and scalar-fallback instantiations are bit-identical;
//   * the dispatched batch map equals the scalar cellIndexOf member.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include <openspace/geo/rng.hpp>
#include <openspace/geo/spherical_index.hpp>
#include <openspace/geo/spherical_index_simd.hpp>

namespace openspace {
namespace {

TEST(SimdKernel, DispatchLevelIsConsistent) {
  const SimdLevel level = simd::cellKernelLevel();
  if (level == SimdLevel::Avx2) {
    EXPECT_TRUE(simd::avx2CellKernelAvailable());
  }
  EXPECT_TRUE(level == SimdLevel::Avx2 || level == SimdLevel::Scalar4);
}

/// Query directions stressing every branch of the cell map: generic unit
/// vectors, the poles and axes (guard and clamp edges), the +-pi seam
/// (x < 0 with tiny |y| of both signs), zero vectors and NaNs (the
/// !(scaled > 0) guards), and non-unit magnitudes.
std::vector<Vec3> adversarialDirs(std::size_t randomCount,
                                  std::uint64_t seed) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Vec3> dirs = {
      {0.0, 0.0, 1.0},       {0.0, 0.0, -1.0},     {1.0, 0.0, 0.0},
      {-1.0, 0.0, 0.0},      {0.0, 1.0, 0.0},      {0.0, -1.0, 0.0},
      {-1.0, 1e-300, 0.0},   {-1.0, -1e-300, 0.0}, {-1.0, 0.0, 0.5},
      {0.0, 0.0, 0.0},       {-0.0, -0.0, -0.0},   {nan, 0.5, 0.5},
      {0.5, nan, 0.5},       {0.5, 0.5, nan},      {3.0, -4.0, 12.0},
      {-0.5, -0.5, 1.0e-17},
  };
  Rng rng(seed);
  for (std::size_t i = 0; i < randomCount; ++i) {
    dirs.push_back(rng.unitSphere());
  }
  return dirs;
}

TEST(CellKernel, Avx2MatchesScalar4BitForBit) {
  if (!simd::avx2CellKernelAvailable()) {
    GTEST_SKIP() << "AVX2 cell kernel not available on this host";
  }
  // 419 directions: a 3-lane tail group. Several grid shapes, including
  // the degenerate 1x1 grid of an empty index.
  const auto dirs = adversarialDirs(403, 17);
  const std::size_t grids[][2] = {{1, 1}, {13, 64}, {97, 128}, {256, 512}};
  for (const auto& g : grids) {
    std::vector<std::uint32_t> a(dirs.size()), b(dirs.size());
    simd::cellIndicesScalar4(dirs.data(), a.data(), g[0], g[1], 0,
                             dirs.size());
    simd::cellIndicesAvx2(dirs.data(), b.data(), g[0], g[1], 0, dirs.size());
    for (std::size_t i = 0; i < dirs.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "grid " << g[0] << "x" << g[1] << " dir " << i;
    }
  }
}

TEST(CellKernel, BatchMatchesScalarCellIndexOf) {
  // The dispatched batch map must equal the scalar member exactly — this
  // is what keeps the batched Monte-Carlo loops bit-identical to their
  // per-query spec (and it must hold for NaN/zero inputs too).
  Rng rng(29);
  std::vector<SphericalCapIndex::Cap> caps;
  for (std::size_t i = 0; i < 200; ++i) {
    caps.push_back({rng.unitSphere(), rng.uniform(0.01, 0.5)});
  }
  const SphericalCapIndex index(caps);
  const auto dirs = adversarialDirs(1000, 31);
  std::vector<std::uint32_t> cells(dirs.size());
  index.cellIndicesOf(dirs.data(), dirs.size(), cells.data());
  for (std::size_t i = 0; i < dirs.size(); ++i) {
    ASSERT_EQ(static_cast<std::size_t>(cells[i]), index.cellIndexOf(dirs[i]))
        << "dir " << i;
  }
}

}  // namespace
}  // namespace openspace
