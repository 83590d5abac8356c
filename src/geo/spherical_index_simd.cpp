// Portable lanes instantiation of the cell-mapping kernel + runtime
// dispatch (the level policy lives in core/simd.hpp).
#include <openspace/geo/spherical_index_simd.hpp>

#include <openspace/core/simd_lanes.hpp>

#include "spherical_index_simd_lanes.hpp"

namespace openspace::simd {

void cellIndicesScalar4(const Vec3* dirs, std::uint32_t* outCells,
                        std::size_t bands, std::size_t sectors,
                        std::size_t begin, std::size_t end) {
  cellIndicesLanes<ScalarOps>(dirs, outCells, bands, sectors, begin, end);
}

bool avx2CellKernelBuilt() noexcept;  // defined in spherical_index_simd_avx2.cpp

bool avx2CellKernelAvailable() noexcept {
  return avx2CellKernelBuilt() && simd_detail::cpuSupportsAvx2();
}

SimdLevel cellKernelLevel() noexcept {
  return activeSimdLevel() == SimdLevel::Avx2 && avx2CellKernelAvailable()
             ? SimdLevel::Avx2
             : SimdLevel::Scalar4;
}

void cellIndices(SimdLevel level, const Vec3* dirs, std::uint32_t* outCells,
                 std::size_t bands, std::size_t sectors, std::size_t begin,
                 std::size_t end) {
  if (level == SimdLevel::Avx2 && avx2CellKernelAvailable()) {
    cellIndicesAvx2(dirs, outCells, bands, sectors, begin, end);
  } else {
    cellIndicesScalar4(dirs, outCells, bands, sectors, begin, end);
  }
}

}  // namespace openspace::simd
