// Vectorized batch cell mapping for SphericalCapIndex.
//
// The cap-index query hot loops (the Monte-Carlo coverage sweeps, the
// million-user association path) spend a measurable slice of every sample
// in cellIndexOf: band from z, sector from the trig-free pseudo-angle of
// (x, y). That map uses ONLY exactly-rounded IEEE operations — add, mul,
// div, abs, sign transfer, ordered compares, truncation — so the vector
// kernel is *bit-identical* to the scalar member functions:
// outCells[i] == cellIndexOf(dirs[i]) for every input, including NaN and
// zero vectors. The scalar expressions are also immune to fma contraction
// (every fusable product multiplies by an exact 0.0 / 1.0 / 2.0 scale), so
// the identity holds regardless of how callers' translation units are
// compiled.
//
// Dispatch follows the policy of core/simd.hpp: AVX2 when compiled in and
// the CPU reports AVX2+FMA, the portable 4-lane scalar emulation
// otherwise; OPENSPACE_SIMD=scalar forces the portable path.
// tests/test_simd.cpp pins the two instantiations bit-for-bit against each
// other and against the scalar spec.
#pragma once

#include <cstddef>
#include <cstdint>

#include <openspace/core/simd.hpp>
#include <openspace/geo/vec3.hpp>

namespace openspace::simd {

/// True when the AVX2 instantiation was compiled in AND this CPU supports
/// AVX2+FMA.
bool avx2CellKernelAvailable() noexcept;

/// The level cellIndices dispatches to under the process-wide policy.
SimdLevel cellKernelLevel() noexcept;

/// outCells[i] = bandOf(dirs[i].z) * sectors + sectorOf(dirs[i].x,
/// dirs[i].y) for i in [begin, end) — bit-identical to
/// SphericalCapIndex::cellIndexOf over a (bands x sectors) grid. Requires
/// bands >= 1, sectors >= 1 and bands * sectors <= 2^31.
void cellIndices(SimdLevel level, const Vec3* dirs, std::uint32_t* outCells,
                 std::size_t bands, std::size_t sectors, std::size_t begin,
                 std::size_t end);

/// The two instantiations, exposed for the bit-identity property tests.
void cellIndicesScalar4(const Vec3* dirs, std::uint32_t* outCells,
                        std::size_t bands, std::size_t sectors,
                        std::size_t begin, std::size_t end);
void cellIndicesAvx2(const Vec3* dirs, std::uint32_t* outCells,
                     std::size_t bands, std::size_t sectors, std::size_t begin,
                     std::size_t end);

}  // namespace openspace::simd
