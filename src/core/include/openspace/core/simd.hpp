// Process-wide SIMD dispatch policy.
//
// The vectorized spherical cap-cell kernel (geo/spherical_index_simd.hpp)
// is compiled twice: an AVX2+FMA translation unit and a portable 4-lane
// scalar-fallback translation unit that executes the identical algorithm
// (both paths use only correctly-rounded or exact IEEE operations in the
// same order, so they are bit-identical — property-tested). This header
// owns the *policy* half of runtime dispatch: what the CPU supports and
// what the OPENSPACE_SIMD override requests. A kernel degrades the policy
// level to what its build actually contains (e.g. a non-x86 build has no
// AVX2 translation unit).
#pragma once

#include <cstdlib>
#include <cstring>

namespace openspace {

/// Vector instruction level of a dispatched kernel.
enum class SimdLevel {
  Scalar4,  ///< Portable 4-lane fallback. Always available.
  Avx2,     ///< AVX2 + FMA intrinsics.
};

inline const char* simdLevelName(SimdLevel level) noexcept {
  return level == SimdLevel::Avx2 ? "avx2" : "scalar4";
}

namespace simd_detail {

/// True when the CPU this process runs on reports AVX2 and FMA.
inline bool cpuSupportsAvx2() noexcept {
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace simd_detail

/// The requested dispatch level: OPENSPACE_SIMD=scalar forces Scalar4,
/// OPENSPACE_SIMD=avx2 requests Avx2 (degraded to Scalar4 when the CPU
/// lacks it), unset/auto picks Avx2 iff the CPU supports it. Cached on
/// first call; set the variable before the first kernel use.
inline SimdLevel activeSimdLevel() noexcept {
  static const SimdLevel level = [] {
    const char* env = std::getenv("OPENSPACE_SIMD");
    if (env != nullptr && std::strcmp(env, "scalar") == 0) {
      return SimdLevel::Scalar4;
    }
    return simd_detail::cpuSupportsAvx2() ? SimdLevel::Avx2
                                          : SimdLevel::Scalar4;
  }();
  return level;
}

}  // namespace openspace
