// The host's vector instruction level, for bench fingerprints.
//
// No library kernel dispatches on it: every code path in src/ is portable
// scalar code. Bench records name the level so that timings from hosts
// with and without AVX2 are never compared as if alike.
#pragma once

namespace openspace {

/// Vector instruction level of the host CPU.
enum class SimdLevel {
  Scalar4,  ///< No AVX2 + FMA (named for the record format "scalar4").
  Avx2,     ///< AVX2 and FMA both reported by the CPU.
};

inline const char* simdLevelName(SimdLevel level) noexcept {
  return level == SimdLevel::Avx2 ? "avx2" : "scalar4";
}

/// Avx2 when the CPU this process runs on reports both AVX2 and FMA,
/// Scalar4 otherwise (and on every non-x86-64 build).
inline SimdLevel activeSimdLevel() noexcept {
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
  static const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return avx2 ? SimdLevel::Avx2 : SimdLevel::Scalar4;
#else
  return SimdLevel::Scalar4;
#endif
}

}  // namespace openspace
