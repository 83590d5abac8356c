// Shared 4-lane operation traits for the vectorized cap-cell kernel.
// units-file: lane abstraction — every double here is a unitless lane
// value whose dimension belongs to the templated kernel, not the trait.
//
// Two instantiation backends with *identical* lane semantics:
//  * ScalarOps — portable 4-wide emulation. The arithmetic operators are
//    correctly rounded per IEEE 754 (as vaddpd / vmulpd / ... are),
//    truncation and abs are exact, and masks are all-ones/all-zero bit
//    patterns (as vcmppd produces).
//  * Avx2Ops — the AVX2+FMA intrinsics themselves. Only visible to
//    translation units compiled with -mavx2 -mfma (the __AVX2__/__FMA__
//    guard below); nothing outside those TUs may name it.
//
// A kernel templated over these traits (geo/spherical_index_simd_lanes
// .hpp) must use ONLY operations that are correctly rounded or exact, in a
// fixed order, so any two Ops instantiations produce bit-identical
// results — the property tests/test_simd.cpp pins. TUs instantiating a
// kernel from this header must be compiled with -ffp-contract=off: the
// bit-identity contract forbids the compiler from fusing the template's
// explicit mul/add sequences into fmas on one side only.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace openspace::simd {

inline constexpr std::uint64_t kLaneAllOnes = ~std::uint64_t{0};

struct ScalarOps {
  struct V {
    double l[4];
  };

  static V broadcast(double v) noexcept { return {{v, v, v, v}}; }
  static V load(const double* p) noexcept { return {{p[0], p[1], p[2], p[3]}}; }
  static V add(V a, V b) noexcept {
    return {{a.l[0] + b.l[0], a.l[1] + b.l[1], a.l[2] + b.l[2],
             a.l[3] + b.l[3]}};
  }
  static V sub(V a, V b) noexcept {
    return {{a.l[0] - b.l[0], a.l[1] - b.l[1], a.l[2] - b.l[2],
             a.l[3] - b.l[3]}};
  }
  static V mul(V a, V b) noexcept {
    return {{a.l[0] * b.l[0], a.l[1] * b.l[1], a.l[2] * b.l[2],
             a.l[3] * b.l[3]}};
  }
  static V div(V a, V b) noexcept {
    return {{a.l[0] / b.l[0], a.l[1] / b.l[1], a.l[2] / b.l[2],
             a.l[3] / b.l[3]}};
  }
  /// Truncate toward zero (vroundpd with _MM_FROUND_TO_ZERO).
  static V truncToZero(V a) noexcept {
    V r;
    for (int j = 0; j < 4; ++j) r.l[j] = std::trunc(a.l[j]);
    return r;
  }
  static V abs(V a) noexcept {
    V r;
    for (int j = 0; j < 4; ++j) r.l[j] = std::fabs(a.l[j]);
    return r;
  }
  /// vminpd semantics exactly: a < b ? a : b per lane — returns b when
  /// the lanes compare equal or either is NaN.
  static V min(V a, V b) noexcept {
    V r;
    for (int j = 0; j < 4; ++j) r.l[j] = a.l[j] < b.l[j] ? a.l[j] : b.l[j];
    return r;
  }
  static V cmpLt(V a, V b) noexcept {
    V r;
    for (int j = 0; j < 4; ++j) {
      r.l[j] = std::bit_cast<double>(a.l[j] < b.l[j] ? kLaneAllOnes
                                                     : std::uint64_t{0});
    }
    return r;
  }
  static V andV(V a, V b) noexcept {
    V r;
    for (int j = 0; j < 4; ++j) {
      r.l[j] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.l[j]) &
                                     std::bit_cast<std::uint64_t>(b.l[j]));
    }
    return r;
  }
  static V orV(V a, V b) noexcept {
    V r;
    for (int j = 0; j < 4; ++j) {
      r.l[j] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.l[j]) |
                                     std::bit_cast<std::uint64_t>(b.l[j]));
    }
    return r;
  }
  /// Truncate lanes holding integral values in [0, 2^31) to 32-bit
  /// indices and store them (vcvttpd2dq + 128-bit store).
  static void storeIndicesU32(std::uint32_t* p, V v) noexcept {
    for (int j = 0; j < 4; ++j) {
      p[j] = static_cast<std::uint32_t>(static_cast<std::int64_t>(v.l[j]));
    }
  }
};

}  // namespace openspace::simd

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace openspace::simd {

struct Avx2Ops {
  using V = __m256d;

  static V broadcast(double v) noexcept { return _mm256_set1_pd(v); }
  static V load(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static V add(V a, V b) noexcept { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) noexcept { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) noexcept { return _mm256_mul_pd(a, b); }
  static V div(V a, V b) noexcept { return _mm256_div_pd(a, b); }
  static V truncToZero(V a) noexcept {
    return _mm256_round_pd(a, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
  static V abs(V a) noexcept {
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
  }
  static V min(V a, V b) noexcept { return _mm256_min_pd(a, b); }
  static V cmpLt(V a, V b) noexcept { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static V andV(V a, V b) noexcept { return _mm256_and_pd(a, b); }
  static V orV(V a, V b) noexcept { return _mm256_or_pd(a, b); }
  static void storeIndicesU32(std::uint32_t* p, V v) noexcept {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm256_cvttpd_epi32(v));
  }
};

}  // namespace openspace::simd

#endif  // __AVX2__ && __FMA__
