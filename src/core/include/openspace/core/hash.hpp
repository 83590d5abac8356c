// Canonical FNV-1a 64-bit mixing helpers.
//
// Every determinism gate in the library (serial==parallel bench checksums,
// simulator==legacy record streams, delta==fresh graph identity) folds its
// witness through these. They hash raw bit patterns — never rounded or
// formatted values — so two artifacts checksum equal iff they are bitwise
// identical in the same order.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

namespace openspace {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline constexpr std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

/// fnv1a over a fixed run of words in one step, bit for bit. A byte's xor
/// changes only the low byte l of h, so (h ^ b) * P == h * P + ((l ^ b) - l)
/// * P (mod 2^64), and the low byte of that product depends on l alone. By
/// induction, folding n fixed bytes maps h to h * P^n + tail(h & 0xFF),
/// where tail(l) is the fold of l minus l * P^n. fold() costs one multiply
/// and one table load where the chained fnv1a costs 8 dependent multiplies
/// per word; the table costs 256 chained folds of the run to build.
class FnvFixedRun {
 public:
  FnvFixedRun(std::initializer_list<std::uint64_t> words) noexcept {
    for (std::size_t i = 0; i < 8 * words.size(); ++i) scale_ *= kFnvPrime;
    for (std::uint64_t l = 0; l < tail_.size(); ++l) {
      std::uint64_t h = l;
      for (const std::uint64_t w : words) h = fnv1a(h, w);
      tail_[l] = h - l * scale_;
    }
  }

  /// fnv1a(...fnv1a(h, w0)..., wn-1) for the run's words w0..wn-1.
  std::uint64_t fold(std::uint64_t h) const noexcept {
    return h * scale_ + tail_[h & 0xFFu];
  }

 private:
  std::uint64_t scale_ = 1;  ///< P^(8 n).
  std::array<std::uint64_t, 256> tail_{};
};

/// Raw bit pattern of a double (units: none — bits, not a quantity).
inline std::uint64_t bitsOf(double v) noexcept {  // units: raw bits fold
  return std::bit_cast<std::uint64_t>(v);
}

}  // namespace openspace
