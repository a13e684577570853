// The secp256k1 base field F_p, p = 2^256 - 2^32 - 977.
//
// Fe holds an element as four 64-bit little-endian limbs and keeps it
// canonical (in [0, p)) after every operation, so equality is limb
// equality and conversion back to U256 is a copy. Multiplication forms the
// 512-bit product and folds its high half by the single word
// K = 2^256 mod p = 0x1000003D1: lo + hi*K, then one small fold of the
// carry word and one conditional subtract of p. The hot operations are
// header-inline; only the inverse (an addition chain) lives out of line.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/u256.hpp"

namespace hc::crypto {

namespace fp {
/// The field prime p = 2^256 - 2^32 - 977.
[[nodiscard]] const U256& P();
/// Reduce an arbitrary 256-bit value into [0, p).
[[nodiscard]] U256 reduce(const U256& a);
}  // namespace fp

namespace detail {

using u128 = unsigned __int128;

/// Full 512-bit product t = a * b of two 4-limb little-endian numbers.
inline void mul_512(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* t) {
  #pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) t[i] = 0;
  #pragma GCC unroll 8
  for (int i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    #pragma GCC unroll 8
    for (int j = 0; j < 4; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + t[i + j] + carry;
      t[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    t[i + 4] = carry;
  }
}

/// Full 512-bit square t = a * a: the six cross products are formed once
/// and doubled, so it costs 10 limb multiplies instead of 16.
inline void sqr_512(const std::uint64_t* a, std::uint64_t* t) {
  #pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) t[i] = 0;
  #pragma GCC unroll 8
  for (int i = 0; i < 3; ++i) {
    std::uint64_t carry = 0;
    #pragma GCC unroll 8
    for (int j = i + 1; j < 4; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    t[i + 4] = carry;
  }
  #pragma GCC unroll 8
  for (int i = 7; i > 0; --i) t[i] = (t[i] << 1) | (t[i - 1] >> 63);
  t[0] <<= 1;
  u128 acc = 0;
  #pragma GCC unroll 8
  for (int i = 0; i < 4; ++i) {
    const u128 sq = static_cast<u128>(a[i]) * a[i];
    acc += static_cast<u128>(t[2 * i]) + static_cast<std::uint64_t>(sq);
    t[2 * i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
    acc += static_cast<u128>(t[2 * i + 1]) +
           static_cast<std::uint64_t>(sq >> 64);
    t[2 * i + 1] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
}

}  // namespace detail

/// An element of F_p, always canonical.
class Fe {
 public:
  /// Zero.
  constexpr Fe() : n_{} {}
  /// A small constant (any 64-bit value is below p).
  constexpr explicit Fe(std::uint64_t v) : n_{v, 0, 0, 0} {}

  /// From an arbitrary 256-bit value, reduced mod p.
  [[nodiscard]] static Fe from_u256(const U256& a) {
    const std::uint64_t r[4] = {a.limb(0), a.limb(1), a.limb(2), a.limb(3)};
    return canonical(r, 0);
  }

  [[nodiscard]] U256 to_u256() const {
    return U256::from_limbs_be(n_[3], n_[2], n_[1], n_[0]);
  }

  [[nodiscard]] bool is_zero() const {
    return (n_[0] | n_[1] | n_[2] | n_[3]) == 0;
  }

  friend bool operator==(const Fe&, const Fe&) = default;

  [[nodiscard]] friend Fe operator+(const Fe& a, const Fe& b) {
    std::uint64_t r[4];
    detail::u128 acc = 0;
    #pragma GCC unroll 8
    for (int i = 0; i < 4; ++i) {
      acc += static_cast<detail::u128>(a.n_[i]) + b.n_[i];
      r[i] = static_cast<std::uint64_t>(acc);
      acc >>= 64;
    }
    return canonical(r, static_cast<std::uint64_t>(acc));
  }

  [[nodiscard]] friend Fe operator-(const Fe& a, const Fe& b) {
    // On borrow the limbs hold a - b + 2^256; subtracting K turns that
    // into a - b + p, which is in [0, p) and cannot borrow again.
    Fe r;
    std::uint64_t borrow = 0;
    #pragma GCC unroll 8
    for (int i = 0; i < 4; ++i) {
      const detail::u128 d =
          static_cast<detail::u128>(a.n_[i]) - b.n_[i] - borrow;
      r.n_[i] = static_cast<std::uint64_t>(d);
      borrow = static_cast<std::uint64_t>(d >> 64) & 1;
    }
    std::uint64_t sub = kK & (0 - borrow);
    #pragma GCC unroll 8
    for (int i = 0; i < 4; ++i) {
      const detail::u128 d = static_cast<detail::u128>(r.n_[i]) - sub;
      r.n_[i] = static_cast<std::uint64_t>(d);
      sub = static_cast<std::uint64_t>(d >> 64) & 1;
    }
    return r;
  }

  [[nodiscard]] friend Fe operator-(const Fe& a) { return Fe() - a; }

  [[nodiscard]] friend Fe operator*(const Fe& a, const Fe& b) {
    std::uint64_t t[8];
    detail::mul_512(a.n_.data(), b.n_.data(), t);
    return reduce_512(t);
  }

  [[nodiscard]] Fe sqr() const {
    std::uint64_t t[8];
    detail::sqr_512(n_.data(), t);
    return reduce_512(t);
  }

  /// Multiplicative inverse (this != 0): a^(p-2) by the standard secp256k1
  /// addition chain, 255 squarings and 15 multiplies.
  [[nodiscard]] Fe inv() const;

 private:
  /// 2^256 mod p.
  static constexpr std::uint64_t kK = 0x1000003D1ull;

  /// The residue of r + carry * 2^256, given that value is below 2p: one
  /// conditional subtract of p. r - p is r + K (mod 2^256), and that
  /// addition carries exactly when r >= p; the first pass finds the carry,
  /// the second adds K only if it is needed.
  [[nodiscard]] static Fe canonical(const std::uint64_t* r,
                                    std::uint64_t carry) {
    detail::u128 acc = kK;
    #pragma GCC unroll 8
    for (int i = 0; i < 4; ++i) {
      acc += r[i];
      acc >>= 64;
    }
    acc = kK & (0 - (static_cast<std::uint64_t>(acc) | carry));
    Fe out;
    #pragma GCC unroll 8
    for (int i = 0; i < 4; ++i) {
      acc += r[i];
      out.n_[i] = static_cast<std::uint64_t>(acc);
      acc >>= 64;
    }
    return out;
  }

  /// Reduce a 512-bit value t = hi * 2^256 + lo: lo + hi * K leaves a
  /// carry word below 2^34; folding it once more (carry * K < 2^67) leaves
  /// a value below 2^256 + 2^67 < 2p.
  [[nodiscard]] static Fe reduce_512(const std::uint64_t* t) {
    std::uint64_t r[4];
    detail::u128 acc = 0;
    #pragma GCC unroll 8
    for (int i = 0; i < 4; ++i) {
      acc += static_cast<detail::u128>(t[4 + i]) * kK + t[i];
      r[i] = static_cast<std::uint64_t>(acc);
      acc >>= 64;
    }
    acc = static_cast<detail::u128>(static_cast<std::uint64_t>(acc)) * kK +
          r[0];
    r[0] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
    #pragma GCC unroll 8
    for (int i = 1; i < 4; ++i) {
      acc += r[i];
      r[i] = static_cast<std::uint64_t>(acc);
      acc >>= 64;
    }
    return canonical(r, static_cast<std::uint64_t>(acc));
  }

  std::array<std::uint64_t, 4> n_;
};

}  // namespace hc::crypto
