// 256-bit unsigned integer arithmetic.
//
// Fixed-width little-endian limb representation (limbs_[0] is least
// significant). This is the byte and public-API form of field elements and
// scalars; the field arithmetic itself runs on Fe (field.hpp).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.hpp"

namespace hc::crypto {

class U256 {
 public:
  /// Zero.
  constexpr U256() : limbs_{} {}

  /// From a single 64-bit value.
  constexpr explicit U256(std::uint64_t v) : limbs_{v, 0, 0, 0} {}

  /// From four 64-bit limbs, most-significant first (matches how constants
  /// are written in standards documents).
  [[nodiscard]] static constexpr U256 from_limbs_be(std::uint64_t a,
                                                    std::uint64_t b,
                                                    std::uint64_t c,
                                                    std::uint64_t d) {
    U256 r;
    r.limbs_ = {d, c, b, a};
    return r;
  }

  /// From exactly 32 big-endian bytes.
  [[nodiscard]] static U256 from_be_bytes(BytesView bytes);

  /// From a 32-byte digest (big-endian interpretation).
  [[nodiscard]] static U256 from_digest(const std::array<std::uint8_t, 32>& d);

  /// To 32 big-endian bytes.
  [[nodiscard]] Bytes to_be_bytes() const;

  /// Hex rendering (64 chars, no prefix).
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] constexpr bool is_zero() const {
    return (limbs_[0] | limbs_[1] | limbs_[2] | limbs_[3]) == 0;
  }

  [[nodiscard]] constexpr std::uint64_t limb(int i) const {
    return limbs_[static_cast<std::size_t>(i)];
  }

  /// Bit i (0 = least significant).
  [[nodiscard]] constexpr bool bit(int i) const {
    return (limbs_[static_cast<std::size_t>(i / 64)] >>
            (static_cast<unsigned>(i) % 64)) & 1u;
  }

  /// Index of the highest set bit, or -1 if zero.
  [[nodiscard]] int top_bit() const;

  /// this + rhs; returns the carry out (0/1).
  std::uint64_t add_with_carry(const U256& rhs);
  /// this - rhs; returns the borrow out (0/1).
  std::uint64_t sub_with_borrow(const U256& rhs);

  [[nodiscard]] friend U256 operator+(U256 a, const U256& b) {
    a.add_with_carry(b);
    return a;
  }
  [[nodiscard]] friend U256 operator-(U256 a, const U256& b) {
    a.sub_with_borrow(b);
    return a;
  }

  friend constexpr auto operator<=>(const U256& a, const U256& b) {
    for (int i = 3; i >= 0; --i) {
      if (a.limbs_[static_cast<std::size_t>(i)] !=
          b.limbs_[static_cast<std::size_t>(i)]) {
        return a.limbs_[static_cast<std::size_t>(i)] <=>
               b.limbs_[static_cast<std::size_t>(i)];
      }
    }
    return std::strong_ordering::equal;
  }
  friend constexpr bool operator==(const U256&, const U256&) = default;

 private:
  std::array<std::uint64_t, 4> limbs_;
};

}  // namespace hc::crypto
