// secp256k1 elliptic-curve arithmetic: y^2 = x^3 + 7 over F_p.
//
// Coordinates are field elements (Fe, field.hpp); scalars mod the group
// order n stay U256 and multiply as a full 512-bit product folded by the
// 129-bit constant 2^256 - n. Points are tracked in Jacobian coordinates to
// avoid per-operation field inversions. U256 appears only at the public
// boundary: affine coordinates in and out, and scalars.
#pragma once

#include <optional>

#include "crypto/field.hpp"
#include "crypto/u256.hpp"

namespace hc::crypto {

/// Scalar arithmetic modulo the group order n.
namespace fn {
/// The group order n.
[[nodiscard]] const U256& N();
[[nodiscard]] U256 add(const U256& a, const U256& b);
[[nodiscard]] U256 sub(const U256& a, const U256& b);
/// a * b mod n for any 256-bit a and b.
[[nodiscard]] U256 mul(const U256& a, const U256& b);
/// Reduce an arbitrary 256-bit value into [0, n).
[[nodiscard]] U256 reduce(const U256& a);
}  // namespace fn

/// A curve point in Jacobian coordinates (X/Z^2, Y/Z^3); Z == 0 encodes the
/// point at infinity.
class Point {
 public:
  /// Point at infinity.
  Point() : x_(), y_(Fe(1)), z_() {}

  /// From affine coordinates (reduced mod p; assumed on-curve, see
  /// is_on_curve()).
  [[nodiscard]] static Point from_affine(const U256& x, const U256& y);

  /// The generator G.
  [[nodiscard]] static const Point& generator();

  [[nodiscard]] bool is_infinity() const { return z_.is_zero(); }

  [[nodiscard]] Point doubled() const;
  [[nodiscard]] Point add(const Point& other) const;
  /// Mixed addition with an affine point (implicit Z == 1): 8M + 3S versus
  /// the 12M + 4S of the general Jacobian add. The workhorse of the
  /// fixed-base table walk in mul_generator().
  [[nodiscard]] Point add_affine(const Fe& x, const Fe& y) const;
  /// Group negation (X, -Y, Z).
  [[nodiscard]] Point negated() const;
  /// Scalar multiplication k * this (width-5 wNAF: a shared doubling chain
  /// plus one add per ~6 scalar bits against 8 precomputed odd multiples).
  [[nodiscard]] Point mul(const U256& k) const;

  /// k * G via a fixed-base comb: 32 byte-indexed windows of precomputed
  /// affine multiples (v * 2^(8j) * G), so a full-width scalar costs at
  /// most 32 mixed additions and no doublings. Signing and the s*G term
  /// of verification are the simulation's hottest code paths — consensus
  /// engines sign every vote and every user message verifies once.
  [[nodiscard]] static Point mul_generator(const U256& k);

  /// Affine coordinates; nullopt for infinity. Costs one field inversion.
  struct Affine {
    U256 x;
    U256 y;
  };
  [[nodiscard]] std::optional<Affine> to_affine() const;

  /// Verify the affine point satisfies the curve equation. Coordinates
  /// must be canonical (< p): x + p would otherwise be a second encoding
  /// of the same point, i.e. a second key or a malleated signature.
  [[nodiscard]] static bool is_on_curve(const U256& x, const U256& y);

  /// Equality as group elements (cross-multiplied, no inversion).
  [[nodiscard]] bool equals(const Point& other) const;

 private:
  friend struct GenTableBuilder;  // batch-normalizes the fixed-base table

  Point(const Fe& x, const Fe& y, const Fe& z) : x_(x), y_(y), z_(z) {}

  Fe x_;
  Fe y_;
  Fe z_;
};

}  // namespace hc::crypto
