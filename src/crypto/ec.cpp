#include "crypto/ec.hpp"

#include <array>
#include <cstdint>
#include <vector>

namespace hc::crypto {

namespace {

// n = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFD25E8C D0364141
const U256 kN = U256::from_limbs_be(0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFEull,
                                    0xBAAEDCE6AF48A03Bull, 0xBFD25E8CD0364141ull);
// 2^256 - n = 1 4551231950B75FC4 402DA1732FC9BEBF (129 bits), low limb first.
constexpr std::uint64_t kNC[3] = {0x402DA1732FC9BEBFull, 0x4551231950B75FC4ull,
                                  1};

const U256 kGx = U256::from_limbs_be(0x79BE667EF9DCBBACull, 0x55A06295CE870B07ull,
                                     0x029BFCDB2DCE28D9ull, 0x59F2815B16F81798ull);
const U256 kGy = U256::from_limbs_be(0x483ADA7726A3C465ull, 0x5DA4FBFC0E1108A8ull,
                                     0xFD17B448A6855419ull, 0x9C47D08FFB10D4B8ull);

/// Reduce a 512-bit value mod n. Each pass replaces hi * 2^256 + lo by
/// lo + hi * (2^256 - n), shrinking 512 -> 386 -> 260 bits and then to at
/// most 2^256 + 2^133, after which one more pass fits in 256 bits (< 2n).
U256 reduce512_n(const std::uint64_t* t) {
  std::uint64_t x[8];
  for (int i = 0; i < 8; ++i) x[i] = t[i];
  int len = 8;
  while (len > 4) {
    std::uint64_t y[8] = {x[0], x[1], x[2], x[3], 0, 0, 0, 0};
    for (int i = 0; i + 4 < len; ++i) {
      detail::u128 acc = 0;
      int j = 0;
      for (; j < 3; ++j) {
        acc += static_cast<detail::u128>(x[4 + i]) * kNC[j] + y[i + j];
        y[i + j] = static_cast<std::uint64_t>(acc);
        acc >>= 64;
      }
      for (; acc != 0; ++j) {
        acc += y[i + j];
        y[i + j] = static_cast<std::uint64_t>(acc);
        acc >>= 64;
      }
    }
    len = 8;
    while (len > 4 && y[len - 1] == 0) --len;
    for (int i = 0; i < 8; ++i) x[i] = y[i];
  }
  return fn::reduce(U256::from_limbs_be(x[3], x[2], x[1], x[0]));
}

}  // namespace

namespace fn {

const U256& N() { return kN; }

U256 reduce(const U256& a) {
  U256 r = a;
  while (r >= kN) r.sub_with_borrow(kN);
  return r;
}

U256 add(const U256& a, const U256& b) {
  U256 r = a;
  const std::uint64_t carry = r.add_with_carry(b);
  if (carry != 0) {
    // r + 2^256 ≡ r + (2^256 - n) (mod n); 2^256 - n < n so one addition
    // plus a conditional subtract suffices.
    U256 comp;  // 2^256 - n
    comp.sub_with_borrow(kN);
    r.add_with_carry(comp);
  }
  while (r >= kN) r.sub_with_borrow(kN);
  return r;
}

U256 sub(const U256& a, const U256& b) {
  U256 r = a;
  if (r.sub_with_borrow(b) != 0) r.add_with_carry(kN);
  return r;
}

U256 mul(const U256& a, const U256& b) {
  const std::uint64_t al[4] = {a.limb(0), a.limb(1), a.limb(2), a.limb(3)};
  const std::uint64_t bl[4] = {b.limb(0), b.limb(1), b.limb(2), b.limb(3)};
  std::uint64_t t[8];
  detail::mul_512(al, bl, t);
  return reduce512_n(t);
}

}  // namespace fn

Point Point::from_affine(const U256& x, const U256& y) {
  return Point(Fe::from_u256(x), Fe::from_u256(y), Fe(1));
}

const Point& Point::generator() {
  static const Point g = Point::from_affine(kGx, kGy);
  return g;
}

Point Point::doubled() const {
  if (is_infinity() || y_.is_zero()) return Point();
  // dbl-2007-bl formulas for a = 0.
  const Fe a = x_.sqr();                            // X^2
  const Fe b = y_.sqr();                            // Y^2
  const Fe c = b.sqr();                             // B^2
  Fe d = (x_ + b).sqr() - (a + c);
  d = d + d;                                        // 2*((X+B)^2 - A - C)
  const Fe e = a + a + a;                           // 3*A
  const Fe f = e.sqr();
  const Fe x3 = f - (d + d);
  Fe c8 = c + c;
  c8 = c8 + c8;
  c8 = c8 + c8;
  const Fe y3 = e * (d - x3) - c8;
  const Fe z3 = (y_ + y_) * z_;
  return Point(x3, y3, z3);
}

Point Point::add(const Point& other) const {
  if (is_infinity()) return other;
  if (other.is_infinity()) return *this;
  const Fe z1z1 = z_.sqr();
  const Fe z2z2 = other.z_.sqr();
  const Fe u1 = x_ * z2z2;
  const Fe u2 = other.x_ * z1z1;
  const Fe s1 = y_ * (z2z2 * other.z_);
  const Fe s2 = other.y_ * (z1z1 * z_);
  const Fe h = u2 - u1;
  const Fe r = s2 - s1;
  if (h.is_zero()) {
    if (r.is_zero()) return doubled();
    return Point();  // P + (-P) = infinity
  }
  const Fe h2 = h.sqr();
  const Fe h3 = h2 * h;
  const Fe u1h2 = u1 * h2;
  const Fe x3 = r.sqr() - h3 - (u1h2 + u1h2);
  const Fe y3 = r * (u1h2 - x3) - s1 * h3;
  const Fe z3 = h * (z_ * other.z_);
  return Point(x3, y3, z3);
}

Point Point::add_affine(const Fe& x, const Fe& y) const {
  if (is_infinity()) return Point(x, y, Fe(1));
  // madd-2007-bl specialization of add() for Z2 == 1.
  const Fe z1z1 = z_.sqr();
  const Fe u2 = x * z1z1;
  const Fe s2 = y * (z1z1 * z_);
  const Fe h = u2 - x_;
  const Fe r = s2 - y_;
  if (h.is_zero()) {
    if (r.is_zero()) return doubled();
    return Point();  // P + (-P) = infinity
  }
  const Fe h2 = h.sqr();
  const Fe h3 = h2 * h;
  const Fe u1h2 = x_ * h2;
  const Fe x3 = r.sqr() - h3 - (u1h2 + u1h2);
  const Fe y3 = r * (u1h2 - x3) - y_ * h3;
  const Fe z3 = h * z_;
  return Point(x3, y3, z3);
}

Point Point::negated() const { return Point(x_, -y_, z_); }

namespace {

/// One normalized entry of the fixed-base comb table.
struct AffineEntry {
  Fe x;
  Fe y;
};

}  // namespace

/// Builds the mul_generator comb: 32 byte windows * 255 multiples
/// (entry [j][v-1] = v * 2^(8j) * G), all normalized to affine with ONE
/// shared field inversion (Montgomery's trick) so process start-up stays
/// in the low milliseconds. Friend of Point for raw Jacobian access.
struct GenTableBuilder {
  static constexpr std::size_t kWindows = 32;
  static constexpr std::size_t kPerWindow = 255;

  [[nodiscard]] static std::vector<AffineEntry> build() {
    std::vector<Point> jac;
    jac.reserve(kWindows * kPerWindow);
    Point base = Point::generator();  // 2^(8j) * G for the current window
    for (std::size_t j = 0; j < kWindows; ++j) {
      Point acc = base;
      for (std::size_t v = 1; v <= kPerWindow; ++v) {
        jac.push_back(acc);
        acc = acc.add(base);
      }
      base = acc;  // 256 * (2^(8j) * G) = 2^(8(j+1)) * G
    }
    // Batch inversion: prefix[i] = Z_0 * ... * Z_i, one inv, walk back.
    std::vector<Fe> prefix(jac.size());
    Fe running(1);
    for (std::size_t i = 0; i < jac.size(); ++i) {
      running = running * jac[i].z_;
      prefix[i] = running;
    }
    Fe inv_all = running.inv();
    std::vector<AffineEntry> out(jac.size());
    for (std::size_t i = jac.size(); i-- > 0;) {
      const Fe zinv = i == 0 ? inv_all : inv_all * prefix[i - 1];
      inv_all = inv_all * jac[i].z_;
      const Fe zinv2 = zinv.sqr();
      out[i].x = jac[i].x_ * zinv2;
      out[i].y = jac[i].y_ * (zinv2 * zinv);
    }
    return out;
  }

  [[nodiscard]] static const std::vector<AffineEntry>& table() {
    static const std::vector<AffineEntry> t = build();
    return t;
  }
};

namespace {

/// Width-5 wNAF digits of k, least significant first. Digits are odd in
/// {-15..15}; the carry from folding a negative digit can push one bit
/// past 2^256, hence the 5-limb scratch.
int wnaf_digits(const U256& k, std::array<std::int8_t, 260>& digits) {
  std::uint64_t limbs[5] = {k.limb(0), k.limb(1), k.limb(2), k.limb(3), 0};
  const auto is_zero = [&] {
    return (limbs[0] | limbs[1] | limbs[2] | limbs[3] | limbs[4]) == 0;
  };
  const auto shr1 = [&] {
    for (int i = 0; i < 4; ++i) {
      limbs[i] = (limbs[i] >> 1) | (limbs[i + 1] << 63);
    }
    limbs[4] >>= 1;
  };
  int count = 0;
  while (!is_zero()) {
    std::int8_t d = 0;
    if ((limbs[0] & 1) != 0) {
      const auto low = static_cast<int>(limbs[0] & 31u);
      d = static_cast<std::int8_t>(low > 16 ? low - 32 : low);
      if (d > 0) {
        // Subtract d (fits in the low limb; k is odd so k >= d).
        std::uint64_t borrow = static_cast<std::uint64_t>(d);
        for (int i = 0; i < 5 && borrow != 0; ++i) {
          const std::uint64_t before = limbs[i];
          limbs[i] -= borrow;
          borrow = before < borrow ? 1 : 0;
        }
      } else {
        std::uint64_t carry = static_cast<std::uint64_t>(-d);
        for (int i = 0; i < 5 && carry != 0; ++i) {
          limbs[i] += carry;
          carry = limbs[i] < carry ? 1 : 0;
        }
      }
    }
    digits[static_cast<std::size_t>(count++)] = d;
    shr1();
  }
  return count;
}

}  // namespace

Point Point::mul(const U256& k) const {
  if (is_infinity() || k.is_zero()) return Point();
  // Odd multiples 1P, 3P, ..., 15P.
  std::array<Point, 8> odd;
  odd[0] = *this;
  const Point twice = doubled();
  for (std::size_t i = 1; i < odd.size(); ++i) {
    odd[i] = odd[i - 1].add(twice);
  }
  std::array<std::int8_t, 260> digits{};
  const int count = wnaf_digits(k, digits);
  Point acc;  // infinity
  for (int i = count - 1; i >= 0; --i) {
    acc = acc.doubled();
    const int d = digits[static_cast<std::size_t>(i)];
    if (d > 0) {
      acc = acc.add(odd[static_cast<std::size_t>((d - 1) / 2)]);
    } else if (d < 0) {
      acc = acc.add(odd[static_cast<std::size_t>((-d - 1) / 2)].negated());
    }
  }
  return acc;
}

Point Point::mul_generator(const U256& k) {
  const std::vector<AffineEntry>& table = GenTableBuilder::table();
  Point acc;  // infinity
  for (std::size_t j = 0; j < GenTableBuilder::kWindows; ++j) {
    const std::uint64_t v = (k.limb(static_cast<int>(j / 8)) >>
                             ((j % 8) * 8)) & 0xFFu;
    if (v != 0) {
      const AffineEntry& e =
          table[j * GenTableBuilder::kPerWindow + (v - 1)];
      acc = acc.add_affine(e.x, e.y);
    }
  }
  return acc;
}

std::optional<Point::Affine> Point::to_affine() const {
  if (is_infinity()) return std::nullopt;
  const Fe zinv = z_.inv();
  const Fe zinv2 = zinv.sqr();
  return Affine{(x_ * zinv2).to_u256(), (y_ * (zinv2 * zinv)).to_u256()};
}

bool Point::is_on_curve(const U256& x, const U256& y) {
  if (x >= fp::P() || y >= fp::P()) return false;
  const Fe fx = Fe::from_u256(x);
  return Fe::from_u256(y).sqr() == fx.sqr() * fx + Fe(7);
}

bool Point::equals(const Point& other) const {
  if (is_infinity() || other.is_infinity()) {
    return is_infinity() == other.is_infinity();
  }
  // X1/Z1^2 == X2/Z2^2  <=>  X1*Z2^2 == X2*Z1^2 (and same for Y with cubes).
  const Fe z1z1 = z_.sqr();
  const Fe z2z2 = other.z_.sqr();
  if (x_ * z2z2 != other.x_ * z1z1) return false;
  return y_ * (z2z2 * other.z_) == other.y_ * (z1z1 * z_);
}

}  // namespace hc::crypto
