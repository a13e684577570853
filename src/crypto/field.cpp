#include "crypto/field.hpp"

#include <cassert>

namespace hc::crypto {

namespace {

// p = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE FFFFFC2F
const U256 kP = U256::from_limbs_be(0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull,
                                    0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFEFFFFFC2Full);

/// a^(2^n): n successive squarings.
Fe sqr_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = a.sqr();
  return a;
}

}  // namespace

namespace fp {

const U256& P() { return kP; }

U256 reduce(const U256& a) { return Fe::from_u256(a).to_u256(); }

}  // namespace fp

Fe Fe::inv() const {
  assert(!is_zero() && "field inverse of zero");
  // In binary, p - 2 is 223 ones, a zero, 22 ones, then 0000101101.
  // xN below is a^(2^N - 1): the exponent is a run of N ones.
  const Fe& a = *this;
  const Fe x2 = a.sqr() * a;
  const Fe x3 = x2.sqr() * a;
  const Fe x6 = sqr_n(x3, 3) * x3;
  const Fe x9 = sqr_n(x6, 3) * x3;
  const Fe x11 = sqr_n(x9, 2) * x2;
  const Fe x22 = sqr_n(x11, 11) * x11;
  const Fe x44 = sqr_n(x22, 22) * x22;
  const Fe x88 = sqr_n(x44, 44) * x44;
  const Fe x176 = sqr_n(x88, 88) * x88;
  const Fe x220 = sqr_n(x176, 44) * x44;
  const Fe x223 = sqr_n(x220, 3) * x3;
  // The low 33 bits: 0 + 22 ones, 0000 + 1, 0 + 11, 0 + 1.
  Fe t = sqr_n(x223, 23) * x22;
  t = sqr_n(t, 5) * a;
  t = sqr_n(t, 3) * x2;
  return sqr_n(t, 2) * a;
}

}  // namespace hc::crypto
