// Slow reference arithmetic for secp256k1: the test oracle for the field
// and scalar layer (crypto/field.hpp, crypto/ec.cpp). It is deliberately
// generic and independent of that code: a schoolbook 512-bit product, a
// reduction mod p that folds by 2^32 + 977 through two more general
// multiplies, Fermat exponentiation for the inverse, and a shift-add
// product mod n. Everything is plain U256 with carries and borrows.
#pragma once

#include <cassert>
#include <cstdint>

#include "crypto/ec.hpp"
#include "crypto/u256.hpp"

namespace hc::crypto::ref {

/// Full 512-bit product as {lo, hi}.
struct WideProduct {
  U256 lo;
  U256 hi;
};

/// Schoolbook 4x4-limb product.
inline WideProduct mul_wide(const U256& a, const U256& b) {
  std::uint64_t prod[8] = {};
  for (int i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(a.limb(i)) * b.limb(j) +
          prod[i + j] + carry;
      prod[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    prod[i + 4] += carry;
  }
  return {U256::from_limbs_be(prod[3], prod[2], prod[1], prod[0]),
          U256::from_limbs_be(prod[7], prod[6], prod[5], prod[4])};
}

/// 2^256 mod p = 2^32 + 977.
inline const U256 kPComplement = U256(0x1000003D1ull);

/// Reduce a 512-bit value mod p using 2^256 = 2^32 + 977 (mod p).
inline U256 fp_reduce512(const WideProduct& w) {
  // First fold: lo + hi * (2^32 + 977); the product is below 2^289, so
  // form it as another wide product and fold its high part again.
  const WideProduct f1 = mul_wide(w.hi, kPComplement);
  U256 acc = w.lo;
  std::uint64_t carry = acc.add_with_carry(f1.lo);
  U256 high = f1.hi;
  high.add_with_carry(U256(carry));
  const WideProduct f2 = mul_wide(high, kPComplement);
  assert(f2.hi.is_zero());
  carry = acc.add_with_carry(f2.lo);
  if (carry != 0) acc.add_with_carry(kPComplement);
  while (acc >= fp::P()) acc.sub_with_borrow(fp::P());
  return acc;
}

inline U256 fp_add(const U256& a, const U256& b) {
  U256 r = a;
  if (r.add_with_carry(b) != 0) r.add_with_carry(kPComplement);
  while (r >= fp::P()) r.sub_with_borrow(fp::P());
  return r;
}

inline U256 fp_sub(const U256& a, const U256& b) {
  U256 r = a;
  if (r.sub_with_borrow(b) != 0) r.add_with_carry(fp::P());
  return r;
}

inline U256 fp_mul(const U256& a, const U256& b) {
  return fp_reduce512(mul_wide(a, b));
}

/// a^e mod p (square-and-multiply).
inline U256 fp_pow(const U256& a, const U256& e) {
  U256 result(1);
  for (int i = e.top_bit(); i >= 0; --i) {
    result = fp_mul(result, result);
    if (e.bit(i)) result = fp_mul(result, a);
  }
  return result;
}

/// Fermat inverse a^(p-2) (a != 0).
inline U256 fp_inv(const U256& a) { return fp_pow(a, fp::P() - U256(2)); }

/// a + b mod n for any 256-bit a and b (the 257-bit sum, then subtract n
/// until it is below n).
inline U256 fn_add(const U256& a, const U256& b) {
  U256 r = a;
  std::uint64_t carry = r.add_with_carry(b);
  while (carry != 0 || r >= fn::N()) carry -= r.sub_with_borrow(fn::N());
  return r;
}

/// a * b mod n by shift-add over fn_add.
inline U256 fn_mul(const U256& a, const U256& b) {
  U256 acc;
  const U256 aa = fn_add(a, U256());
  for (int i = b.top_bit(); i >= 0; --i) {
    acc = fn_add(acc, acc);
    if (b.bit(i)) acc = fn_add(acc, aa);
  }
  return acc;
}

}  // namespace hc::crypto::ref
