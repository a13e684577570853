// Differential tests for the secp256k1 field and scalar layer: Fe and
// fn::mul/fn::add against the slow reference in crypto_ref.hpp, on seeded
// random values and on edge values that reach every reduction branch.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/ec.hpp"
#include "crypto/field.hpp"
#include "crypto_ref.hpp"

namespace hc::crypto {
namespace {

constexpr int kRandomCases = 10000;

const U256 kMax = U256::from_limbs_be(~0ull, ~0ull, ~0ull, ~0ull);

/// Random 256-bit values, biased towards the extremes: a quarter are
/// uniform, the rest sit just below p or n, just below 2^256, or are
/// small, so carries and conditional subtracts are exercised often.
class Values {
 public:
  explicit Values(std::uint64_t seed) : rng_(seed) {}

  U256 next() {
    const U256 small(rng_() & 0xFFFF);
    switch (rng_() % 5) {
      case 0: return fp::P() - U256(1) - small;
      case 1: return fn::N() - U256(1) - small;
      case 2: return kMax - small;
      case 3: return U256(rng_());
      default: return U256::from_limbs_be(rng_(), rng_(), rng_(), rng_());
    }
  }

 private:
  std::mt19937_64 rng_;
};

/// Values whose arithmetic hits the rare branches, plus the obvious edges.
std::vector<U256> field_edges() {
  const U256 p = fp::P();
  return {
      U256(), U256(1), U256(2), p - U256(1), p - U256(2), p, p + U256(1),
      kMax, U256(0x1000003D1ull), U256::from_limbs_be(1ull << 63, 0, 0, 0),
      U256::from_limbs_be(0, 0, ~0ull, ~0ull),
      // Times 2^255 (above), the first of these leaves a carry word whose
      // fold wraps past 2^256 again; the second folds to a value in
      // [p, 2^256) that needs the final subtract. Random products reach
      // neither branch (odds below 2^-188).
      U256::from_be_bytes(*from_hex(
          "00000003fffff0bc003a428321a8298c8d396e9907d0e9f92bb31010399fb214")),
      U256::from_be_bytes(*from_hex(
          "00000001fffff85e001d214190d414c6469cb74c83e874fc95d988081ccfd90a")),
  };
}

TEST(FieldDiff, ReduceEdges) {
  const U256 p = fp::P();
  EXPECT_EQ(fp::reduce(U256()), U256());
  EXPECT_EQ(fp::reduce(p - U256(1)), p - U256(1));
  EXPECT_EQ(fp::reduce(p - U256(2)), p - U256(2));
  EXPECT_EQ(fp::reduce(p), U256());
  EXPECT_EQ(fp::reduce(kMax), U256(0x1000003D0ull));
  EXPECT_EQ(fp::reduce(fn::N() - U256(1)), fn::N() - U256(1));
  EXPECT_EQ(fn::reduce(fn::N()), U256());
  EXPECT_EQ(fn::reduce(fn::N() - U256(1)), fn::N() - U256(1));
  EXPECT_EQ(fn::reduce(kMax), kMax - fn::N());
  EXPECT_EQ(fn::reduce(p - U256(1)), p - U256(1) - fn::N());
}

/// Checks every Fe operation on (a, b) against the reference.
void expect_field_ops_match(const U256& a_raw, const U256& b_raw) {
  const U256 a = fp::reduce(a_raw);
  const U256 b = fp::reduce(b_raw);
  const Fe fa = Fe::from_u256(a_raw);
  const Fe fb = Fe::from_u256(b_raw);
  ASSERT_EQ(fa.to_u256(), a) << a_raw.to_hex();
  EXPECT_EQ((fa * fb).to_u256(), ref::fp_mul(a, b))
      << a.to_hex() << " * " << b.to_hex();
  EXPECT_EQ(fa.sqr().to_u256(), ref::fp_mul(a, a)) << a.to_hex();
  EXPECT_EQ((fa + fb).to_u256(), ref::fp_add(a, b))
      << a.to_hex() << " + " << b.to_hex();
  EXPECT_EQ((fa - fb).to_u256(), ref::fp_sub(a, b))
      << a.to_hex() << " - " << b.to_hex();
  EXPECT_EQ((-fa).to_u256(), ref::fp_sub(U256(), a)) << a.to_hex();
}

TEST(FieldDiff, EdgeValuesMatchReference) {
  for (const U256& a : field_edges()) {
    for (const U256& b : field_edges()) expect_field_ops_match(a, b);
  }
}

TEST(FieldDiff, RandomValuesMatchReference) {
  Values values(0x5EC9256B1ull);
  for (int i = 0; i < kRandomCases; ++i) {
    expect_field_ops_match(values.next(), values.next());
    if (HasFailure()) return;
  }
}

TEST(FieldDiff, InverseMatchesFermat) {
  Values values(0x1A7E5ull);
  for (int i = 0; i < kRandomCases; ++i) {
    const Fe a = Fe::from_u256(values.next());
    if (a.is_zero()) continue;
    ASSERT_EQ(a.inv() * a, Fe(1)) << a.to_u256().to_hex();
    // The Fermat reference is slow; compare it on a sample.
    if (i % 50 == 0) {
      ASSERT_EQ(a.inv().to_u256(), ref::fp_inv(a.to_u256()))
          << a.to_u256().to_hex();
    }
  }
  for (const U256& e : field_edges()) {
    const Fe a = Fe::from_u256(e);
    if (a.is_zero()) continue;
    EXPECT_EQ(a.inv() * a, Fe(1)) << e.to_hex();
    EXPECT_EQ(a.inv().to_u256(), ref::fp_inv(a.to_u256())) << e.to_hex();
  }
}

std::vector<U256> scalar_edges() {
  const U256 n = fn::N();
  return {U256(),         U256(1),      U256(2),          n - U256(1),
          n - U256(2),    n,            n + U256(1),      kMax,
          kMax - n,       fp::P(),      U256(~0ull),
          U256::from_limbs_be(1ull << 63, 0, 0, 0)};
}

void expect_scalar_ops_match(const U256& a, const U256& b) {
  EXPECT_EQ(fn::mul(a, b), ref::fn_mul(a, b))
      << a.to_hex() << " * " << b.to_hex();
  const U256 ar = fn::reduce(a);
  const U256 br = fn::reduce(b);
  EXPECT_EQ(fn::add(ar, br), ref::fn_add(ar, br))
      << ar.to_hex() << " + " << br.to_hex();
}

TEST(ScalarDiff, EdgeValuesMatchReference) {
  for (const U256& a : scalar_edges()) {
    for (const U256& b : scalar_edges()) expect_scalar_ops_match(a, b);
  }
  // (n - 1)^2 = 1 and (2^256 - 1)^2 through every folding pass.
  const U256 nm1 = fn::N() - U256(1);
  EXPECT_EQ(fn::mul(nm1, nm1), U256(1));
  EXPECT_EQ(fn::mul(kMax, kMax), ref::fn_mul(kMax, kMax));
}

TEST(ScalarDiff, RandomValuesMatchReference) {
  Values values(0x5CA1A2ull);
  for (int i = 0; i < kRandomCases; ++i) {
    expect_scalar_ops_match(values.next(), values.next());
    if (HasFailure()) return;
  }
}

TEST(CurveDiff, GeneratorCombMatchesWnaf) {
  Values values(0xC0B5ull);
  const Point& g = Point::generator();
  for (int i = 0; i < 64; ++i) {
    const U256 k = fn::reduce(values.next());
    EXPECT_TRUE(Point::mul_generator(k).equals(g.mul(k))) << k.to_hex();
  }
}

TEST(CurveDiff, AffineRoundTripOnCurve) {
  Values values(0xAFF1ull);
  for (int i = 0; i < 64; ++i) {
    const U256 k = fn::reduce(values.next());
    if (k.is_zero()) continue;
    const auto a = Point::mul_generator(k).to_affine();
    ASSERT_TRUE(a.has_value());
    EXPECT_LT(a->x, fp::P());
    EXPECT_LT(a->y, fp::P());
    EXPECT_TRUE(Point::is_on_curve(a->x, a->y));
    EXPECT_TRUE(Point::from_affine(a->x, a->y).equals(Point::mul_generator(k)));
  }
}

}  // namespace
}  // namespace hc::crypto
