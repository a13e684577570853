// Unit tests for the crypto module: U256 arithmetic, secp256k1 curve ops,
// Schnorr signatures and Merkle trees.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "crypto/batchverify.hpp"
#include "crypto/ec.hpp"
#include "crypto/field.hpp"
#include "crypto/merkle.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sigcache.hpp"
#include "crypto/u256.hpp"
#include "crypto_ref.hpp"

namespace hc::crypto {
namespace {

using ref::mul_wide;

// ---------------------------------------------------------------- U256

TEST(U256, BytesRoundTrip) {
  const auto bytes = *from_hex(
      "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
  const U256 v = U256::from_be_bytes(bytes);
  EXPECT_EQ(v.to_be_bytes(), bytes);
  EXPECT_EQ(v.to_hex(),
            "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
}

TEST(U256, AddCarryPropagation) {
  U256 max = U256::from_limbs_be(~0ull, ~0ull, ~0ull, ~0ull);
  EXPECT_EQ(max.add_with_carry(U256(1)), 1u);  // wraps to zero with carry
  EXPECT_TRUE(max.is_zero());
}

TEST(U256, SubBorrowPropagation) {
  U256 zero;
  EXPECT_EQ(zero.sub_with_borrow(U256(1)), 1u);
  EXPECT_EQ(zero, U256::from_limbs_be(~0ull, ~0ull, ~0ull, ~0ull));
}

TEST(U256, Comparison) {
  const U256 small(5);
  const U256 big = U256::from_limbs_be(1, 0, 0, 0);
  EXPECT_LT(small, big);
  EXPECT_GT(big, small);
  EXPECT_EQ(small, U256(5));
}

TEST(U256, TopBitAndBit) {
  EXPECT_EQ(U256().top_bit(), -1);
  EXPECT_EQ(U256(1).top_bit(), 0);
  EXPECT_EQ(U256(0x80).top_bit(), 7);
  const U256 high = U256::from_limbs_be(0x8000000000000000ull, 0, 0, 0);
  EXPECT_EQ(high.top_bit(), 255);
  EXPECT_TRUE(high.bit(255));
  EXPECT_FALSE(high.bit(254));
}

TEST(U256, MulWideSmall) {
  auto w = mul_wide(U256(7), U256(6));
  EXPECT_EQ(w.lo, U256(42));
  EXPECT_TRUE(w.hi.is_zero());
}

TEST(U256, MulWideFull) {
  // (2^256 - 1)^2 = 2^512 - 2^257 + 1 → lo = 1, hi = 2^256 - 2 (i.e. ...fffe)
  const U256 max = U256::from_limbs_be(~0ull, ~0ull, ~0ull, ~0ull);
  auto w = mul_wide(max, max);
  EXPECT_EQ(w.lo, U256(1));
  EXPECT_EQ(w.hi, U256::from_limbs_be(~0ull, ~0ull, ~0ull, ~0ull - 1));
}

// ---------------------------------------------------------------- field

TEST(Field, AddSubInverse) {
  const Fe a(12345);
  const Fe b(67890);
  EXPECT_EQ((a + b) - b, a);
  EXPECT_EQ(a - a, Fe());
  EXPECT_EQ(a + (-a), Fe());
  // Wraparound: (p - 1) + 2 == 1 (mod p)
  const Fe pm1 = Fe::from_u256(fp::P() - U256(1));
  EXPECT_EQ(pm1 + Fe(2), Fe(1));
  EXPECT_EQ(-Fe(1), pm1);
}

TEST(Field, MulMatchesRepeatedAdd) {
  const Fe a(0xdeadbeef);
  Fe sum;
  for (int i = 0; i < 1000; ++i) sum = sum + a;
  EXPECT_EQ(a * Fe(1000), sum);
  EXPECT_EQ(a.sqr(), a * a);
}

TEST(Field, FermatInverse) {
  // The addition-chain inverse equals the Fermat one, a^(p-2).
  for (std::uint64_t v : {1ull, 2ull, 977ull, 0xffffffffull}) {
    const Fe a(v);
    EXPECT_EQ(a * a.inv(), Fe(1)) << v;
    EXPECT_EQ(a.inv().to_u256(), ref::fp_inv(U256(v))) << v;
  }
}

TEST(Field, PowBasics) {
  // The reference exponentiation that the inverse is checked against.
  EXPECT_EQ(ref::fp_pow(U256(2), U256(10)), U256(1024));
  EXPECT_EQ(ref::fp_pow(U256(5), U256(0)), U256(1));
  // Fermat: a^(p-1) == 1 (mod p)
  U256 pm1 = fp::P();
  pm1.sub_with_borrow(U256(1));
  EXPECT_EQ(ref::fp_pow(U256(7), pm1), U256(1));
}

TEST(Scalar, AddMulBasics) {
  const U256 a(1000);
  const U256 b(2000);
  EXPECT_EQ(fn::add(a, b), U256(3000));
  EXPECT_EQ(fn::mul(a, b), U256(2000000));
  // n - 1 + 2 == 1 (mod n)
  U256 nm1 = fn::N();
  nm1.sub_with_borrow(U256(1));
  EXPECT_EQ(fn::add(nm1, U256(2)), U256(1));
  EXPECT_EQ(fn::sub(U256(1), U256(2)), nm1);
}

// ---------------------------------------------------------------- curve

TEST(Curve, GeneratorOnCurve) {
  const auto g = Point::generator().to_affine();
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(Point::is_on_curve(g->x, g->y));
}

TEST(Curve, KnownScalarMultiple) {
  // 2*G, standard secp256k1 test vector.
  const auto p2 = Point::generator().mul(U256(2)).to_affine();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->x.to_hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(p2->y.to_hex(),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Curve, DoubleEqualsAdd) {
  const Point& g = Point::generator();
  EXPECT_TRUE(g.doubled().equals(g.add(g)));
  EXPECT_TRUE(g.mul(U256(3)).equals(g.doubled().add(g)));
}

TEST(Curve, MulDistributes) {
  const Point& g = Point::generator();
  // (a + b)G == aG + bG
  const U256 a(123456789);
  const U256 b(987654321);
  EXPECT_TRUE(g.mul(fn::add(a, b)).equals(g.mul(a).add(g.mul(b))));
}

TEST(Curve, OrderAnnihilates) {
  const U256 nm1 = fn::N() - U256(1);
  const Point& g = Point::generator();
  const Point p = g.mul(U256(0xC0FFEEull));
  EXPECT_TRUE(g.mul(fn::N()).is_infinity());
  EXPECT_TRUE(p.mul(fn::N()).is_infinity());
  // (n - 1) * P = -P, so adding P gives infinity.
  EXPECT_TRUE(p.mul(nm1).equals(p.negated()));
  EXPECT_TRUE(p.mul(nm1).add(p).is_infinity());
  EXPECT_TRUE(Point::mul_generator(nm1).add(g).is_infinity());
}

TEST(Curve, InfinityIsIdentity) {
  const Point inf;
  const Point& g = Point::generator();
  EXPECT_TRUE(inf.add(g).equals(g));
  EXPECT_TRUE(g.add(inf).equals(g));
  EXPECT_TRUE(inf.is_infinity());
  EXPECT_TRUE(inf.doubled().is_infinity());
}

TEST(Curve, AddInverseGivesInfinity) {
  const Point& g = Point::generator();
  const auto ga = g.to_affine();
  ASSERT_TRUE(ga.has_value());
  const Point neg_g =
      Point::from_affine(ga->x, (-Fe::from_u256(ga->y)).to_u256());
  EXPECT_TRUE(g.add(neg_g).is_infinity());
}

// ---------------------------------------------------------------- schnorr

TEST(Schnorr, SignVerifyRoundTrip) {
  const KeyPair kp = KeyPair::from_label("validator-0");
  const Bytes msg = to_bytes("checkpoint for /root/f0101 at epoch 42");
  const Signature sig = kp.sign(msg);
  EXPECT_TRUE(verify(kp.public_key(), msg, sig));
}

TEST(Schnorr, RejectsWrongMessage) {
  const KeyPair kp = KeyPair::from_label("validator-0");
  const Signature sig = kp.sign(to_bytes("message A"));
  EXPECT_FALSE(verify(kp.public_key(), to_bytes("message B"), sig));
}

TEST(Schnorr, RejectsWrongKey) {
  const KeyPair alice = KeyPair::from_label("alice");
  const KeyPair bob = KeyPair::from_label("bob");
  const Bytes msg = to_bytes("message");
  EXPECT_FALSE(verify(bob.public_key(), msg, alice.sign(msg)));
}

TEST(Schnorr, RejectsTamperedSignature) {
  const KeyPair kp = KeyPair::from_label("validator-1");
  const Bytes msg = to_bytes("message");
  const Signature sig = kp.sign(msg);
  Bytes raw = sig.to_bytes();
  raw[95] ^= 1;  // flip a bit in s
  auto tampered = Signature::from_bytes(raw);
  ASSERT_TRUE(tampered.ok());
  EXPECT_FALSE(verify(kp.public_key(), msg, tampered.value()));
}

TEST(Schnorr, DeterministicSigning) {
  const KeyPair kp = KeyPair::from_label("validator-2");
  const Bytes msg = to_bytes("message");
  EXPECT_EQ(kp.sign(msg), kp.sign(msg));
}

// Known answers: exact key and signature bytes. DeterministicSigning only
// compares two signings with each other; these pin the bytes themselves,
// so any change to the field, scalar or point arithmetic that alters an
// output fails here.
TEST(Schnorr, KnownAnswerPublicKeys) {
  const std::pair<const char*, const char*> cases[] = {
      {"validator-0",
       "6c6e07fc87e427cd957077036441de4ade95f934a9a7ba84b408d7575e04e89a"
       "0c0dae9b2505044b76c1d912ededa220a5777c2dc262345a94d2a47b147a2898"},
      {"alice",
       "63375d4f261e12ad199d9207ad015445886b0ff54dcd6d454b288d26641fb640"
       "536698ac7444c2c5034bb5c7d06e86ea5d21e05a0b0d720bf948a1ea29ddb000"},
      {"kat-label-3",
       "5fb8fbef71062d2e5846b8abb6e726134550161dfba2c25429120e916528160a"
       "8f8410f67ebd617d743d045ffba2f3d159b5f4d9aabce606a11a53930449bd81"},
  };
  for (const auto& [label, hex] : cases) {
    EXPECT_EQ(to_hex(KeyPair::from_label(label).public_key().to_bytes()), hex)
        << label;
  }
}

TEST(Schnorr, KnownAnswerSignatures) {
  const KeyPair kp = KeyPair::from_label("validator-0");
  const std::pair<const char*, const char*> cases[] = {
      {"",
       "44aa4989b7620c52ef8789971b5816f9f5ec4ba6f0c80299b10430f58a41a48c"
       "fdaab084861a4c095139b10e7e48e3cc38cf3667a61bb93814500dc345facfd1"
       "0f7cd4a20dee7cad0cb31f31d3080f7978f340b1528bd11d1d9d3b2948755ac8"},
      {"message",
       "3a862a86422a631af367fab777b90a129e80b8de23147c1e53fb471dca7b9882"
       "b1baf33597d95e140554df46744ecab44b6f2d7e6d83b08d67c6f1989c478347"
       "8f2d04d80fd956945f4fe31bf68b8488f2767362fa7088f484d86c7727c75a87"},
      {"checkpoint for subnet f0101 at epoch 42",
       "56ebe5a0c14a77ce0b0c290ab93e0c58247feb1def32dff855d63e9a32cb94f9"
       "8583332fa30051c586c1ed3c9919e837857d2c3735a70d0eec0bc7ecbc8ce950"
       "98c09e4f5afef450ef577004fcbab965c936d926eed80d1b42b28b9a54f9c5e5"},
  };
  for (const auto& [msg, hex] : cases) {
    const Bytes m = to_bytes(std::string_view(msg));
    const Signature sig = kp.sign(m);
    EXPECT_EQ(to_hex(sig.to_bytes()), hex) << '"' << msg << '"';
    EXPECT_TRUE(verify(kp.public_key(), m, sig)) << '"' << msg << '"';
  }
}

TEST(Schnorr, DistinctSeedsDistinctKeys) {
  EXPECT_NE(KeyPair::from_label("a").public_key(),
            KeyPair::from_label("b").public_key());
}

TEST(Schnorr, PublicKeySerializationRoundTrip) {
  const KeyPair kp = KeyPair::from_label("serialize-me");
  auto pk = PublicKey::from_bytes(kp.public_key().to_bytes());
  ASSERT_TRUE(pk.ok());
  EXPECT_EQ(pk.value(), kp.public_key());
}

TEST(Schnorr, PublicKeyRejectsOffCurvePoint) {
  Bytes junk(64, 0x42);
  EXPECT_FALSE(PublicKey::from_bytes(junk).ok());
}

// (1, y) with y = sqrt(8) mod p is on the curve; x = p + 1 still fits in
// 256 bits and reduces to the same point, so without a canonical check
// one key would have two encodings (and two key Addresses).
constexpr const char* kXOneY =
    "4218f20ae6c646b363db68605822fb14264ca8d2587fdd6fbc750d587e76a7ee";
constexpr const char* kPPlusOne =
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc30";

TEST(Schnorr, PublicKeyRejectsNonCanonicalCoordinates) {
  const Bytes canonical = *from_hex(std::string(63, '0') + "1" + kXOneY);
  ASSERT_TRUE(PublicKey::from_bytes(canonical).ok());
  const Bytes x_plus_p = *from_hex(std::string(kPPlusOne) + kXOneY);
  EXPECT_TRUE(
      Point::is_on_curve(U256(1), U256::from_be_bytes(*from_hex(kXOneY))));
  EXPECT_FALSE(Point::is_on_curve(U256::from_be_bytes(*from_hex(kPPlusOne)),
                                  U256::from_be_bytes(*from_hex(kXOneY))));
  EXPECT_FALSE(PublicKey::from_bytes(x_plus_p).ok());
}

TEST(Schnorr, VerifyRejectsNonCanonicalNonce) {
  // R given as rx + p with rx = 1: the same group element as the canonical
  // (1, y). Nobody knows its discrete log, so no real signature carries
  // it; this pins the rule that verify refuses such a nonce outright.
  const KeyPair kp = KeyPair::from_label("validator-0");
  const Bytes msg = to_bytes("message");
  const Signature sig = kp.sign(msg);
  const Signature non_canonical(U256::from_be_bytes(*from_hex(kPPlusOne)),
                                U256::from_be_bytes(*from_hex(kXOneY)),
                                sig.s());
  EXPECT_FALSE(verify(kp.public_key(), msg, non_canonical));
  EXPECT_TRUE(verify(kp.public_key(), msg, sig));
}

TEST(Schnorr, SignatureRejectsBadLength) {
  EXPECT_FALSE(Signature::from_bytes(Bytes(95, 0)).ok());
}

TEST(Schnorr, TaggedHashDomainSeparation) {
  const Bytes m = to_bytes("same input");
  EXPECT_NE(tagged_hash("tag-a", {m}), tagged_hash("tag-b", {m}));
}

// ---------------------------------------------------------------- merkle

std::vector<Bytes> make_leaves(int n) {
  std::vector<Bytes> leaves;
  leaves.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    leaves.push_back(to_bytes("leaf-" + std::to_string(i)));
  }
  return leaves;
}

TEST(Merkle, EmptyTreeHasZeroRoot) {
  MerkleTree t({});
  EXPECT_EQ(t.root(), Digest{});
  EXPECT_EQ(t.leaf_count(), 0u);
}

TEST(Merkle, SingleLeaf) {
  const auto leaves = make_leaves(1);
  MerkleTree t(leaves);
  const auto proof = t.prove(0);
  EXPECT_TRUE(proof.empty());
  EXPECT_TRUE(MerkleTree::verify(t.root(), leaves[0], proof));
}

TEST(Merkle, RootChangesWithContent) {
  EXPECT_NE(MerkleTree::root_of(make_leaves(4)),
            MerkleTree::root_of(make_leaves(5)));
  auto leaves = make_leaves(4);
  const Digest before = MerkleTree::root_of(leaves);
  leaves[2][0] ^= 1;
  EXPECT_NE(before, MerkleTree::root_of(leaves));
}

TEST(Merkle, LeafVsNodeDomainSeparation) {
  // A single leaf whose content equals an interior-node preimage must not
  // produce the same root as the two-leaf tree.
  const auto two = make_leaves(2);
  MerkleTree t2(two);
  // Reconstruct what the interior preimage would look like as a leaf.
  Bytes fake;
  fake.push_back(0x01);
  MerkleTree t1({fake});
  EXPECT_NE(t1.root(), t2.root());
}

class MerkleProofSweep : public ::testing::TestWithParam<int> {};

TEST_P(MerkleProofSweep, AllLeavesProvable) {
  const int n = GetParam();
  const auto leaves = make_leaves(n);
  MerkleTree t(leaves);
  for (int i = 0; i < n; ++i) {
    const auto proof = t.prove(static_cast<std::size_t>(i));
    EXPECT_TRUE(MerkleTree::verify(t.root(), leaves[static_cast<std::size_t>(i)],
                                   proof))
        << "n=" << n << " i=" << i;
    // Proof must not verify a different leaf.
    EXPECT_FALSE(
        MerkleTree::verify(t.root(), to_bytes("not-a-leaf"), proof));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                           33, 64, 100));

// ------------------------------------------------- incremental Merkle

std::vector<Digest> leaf_digests_of(const std::vector<Bytes>& leaves) {
  std::vector<Digest> digests;
  digests.reserve(leaves.size());
  for (const auto& leaf : leaves) digests.push_back(merkle_leaf_hash(leaf));
  return digests;
}

class IncrementalMerkleSweep : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalMerkleSweep, AssignMatchesBatchTree) {
  const int n = GetParam();
  const auto leaves = make_leaves(n);
  IncrementalMerkleTree inc;
  inc.assign(leaf_digests_of(leaves));
  EXPECT_EQ(inc.root(), MerkleTree::root_of(leaves));
  EXPECT_EQ(inc.leaf_count(), static_cast<std::size_t>(n));
}

TEST_P(IncrementalMerkleSweep, PointUpdatesMatchRebuild) {
  const int n = GetParam();
  auto leaves = make_leaves(n);
  IncrementalMerkleTree inc;
  inc.assign(leaf_digests_of(leaves));
  // Mutate every third leaf (always including the last: the promoted-node
  // path on odd layers) and update them in one sorted batch.
  std::vector<std::pair<std::size_t, Digest>> changes;
  for (int i = 0; i < n; i += 3) {
    leaves[static_cast<std::size_t>(i)].push_back(0xAB);
    changes.emplace_back(static_cast<std::size_t>(i),
                         merkle_leaf_hash(leaves[static_cast<std::size_t>(i)]));
  }
  if (n > 1 && (n - 1) % 3 != 0) {
    leaves[static_cast<std::size_t>(n - 1)].push_back(0xCD);
    changes.emplace_back(
        static_cast<std::size_t>(n - 1),
        merkle_leaf_hash(leaves[static_cast<std::size_t>(n - 1)]));
  }
  const std::uint64_t before = inc.node_hashes();
  inc.update(changes);
  EXPECT_EQ(inc.root(), MerkleTree::root_of(leaves)) << "n=" << n;
  if (n > 1) {
    // O(k log N) bound: each changed path is at most ceil(log2 n) nodes.
    std::size_t levels = 0;
    for (std::size_t width = static_cast<std::size_t>(n); width > 1;
         width = (width + 1) / 2) {
      ++levels;
    }
    EXPECT_LE(inc.node_hashes() - before, changes.size() * levels);
  }
}

TEST_P(IncrementalMerkleSweep, ProofsMatchBatchTree) {
  const int n = GetParam();
  const auto leaves = make_leaves(n);
  IncrementalMerkleTree inc;
  inc.assign(leaf_digests_of(leaves));
  MerkleTree batch(leaves);
  for (int i = 0; i < n; ++i) {
    const auto proof = inc.prove(static_cast<std::size_t>(i));
    EXPECT_EQ(proof, batch.prove(static_cast<std::size_t>(i)));
    EXPECT_TRUE(MerkleTree::verify(inc.root(),
                                   leaves[static_cast<std::size_t>(i)], proof))
        << "n=" << n << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IncrementalMerkleSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                           33, 64, 100));

TEST(IncrementalMerkle, EmptyAndReassign) {
  IncrementalMerkleTree inc;
  EXPECT_EQ(inc.root(), Digest{});
  EXPECT_EQ(inc.leaf_count(), 0u);
  const auto leaves = make_leaves(6);
  inc.assign(leaf_digests_of(leaves));
  EXPECT_EQ(inc.root(), MerkleTree::root_of(leaves));
  inc.assign({});
  EXPECT_EQ(inc.root(), Digest{});
  EXPECT_EQ(inc.leaf_count(), 0u);
}

TEST(IncrementalMerkle, SiblingUpdatesShareOneParentHash) {
  // Updating both children of one node must hash their shared ancestors
  // once, not twice: 8 leaves -> paths of 3, two sibling leaves share all
  // 3 interior nodes.
  auto leaves = make_leaves(8);
  IncrementalMerkleTree inc;
  inc.assign(leaf_digests_of(leaves));
  leaves[4].push_back(0x01);
  leaves[5].push_back(0x02);
  const std::uint64_t before = inc.node_hashes();
  inc.update({{4, merkle_leaf_hash(leaves[4])}, {5, merkle_leaf_hash(leaves[5])}});
  EXPECT_EQ(inc.node_hashes() - before, 3u);
  EXPECT_EQ(inc.root(), MerkleTree::root_of(leaves));
}

// ----------------------------------------------------------- batch verify

TEST(BatchVerify, MixedValidAndInvalidFlags) {
  std::vector<KeyPair> keys;
  std::vector<Bytes> msgs;
  std::vector<Signature> sigs;
  for (int i = 0; i < 8; ++i) {
    keys.push_back(KeyPair::from_label("batch-" + std::to_string(i)));
    msgs.push_back(to_bytes("payload-" + std::to_string(i)));
    sigs.push_back(keys.back().sign(msgs.back()));
  }
  // Corrupt two entries: a flipped signature bit and a swapped message.
  Bytes raw = sigs[2].to_bytes();
  raw[95] ^= 1;
  sigs[2] = Signature::from_bytes(raw).value();
  msgs[5] = to_bytes("not-what-was-signed");

  BatchVerifier batch;
  for (int i = 0; i < 8; ++i) {
    batch.add(keys[static_cast<std::size_t>(i)].public_key(),
              msgs[static_cast<std::size_t>(i)],
              sigs[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(batch.pending(), 8u);
  const std::vector<bool> ok = batch.flush();
  ASSERT_EQ(ok.size(), 8u);
  EXPECT_EQ(batch.pending(), 0u);
  for (int i = 0; i < 8; ++i) {
    const bool expected = (i != 2 && i != 5);
    EXPECT_EQ(ok[static_cast<std::size_t>(i)], expected) << "entry " << i;
    // Batched outcomes must agree with the scalar path exactly.
    EXPECT_EQ(verify(keys[static_cast<std::size_t>(i)].public_key(),
                     msgs[static_cast<std::size_t>(i)],
                     sigs[static_cast<std::size_t>(i)]),
              expected);
  }
}

TEST(BatchVerify, EmptyFlushIsEmpty) {
  BatchVerifier batch;
  EXPECT_TRUE(batch.flush().empty());
}

TEST(BatchVerify, SecondFlushServedFromCache) {
  const KeyPair kp = KeyPair::from_label("batch-cache");
  const Bytes msg = to_bytes("cached-once");
  const Signature sig = kp.sign(msg);

  BatchVerifier first;
  first.add(kp.public_key(), msg, sig);
  ASSERT_EQ(first.flush(), std::vector<bool>{true});

  // Same triple again: the batched lookup must hit, so the process-wide
  // miss count stays put.
  const std::uint64_t misses = SigCache::instance().misses();
  BatchVerifier second;
  second.add(kp.public_key(), msg, sig);
  EXPECT_EQ(second.flush(), std::vector<bool>{true});
  EXPECT_EQ(SigCache::instance().misses(), misses);
}

TEST(BatchVerify, NegativeOutcomesAreCachedToo) {
  const KeyPair kp = KeyPair::from_label("batch-neg");
  const Bytes msg = to_bytes("never-signed");
  Bytes raw = kp.sign(msg).to_bytes();
  raw[64] ^= 1;  // corrupt R
  const Signature bad = Signature::from_bytes(raw).value();

  BatchVerifier first;
  first.add(kp.public_key(), msg, bad);
  ASSERT_EQ(first.flush(), std::vector<bool>{false});

  const std::uint64_t misses = SigCache::instance().misses();
  BatchVerifier second;
  second.add(kp.public_key(), msg, bad);
  EXPECT_EQ(second.flush(), std::vector<bool>{false});
  EXPECT_EQ(SigCache::instance().misses(), misses);
}

}  // namespace
}  // namespace hc::crypto
