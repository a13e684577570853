// L1 — per-operation cost of the crypto layer (DESIGN.md §18).
//
// The crypto row of the layer ladder: secp256k1 field multiply, square and
// inverse, the scalar multiply mod n, the fixed-base comb (mul_generator),
// the variable-base wNAF multiply (Point::mul), Schnorr signing and
// verification. Each case chains its operation on its own output (field
// and scalar cases) or repeats it on fixed inputs (point and Schnorr
// cases), in one process with the comb table built before timing: warm
// caches throughout.
//
// Sidecar: BENCH_crypto.json — the schema-2 meta block (host CPUs,
// threads, git SHA, build type) plus wall-clock ns per operation. Report
// only: no gate reads it, since the numbers depend on the host.
#include "bench_common.hpp"

#include <map>

#include "crypto/ec.hpp"
#include "crypto/field.hpp"
#include "crypto/schnorr.hpp"

namespace hc::bench {
namespace {

using crypto::Fe;
using crypto::KeyPair;
using crypto::Point;
using crypto::U256;

/// Writes the per-operation costs at exit; the last (longest) google-
/// benchmark pass of each case overwrites the earlier ones.
struct CryptoSidecar {
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  std::map<std::string, double> ns_per_op;

  ~CryptoSidecar() {
    std::string json = "{\n  \"bench\": \"crypto\",\n  \"meta\": " +
                       bench_meta_json(start) +
                       ",\n  \"cache\": \"warm\",\n  \"ns_per_op\": {";
    const char* sep = "\n    ";
    for (const auto& [name, ns] : ns_per_op) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f", ns);
      json += sep + ("\"" + name + "\": ") + buf;
      sep = ",\n    ";
    }
    json += "\n  }\n}\n";
    (void)obs::write_text_file("BENCH_crypto.json", json);
  }
};
CryptoSidecar sidecar;

/// Runs `op` once per benchmark iteration and records its mean wall cost.
template <typename Op>
void timed(benchmark::State& state, const char* name, Op&& op) {
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) op();
  const auto t1 = std::chrono::steady_clock::now();
  if (state.iterations() > 0) {
    sidecar.ns_per_op[name] =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(state.iterations());
  }
}

/// A deterministic full-width value derived from a label.
U256 value(std::string_view label) {
  return U256::from_digest(Sha256::hash(to_bytes(label)));
}

void fe_mul(benchmark::State& state) {
  Fe x = Fe::from_u256(value("fe-x"));
  const Fe y = Fe::from_u256(value("fe-y"));
  timed(state, "fe_mul", [&] {
    x = x * y;
    benchmark::DoNotOptimize(x);
  });
}

void fe_sqr(benchmark::State& state) {
  Fe x = Fe::from_u256(value("fe-x"));
  timed(state, "fe_sqr", [&] {
    x = x.sqr();
    benchmark::DoNotOptimize(x);
  });
}

void fe_inv(benchmark::State& state) {
  Fe x = Fe::from_u256(value("fe-x"));
  timed(state, "fe_inv", [&] {
    x = x.inv();  // never zero: the inverse of a non-zero element
    benchmark::DoNotOptimize(x);
  });
}

void fn_mul(benchmark::State& state) {
  U256 k = crypto::fn::reduce(value("fn-k"));
  const U256 e = crypto::fn::reduce(value("fn-e"));
  timed(state, "fn_mul", [&] {
    k = crypto::fn::mul(k, e);
    benchmark::DoNotOptimize(k);
  });
}

void mul_generator(benchmark::State& state) {
  const U256 k = crypto::fn::reduce(value("scalar"));
  benchmark::DoNotOptimize(Point::mul_generator(k));  // build the comb
  timed(state, "mul_generator",
        [&] { benchmark::DoNotOptimize(Point::mul_generator(k)); });
}

void point_mul(benchmark::State& state) {
  const U256 k = crypto::fn::reduce(value("scalar"));
  const auto a = KeyPair::from_label("bench-point").public_key();
  const Point p = Point::from_affine(a.x(), a.y());
  timed(state, "point_mul", [&] { benchmark::DoNotOptimize(p.mul(k)); });
}

void keypair_sign(benchmark::State& state) {
  const KeyPair kp = KeyPair::from_label("bench-signer");
  const Bytes msg = to_bytes("a 40-byte message standing in for a tx..");
  timed(state, "keypair_sign",
        [&] { benchmark::DoNotOptimize(kp.sign(msg)); });
}

void verify(benchmark::State& state) {
  const KeyPair kp = KeyPair::from_label("bench-signer");
  const Bytes msg = to_bytes("a 40-byte message standing in for a tx..");
  const crypto::Signature sig = kp.sign(msg);
  bool ok = true;
  timed(state, "verify",
        [&] { ok = ok && crypto::verify(kp.public_key(), msg, sig); });
  if (!ok) state.SkipWithError("verify rejected a valid signature");
}

BENCHMARK(fe_mul);
BENCHMARK(fe_sqr);
BENCHMARK(fe_inv);
BENCHMARK(fn_mul);
BENCHMARK(mul_generator)->Unit(benchmark::kMicrosecond);
BENCHMARK(point_mul)->Unit(benchmark::kMicrosecond);
BENCHMARK(keypair_sign)->Unit(benchmark::kMicrosecond);
BENCHMARK(verify)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN();
