#include "ladder.hpp"

#include <algorithm>
#include <set>

#include "actors/sca_actor.hpp"
#include "chain/mempool.hpp"
#include "core/checkpoint.hpp"
#include "crypto/ec.hpp"
#include "net/network.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kCryptoOps = 128;
constexpr std::size_t kFlushRounds = 16;
constexpr std::size_t kScheduleBatches = 64;
constexpr std::size_t kScheduleBatch = 64;
constexpr std::size_t kPublishNodes = 8;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Times single calls, recording each as a span under the ladder span.
class Rung {
 public:
  Rung(const char* name, std::uint32_t parent) : name_(name), parent_(parent) {}

  template <typename F>
  void time(F&& f) {
    const std::int64_t t0 = now_ns();
    f();
    const std::int64_t t1 = now_ns();
    ns_.push_back(static_cast<double>(t1 - t0));
    spans().add(name_, t0, t1, parent_, ns_.size());
  }

  [[nodiscard]] double median_us() const { return median(ns_) / 1e3; }
  [[nodiscard]] double median_ns() const { return median(ns_); }
  [[nodiscard]] double total_ns() const {
    double t = 0;
    for (const double x : ns_) t += x;
    return t;
  }

 private:
  const char* name_;
  std::uint32_t parent_;
  std::vector<double> ns_;
};

const Sender* sender_of(const Driver& d, const Address& addr) {
  for (const Sender& s : d.senders()) {
    if (s.addr == addr) return &s;
  }
  return nullptr;
}

}  // namespace

void run_ladder(Driver& d, const chain::MempoolConfig& mempool, Metrics& out) {
  const std::uint32_t parent = spans().open("ladder", 0);
  std::uint64_t bad = 0;
  const auto& msgs = d.sample_msgs;
  const std::size_t n_crypto = std::min(kCryptoOps, msgs.size());

  // ---- crypto: verify, point mul, generator mul, sign, SHA-256
  Rung verify("ladder/crypto.verify", parent);
  Rung point_mul("ladder/crypto.point_mul", parent);
  Rung gen_mul("ladder/crypto.mul_generator", parent);
  Rung sign("ladder/crypto.keypair_sign", parent);
  for (std::size_t i = 0; i < n_crypto; ++i) {
    const chain::SignedMessage& sm = msgs[i];
    const Bytes payload = encode(sm.message);
    bool ok = false;
    verify.time([&] { ok = crypto::verify(sm.pubkey, payload, sm.signature); });
    if (!ok) ++bad;
    const crypto::U256 k =
        crypto::fn::reduce(crypto::U256::from_digest(Sha256::hash(payload)));
    const crypto::Point p =
        crypto::Point::from_affine(sm.pubkey.x(), sm.pubkey.y());
    crypto::Point r;
    point_mul.time([&] { r = p.mul(k); });
    if (r.is_infinity()) ++bad;
    gen_mul.time([&] { r = crypto::Point::mul_generator(k); });
    if (r.is_infinity()) ++bad;
    if (const Sender* s = sender_of(d, sm.message.from); s != nullptr) {
      crypto::Signature sig;
      sign.time([&] { sig = s->key->sign(payload); });
      if (!crypto::verify(sm.pubkey, payload, sig)) ++bad;
    }
  }
  out.emplace_back("crypto.verify_us", verify.median_us());
  out.emplace_back("crypto.point_mul_us", point_mul.median_us());
  out.emplace_back("crypto.mul_generator_us", gen_mul.median_us());
  out.emplace_back("crypto.keypair_sign_us", sign.median_us());

  // ---- common: codec on blocks, cross-msg batches and checkpoints
  Rung sha("ladder/crypto.sha256", parent);
  Rung enc_block("ladder/common.encode_block", parent);
  Rung dec_block("ladder/common.decode_block", parent);
  double hashed_bytes = 0;
  for (const chain::Block& b : d.sample_blocks) {
    Bytes bytes;
    enc_block.time([&] { bytes = encode(b); });
    Digest digest{};
    sha.time([&] { digest = Sha256::hash(bytes); });
    hashed_bytes += static_cast<double>(bytes.size());
    bool ok = false;
    dec_block.time([&] { ok = decode<chain::Block>(bytes).ok(); });
    if (!ok) ++bad;
  }
  out.emplace_back("crypto.sha256_ns_per_byte",
                   hashed_bytes > 0 ? sha.total_ns() / hashed_bytes : 0.0);
  out.emplace_back("common.encode_us_per_block", enc_block.median_us());
  out.emplace_back("common.decode_us_per_block", dec_block.median_us());

  Rung enc_batch("ladder/common.encode_batch", parent);
  Rung dec_batch("ladder/common.decode_batch", parent);
  for (const Bytes& bytes : d.sample_batches) {
    Result<core::CrossMsgBatch> batch = Error(Errc::kDecodeError, "unset");
    dec_batch.time([&] { batch = decode<core::CrossMsgBatch>(bytes); });
    if (!batch) {
      ++bad;
      continue;
    }
    Bytes again;
    enc_batch.time([&] { again = encode(batch.value()); });
    if (again != bytes) ++bad;
  }
  out.emplace_back("common.encode_us_per_batch", enc_batch.median_us());
  out.emplace_back("common.decode_us_per_batch", dec_batch.median_us());

  Rung enc_cp("ladder/common.encode_checkpoint", parent);
  Rung dec_cp("ladder/common.decode_checkpoint", parent);
  for (const Bytes& bytes : d.sample_checkpoints) {
    Result<core::Checkpoint> cp = Error(Errc::kDecodeError, "unset");
    dec_cp.time([&] { cp = decode<core::Checkpoint>(bytes); });
    if (!cp) {
      ++bad;
      continue;
    }
    Bytes again;
    enc_cp.time([&] { again = encode(cp.value()); });
    if (again != bytes) ++bad;
  }
  out.emplace_back("common.encode_us_per_checkpoint", enc_cp.median_us());
  out.emplace_back("common.decode_us_per_checkpoint", dec_cp.median_us());

  // ---- chain: StateTree::flush per dirty leaf, on the head state of the
  // subnet the first captured message came from; the dirty leaves are the
  // accounts that subnet's captured messages touched.
  Rung flush("ladder/chain.flush", parent);
  double dirty_total = 0;
  if (!msgs.empty()) {
    const Sender* s = sender_of(d, msgs.front().message.from);
    if (s != nullptr) {
      std::set<Address> touched;
      for (const auto& sm : msgs) {
        const Sender* o = sender_of(d, sm.message.from);
        if (o == nullptr || o->subnet != s->subnet) continue;
        touched.insert(sm.message.from);
        touched.insert(sm.message.to);
      }
      chain::StateTree base = s->subnet->node(0).state();
      (void)base.flush();
      for (std::size_t r = 0; r < kFlushRounds; ++r) {
        chain::StateTree tree = base;
        for (const Address& a : touched) {
          tree.get_or_create(a).balance += TokenAmount::atto(1);
        }
        flush.time([&] { (void)tree.flush(); });
        dirty_total += static_cast<double>(touched.size());
      }
    }
  }
  out.emplace_back("chain.flush_us_per_dirty_leaf",
                   dirty_total > 0 ? flush.total_ns() / 1e3 / dirty_total
                                   : 0.0);

  // ---- chain: Mempool::add of the captured messages into a fresh pool
  // with the workload's caps (signature checks go through the warm cache,
  // as they would for a re-gossiped message).
  Rung add("ladder/chain.mempool_add", parent);
  {
    chain::Mempool pool(mempool);
    for (const auto& sm : msgs) {
      add.time([&] { (void)pool.add(sm, sm.message.nonce); });
    }
  }
  out.emplace_back("chain.mempool_add_us", add.median_us());

  // ---- sim: Scheduler::schedule, timed in batches (one call is ~clock
  // resolution), delays drawn like the load generator's offsets.
  Rung schedule("ladder/sim.schedule_batch", parent);
  {
    sim::Scheduler sched;
    for (std::size_t b = 0; b < kScheduleBatches; ++b) {
      std::vector<sim::Duration> delays(kScheduleBatch);
      for (auto& delay : delays) {
        delay = static_cast<sim::Duration>(d.rng().uniform(kTick));
      }
      schedule.time([&] {
        for (const sim::Duration delay : delays) {
          (void)sched.schedule(delay, [] {});
        }
      });
    }
  }
  out.emplace_back("sim.schedule_ns",
                   schedule.median_ns() / static_cast<double>(kScheduleBatch));

  // ---- net: Network::publish of the captured messages into a topic with
  // a small subscribed mesh (deliveries are scheduled, never run).
  Rung publish("ladder/net.publish", parent);
  {
    obs::Obs local;
    sim::Scheduler sched;
    net::Network network(sched, sim::LatencyModel::lan(), 1, {}, &local);
    for (std::size_t i = 0; i < kPublishNodes; ++i) {
      network.subscribe(network.add_node(), "perfbench");
    }
    for (const auto& sm : msgs) {
      Bytes payload = encode(sm);
      publish.time([&] { network.publish(0, "perfbench", std::move(payload)); });
    }
  }
  out.emplace_back("net.publish_us", publish.median_us());

  out.emplace_back("ladder.bad_results", static_cast<double>(bad));
  spans().finish(parent);
}

}  // namespace perfbench
