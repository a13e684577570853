#include "workloads.hpp"

#include <algorithm>

namespace perfbench {

namespace {

core::SubnetParams params_named(const std::string& name) {
  core::SubnetParams p;
  p.name = name;
  p.consensus = core::ConsensusType::kPoaRoundRobin;
  p.min_validator_stake = TokenAmount::whole(5);
  p.min_collateral = TokenAmount::whole(10);
  p.checkpoint_period = 5;
  p.checkpoint_policy =
      core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, 1};
  return p;
}

consensus::EngineConfig engine_with(sim::Duration block_time) {
  consensus::EngineConfig e;
  e.block_time = block_time;
  e.timeout_base = 4 * block_time;
  return e;
}

runtime::HierarchyConfig base_config(std::uint64_t seed, std::size_t threads) {
  runtime::HierarchyConfig cfg;
  cfg.seed = seed;
  cfg.latency = sim::LatencyModel(2 * sim::kMillisecond, sim::kMillisecond);
  cfg.root_params = params_named("root");
  cfg.root_validators = 3;
  cfg.root_engine = engine_with(100 * sim::kMillisecond);
  cfg.threads = threads;
  return cfg;
}

runtime::Subnet* find_subnet(runtime::Hierarchy& h, const std::string& name) {
  for (const auto& s : h.subnets()) {
    if (s->params.name == name) return s.get();
  }
  return nullptr;
}

/// Fund `users` inside their subnets with top-down cross-msgs from a
/// faucet-funded root account, and return that account's sender index
/// (SIZE_MAX on failure). It keeps sending top-down cross-msgs in the
/// window, so the cross-msg latency metrics have samples everywhere.
std::size_t fund_users(Driver& d, const std::vector<std::size_t>& users,
                       TokenAmount each) {
  runtime::Hierarchy& h = d.hierarchy();
  auto funder = h.make_user("perfbench-funder",
                            each * (users.size() + 1) + TokenAmount::whole(10));
  if (!funder.ok()) return SIZE_MAX;
  const std::size_t from = d.add_sender(h.root(), funder.value().key);
  for (const std::size_t u : users) {
    const Sender& s = d.senders()[u];
    d.send_cross(from, s.subnet->id, s.addr, each, /*window=*/false);
  }
  const bool funded = h.run_until(
      [&] {
        for (const std::size_t u : users) {
          const Sender& s = d.senders()[u];
          if (s.subnet->node(0).balance(s.addr) < each) return false;
        }
        return true;
      },
      120 * sim::kSecond);
  return funded ? from : SIZE_MAX;
}

/// `n` top-down cross-msgs per tick from the root funder to the users,
/// round robin (tiny values: only the atto tag).
void topdown_stream(Driver& d, std::size_t funder,
                    const std::vector<std::size_t>& users, std::size_t tick,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Sender& u = d.senders()[users[(tick * n + i) % users.size()]];
    d.send_cross(funder, u.subnet->id, u.addr, TokenAmount(), true);
  }
}

// ------------------------------------------------------------ fig1_saturate
// The paper's Fig. 1: 8 sibling subnets, each capped at 10 msgs per 100 ms
// block (100 tx/s), offered 1.2x capacity by 2 keyed users each.
class Fig1Saturate final : public Workload {
 public:
  sim::Duration window() const override { return 3 * sim::kSecond; }
  sim::Duration drain() const override { return sim::kSecond; }

  std::unique_ptr<runtime::Hierarchy> build(std::uint64_t seed,
                                            std::size_t threads) override {
    auto h = std::make_unique<runtime::Hierarchy>(base_config(seed, threads));
    for (std::size_t i = 0; i < kSubnets; ++i) {
      auto s = h->spawn_subnet(h->root(), "fig1-" + std::to_string(i),
                               params_named("fig1-" + std::to_string(i)), 3,
                               TokenAmount::whole(5),
                               engine_with(100 * sim::kMillisecond));
      if (!s.ok()) return nullptr;
      chains_.push_back(s.value());
      cap(*s.value(), 10);  // 100 tx/s per chain; the root stays uncapped
    }
    return h;
  }

  bool prepare(Driver& d) override {
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      for (std::size_t u = 0; u < kUsers; ++u) {
        users_.push_back(d.add_sender(
            *chains_[c], crypto::KeyPair::from_label(
                             "fig1-c" + std::to_string(c) + "-u" +
                             std::to_string(u))));
      }
    }
    funder_ = fund_users(d, users_, TokenAmount::whole(100));
    return funder_ != SIZE_MAX;
  }

  void pump(Driver& d, std::size_t tick) override {
    // users_ is chain-major: kUsers per chain, paying each other.
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      for (std::size_t i = 0; i < kOfferedPerTick; ++i) {
        const std::size_t u = users_[c * kUsers + (i % kUsers)];
        const std::size_t peer = users_[c * kUsers + ((i + 1) % kUsers)];
        d.send_user(u, d.senders()[peer].addr, /*window=*/true);
      }
    }
    topdown_stream(d, funder_, users_, tick, kTopDownPerTick);
  }

 private:
  static constexpr std::size_t kSubnets = 8;
  static constexpr std::size_t kUsers = 2;
  static constexpr std::size_t kOfferedPerTick = 12;  // 1.2x of 10/block
  static constexpr std::size_t kTopDownPerTick = 8;  // half of the users
  std::vector<runtime::Subnet*> chains_;
  std::vector<std::size_t> users_;
  std::size_t funder_ = SIZE_MAX;
};

// ---------------------------------------------------------------- surge_10x
// bench_overload's 10x row: one child with a bounded pool (512 total, 256
// per sender), bounded per-receiver delivery queues, offered 10x its
// 100 tx/s ceiling; clients retry kOverloaded with capped backoff.
class Surge10x final : public Workload {
 public:
  sim::Duration window() const override { return 3 * sim::kSecond; }
  sim::Duration drain() const override { return 2 * sim::kSecond; }

  std::unique_ptr<runtime::Hierarchy> build(std::uint64_t seed,
                                            std::size_t threads) override {
    runtime::HierarchyConfig cfg = base_config(seed, threads);
    cfg.mempool = chain::MempoolConfig{kPoolCap, kPerSenderCap, 1024};
    cfg.gossip.node_queue = net::NodeQueuePolicy{
        kQueueDepth, kQueueBytes, kTopicDepth, 20 * sim::kMicrosecond};
    auto h = std::make_unique<runtime::Hierarchy>(cfg);
    auto s = h->spawn_subnet(h->root(), "surge", params_named("surge"), 3,
                             TokenAmount::whole(5),
                             engine_with(100 * sim::kMillisecond));
    if (!s.ok()) return nullptr;
    child_ = s.value();
    cap(h->root(), 10);
    cap(*child_, 10);  // 100 tx/s ceiling
    return h;
  }

  bool prepare(Driver& d) override {
    for (std::size_t u = 0; u < 2; ++u) {
      users_.push_back(d.add_sender(
          *child_, crypto::KeyPair::from_label("surge-u" + std::to_string(u))));
    }
    funder_ = fund_users(d, users_, TokenAmount::whole(100));
    return funder_ != SIZE_MAX;
  }

  void pump(Driver& d, std::size_t tick) override {
    for (std::size_t i = 0; i < kOfferedPerTick; ++i) {
      d.send_user(users_[i % 2], d.senders()[users_[(i + 1) % 2]].addr,
                  /*window=*/true);
    }
    topdown_stream(d, funder_, users_, tick, kTopDownPerTick);
  }

  void check(Driver& d, std::vector<std::string>& failures) override {
    std::size_t pool_peak = 0;
    for (const auto& s : d.hierarchy().subnets()) {
      for (std::size_t i = 0; i < s->size(); ++i) {
        if (!s->alive(i)) continue;
        const auto& shed = s->node(i).mempool_shed_stats();
        pool_peak = std::max({pool_peak, shed.peak_items,
                              s->node(i).mempool_size()});
      }
    }
    const net::Network::Stats net = d.hierarchy().network().stats();
    if (pool_peak > kPoolCap) {
      failures.push_back("mempool peak " + std::to_string(pool_peak) +
                         " > cap " + std::to_string(kPoolCap));
    }
    if (net.queue_peak_depth > kQueueDepth) {
      failures.push_back("delivery-queue depth peak " +
                         std::to_string(net.queue_peak_depth) + " > cap");
    }
    if (net.queue_peak_bytes > kQueueBytes) {
      failures.push_back("delivery-queue bytes peak " +
                         std::to_string(net.queue_peak_bytes) + " > cap");
    }
  }

 private:
  static constexpr std::size_t kOfferedPerTick = 100;  // 10x of 10/block
  static constexpr std::size_t kTopDownPerTick = 4;
  static constexpr std::size_t kPoolCap = 512;
  static constexpr std::size_t kPerSenderCap = 256;
  static constexpr std::size_t kQueueDepth = 4096;
  static constexpr std::size_t kQueueBytes = 1u << 22;
  static constexpr std::size_t kTopicDepth = 2048;
  runtime::Subnet* child_ = nullptr;
  std::vector<std::size_t> users_;
  std::size_t funder_ = SIZE_MAX;
};

// ----------------------------------------------------------------- xnet_mix
// A depth-2 tree of 9 subnets (root, 4 children, one grandchild each) with
// WAN links between subnets, durability on and 2 worker threads. Each tick
// mixes intra transfers at half capacity with top-down, bottom-up and path
// cross-msgs.
class XnetMix final : public Workload {
 public:
  std::size_t default_threads() const override { return 2; }
  sim::Duration window() const override { return 4 * sim::kSecond; }
  sim::Duration drain() const override { return 4 * sim::kSecond; }

  std::unique_ptr<runtime::Hierarchy> build(std::uint64_t seed,
                                            std::size_t threads) override {
    runtime::HierarchyConfig cfg = base_config(seed, threads);
    cfg.cross_subnet_latency = runtime::HierarchyConfig::CrossSubnetLatency{
        50 * sim::kMillisecond, 10 * sim::kMillisecond};
    cfg.durability.enabled = true;
    runtime::TreeSpec root = spec("root");
    for (std::size_t c = 0; c < kChildren; ++c) {
      runtime::TreeSpec child = spec("c" + std::to_string(c));
      child.children.push_back(spec("c" + std::to_string(c) + "g"));
      root.children.push_back(std::move(child));
    }
    auto h = std::make_unique<runtime::Hierarchy>(cfg, root);
    root_ = find_subnet(*h, "root");
    for (std::size_t c = 0; c < kChildren; ++c) {
      child_[c] = find_subnet(*h, "c" + std::to_string(c));
      grand_[c] = find_subnet(*h, "c" + std::to_string(c) + "g");
      if (child_[c] == nullptr || grand_[c] == nullptr) return nullptr;
    }
    if (root_ == nullptr) return nullptr;
    for (const auto& s : h->subnets()) cap(*s, 20);
    return h;
  }

  bool prepare(Driver& d) override {
    for (const auto& s : d.hierarchy().subnets()) {
      Keys k;
      for (std::size_t i = 0; i < kHot; ++i) {
        k.sender[i] = d.add_sender(
            *s, crypto::KeyPair::from_label(s->params.name + "-hot-" +
                                            std::to_string(i)));
      }
      keys_[s.get()] = k;
      intra_.push_back(k);
    }
    return true;  // hot accounts are funded in genesis
  }

  void pump(Driver& d, std::size_t tick) override {
    // Intra transfers: 10 per subnet per tick, half of the 20/block cap.
    for (const Keys& k : intra_) {
      for (std::size_t i = 0; i < kIntraPerTick; ++i) {
        d.send_user(k.sender[i % 2], cold(tick * kIntraPerTick + i), true);
      }
    }
    // 27 cross-msgs per tick: 9 top-down, 9 bottom-up, 9 path.
    const std::size_t r = tick % kChildren;
    for (std::size_t c = 0; c < kChildren; ++c) {
      const std::size_t n = (c + 1) % kChildren;
      cross(d, tick, root_, child_[c]);   // top-down, depth 1
      cross(d, tick, child_[c], grand_[c]);  // top-down, depth 2
      cross(d, tick, grand_[c], child_[c]);  // bottom-up, one level
      cross(d, tick, child_[c], root_);      // bottom-up to the root
      cross(d, tick, grand_[c], grand_[n]);  // path via the root
      cross(d, tick, child_[c], child_[n]);  // path between siblings
    }
    cross(d, tick, root_, grand_[r]);
    cross(d, tick, grand_[r], root_);
    cross(d, tick, grand_[r], child_[(r + 2) % kChildren]);
  }

 private:
  static constexpr std::size_t kChildren = 4;
  static constexpr std::size_t kHot = 4;  // 2 intra senders, 2 cross senders
  static constexpr std::size_t kAccounts = 64;
  static constexpr std::size_t kIntraPerTick = 10;
  struct Keys {
    std::size_t sender[kHot] = {};
  };

  static runtime::TreeSpec spec(const std::string& name) {
    runtime::TreeSpec s;
    s.name = name;
    s.params = params_named(name);
    s.engine = engine_with(100 * sim::kMillisecond);
    s.n_validators = 3;
    s.accounts = kAccounts;
    s.hot_accounts = kHot;
    s.hot_balance = TokenAmount::whole(1000);
    return s;
  }
  static Address cold(std::size_t i) { return Address::id(1000 + i % kAccounts); }

  void cross(Driver& d, std::size_t tick, runtime::Subnet* from,
             runtime::Subnet* to) {
    const Keys& k = keys_.at(from);
    d.send_cross(k.sender[2 + tick % 2], to->id, cold(cross_seq_++),
                 TokenAmount(), /*window=*/true);
  }

  runtime::Subnet* root_ = nullptr;
  runtime::Subnet* child_[kChildren] = {};
  runtime::Subnet* grand_[kChildren] = {};
  std::map<runtime::Subnet*, Keys> keys_;
  std::vector<Keys> intra_;  // subnets() order, so offers replay exactly
  std::size_t cross_seq_ = 0;
};

// ---------------------------------------------------------------- city_zipf
// bench_scale's fanout-10 city: 1111 subnets, 10^6 genesis accounts, 200 ms
// blocks, retention 64, Zipf-skewed transfers from one keyed sender at each
// of the 64 hottest leaves, plus a light top-down stream from the root.
class CityZipf final : public Workload {
 public:
  CityZipf() { block_time_ = 200 * sim::kMillisecond; }
  sim::Duration window() const override { return 2 * sim::kSecond; }
  sim::Duration drain() const override { return sim::kSecond; }

  std::unique_ptr<runtime::Hierarchy> build(std::uint64_t seed,
                                            std::size_t threads) override {
    runtime::HierarchyConfig cfg = base_config(seed, threads);
    cfg.chain_retention = {.max_items = 64, .max_bytes = 0};
    cfg.mem_metrics = true;
    return std::make_unique<runtime::Hierarchy>(cfg, make_city());
  }

  bool prepare(Driver& d) override {
    for (const auto& s : d.hierarchy().subnets()) {
      if (s->id.depth() != 3 || leaves_.size() >= kHotLeaves) continue;
      leaves_.push_back(d.add_sender(
          *s, crypto::KeyPair::from_label(s->params.name + "-hot-0")));
    }
    root_sender_ = d.add_sender(d.hierarchy().root(),
                                crypto::KeyPair::from_label("root-hot-0"));
    return leaves_.size() == kHotLeaves;
  }

  void pump(Driver& d, std::size_t tick) override {
    // Leaf rank r offers max(1, 8/(r+1)) transfers per tick.
    for (std::size_t r = 0; r < leaves_.size(); ++r) {
      const std::size_t n = std::max<std::size_t>(1, kZipfBase / (r + 1));
      for (std::size_t i = 0; i < n; ++i) {
        d.send_user(leaves_[r], Address::id(1000 + (sent_++ % kAccounts)),
                    true);
      }
    }
    for (std::size_t i = 0; i < kTopDownPerTick; ++i) {
      const Sender& leaf =
          d.senders()[leaves_[(tick * kTopDownPerTick + i) % leaves_.size()]];
      d.send_cross(root_sender_, leaf.subnet->id, leaf.addr, TokenAmount(),
                   true);
    }
  }

 private:
  static constexpr std::size_t kFanout = 10;
  static constexpr std::size_t kAccounts = 1000;  // per leaf: 10^6 in all
  static constexpr std::size_t kHotLeaves = 64;
  static constexpr std::size_t kZipfBase = 8;
  static constexpr std::size_t kTopDownPerTick = 4;

  runtime::TreeSpec node_spec(const std::string& name) const {
    runtime::TreeSpec s;
    s.name = name;
    s.params = params_named(name);
    s.engine = engine_with(block_time_);
    return s;
  }

  runtime::TreeSpec make_city() const {
    std::size_t rank = 0;  // leaf rank in preorder == traffic rank
    runtime::TreeSpec root = node_spec("root");
    root.hot_accounts = 1;
    root.hot_balance = TokenAmount::whole(1000);
    for (std::size_t di = 0; di < kFanout; ++di) {
      runtime::TreeSpec district = node_spec("d" + std::to_string(di));
      for (std::size_t wi = 0; wi < kFanout; ++wi) {
        runtime::TreeSpec ward =
            node_spec(district.name + "w" + std::to_string(wi));
        for (std::size_t li = 0; li < kFanout; ++li) {
          runtime::TreeSpec leaf =
              node_spec(ward.name + "l" + std::to_string(li));
          leaf.accounts = kAccounts;
          if (rank++ < kHotLeaves) leaf.hot_accounts = 1;
          ward.children.push_back(std::move(leaf));
        }
        district.children.push_back(std::move(ward));
      }
      root.children.push_back(std::move(district));
    }
    return root;
  }

  std::vector<std::size_t> leaves_;
  std::size_t root_sender_ = 0;
  std::size_t sent_ = 0;
};

}  // namespace

void Workload::cap(runtime::Subnet& subnet, std::size_t max_user_per_block) {
  for (std::size_t i = 0; i < subnet.size(); ++i) {
    if (subnet.alive(i)) {
      subnet.node(i).set_max_user_msgs_per_block(max_user_per_block);
    }
  }
  user_caps_[&subnet] = max_user_per_block;
}

double Workload::user_ceiling_tps(runtime::Hierarchy& h) const {
  const runtime::NodeConfig defaults;
  double per_block = 0;
  for (const auto& s : h.subnets()) {
    const auto it = user_caps_.find(s.get());
    per_block += static_cast<double>(it != user_caps_.end()
                                         ? it->second
                                         : defaults.max_user_msgs_per_block);
  }
  return per_block * sim::kSecond / static_cast<double>(block_time_);
}

double Workload::cross_ceiling_tps(runtime::Hierarchy& h) const {
  const runtime::NodeConfig defaults;
  return static_cast<double>(h.subnets().size() *
                             defaults.max_cross_msgs_per_block) *
         sim::kSecond / static_cast<double>(block_time_);
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fig1_saturate") return std::make_unique<Fig1Saturate>();
  if (name == "surge_10x") return std::make_unique<Surge10x>();
  if (name == "xnet_mix") return std::make_unique<XnetMix>();
  if (name == "city_zipf") return std::make_unique<CityZipf>();
  return nullptr;
}

}  // namespace perfbench
