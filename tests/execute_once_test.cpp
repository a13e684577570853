// One execution per block per replica (DESIGN.md §12): build_block and
// validate_block keep the post-state and receipts they computed, and
// commit_block adopts them instead of executing the block again. These
// tests check that what a replica commits equals a fresh execution of the
// same block on every engine, that the normal path executes each block
// once per replica, and that a block the replica never executed (catch-up,
// or a Tendermint replica that validated another proposal) still commits
// correctly.
#include <gtest/gtest.h>

#include <algorithm>

#include "obs/profile.hpp"
#include "runtime/hierarchy.hpp"

namespace hc::runtime {
namespace {

HierarchyConfig root_config(std::uint64_t seed) {
  HierarchyConfig cfg;
  cfg.seed = seed;
  cfg.latency = sim::LatencyModel(2 * sim::kMillisecond, sim::kMillisecond);
  cfg.root_params.consensus = core::ConsensusType::kPoaRoundRobin;
  cfg.root_params.min_validator_stake = TokenAmount::whole(5);
  cfg.root_params.min_collateral = TokenAmount::whole(10);
  cfg.root_params.checkpoint_period = 5;
  cfg.root_validators = 3;
  cfg.root_engine.block_time = 100 * sim::kMillisecond;
  return cfg;
}

Subnet* spawn_child(Hierarchy& h, core::ConsensusType consensus) {
  core::SubnetParams params = h.config().root_params;
  params.consensus = consensus;
  params.checkpoint_policy = core::SignaturePolicy{
      core::SignaturePolicyKind::kMultiSig,
      static_cast<std::uint32_t>(
          core::SignaturePolicy::bft_quorum(4).threshold)};
  consensus::EngineConfig engine;
  engine.block_time = 100 * sim::kMillisecond;
  engine.timeout_base = 400 * sim::kMillisecond;
  auto c = h.spawn_subnet(h.root(), "exec-once", params, 4,
                          TokenAmount::whole(5), engine);
  EXPECT_TRUE(c.ok()) << c.error().to_string();
  return c.ok() ? c.value() : nullptr;
}

Address key_address(const std::string& label) {
  return Address::key(
      crypto::KeyPair::from_label(label).public_key().to_bytes());
}

chain::SignedMessage transfer(const User& from, std::uint64_t nonce,
                              const Address& to, TokenAmount value) {
  chain::Message m;
  m.from = from.addr;
  m.to = to;
  m.nonce = nonce;
  m.value = value;
  m.gas_limit = 1u << 26;
  m.gas_price = TokenAmount::atto(1);
  return chain::SignedMessage::sign(std::move(m), from.key);
}

/// Scope entries of the executor's profiler phase so far.
std::uint64_t execute_calls() {
  for (const obs::PhaseStat& p : obs::Profiler::instance().report().phases) {
    if (p.name == "chain/execute") return p.count;
  }
  return 0;
}

bool same_contents(const chain::StateTree& a, const chain::StateTree& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Replay `node`'s chain from the subnet genesis on an independent
/// executor: every block's root, every retained receipt list and the final
/// head state (contents, not only the root) must equal what it committed.
void expect_matches_fresh_execution(Hierarchy& h, const Subnet& subnet,
                                    const SubnetNode& node) {
  chain::Executor exec(h.registry(), chain::GasSchedule{});
  chain::StateTree tree = subnet.genesis->snapshot();
  const chain::ChainStore& store = node.chain();
  ASSERT_EQ(store.base_height(), 0);
  ASSERT_GT(store.height(), 0);
  for (chain::Epoch height = 1; height <= store.height(); ++height) {
    const chain::Block* block = store.block_at(height);
    ASSERT_NE(block, nullptr);
    const std::vector<chain::Receipt> receipts = exec.apply_block(tree, *block);
    ASSERT_EQ(tree.flush(), block->header.state_root)
        << subnet.id.to_string() << " height " << height;
    if (const auto* committed = node.receipts_at(height)) {
      EXPECT_EQ(*committed, receipts)
          << subnet.id.to_string() << " height " << height;
    }
  }
  EXPECT_TRUE(same_contents(tree, node.state())) << subnet.id.to_string();
}

class ExecuteOnceEngines
    : public ::testing::TestWithParam<core::ConsensusType> {};

TEST_P(ExecuteOnceEngines, ExecutesOnceAndMatchesFreshExecution) {
  obs::Profiler::instance().reset();
  Hierarchy h(root_config(400 + static_cast<std::uint64_t>(GetParam())));
  Subnet* child = spawn_child(h, GetParam());
  ASSERT_NE(child, nullptr);
  auto alice_r = h.make_user("exec-once-alice", TokenAmount::whole(500));
  ASSERT_TRUE(alice_r.ok());
  const User alice = alice_r.value();
  const Address bob = key_address("exec-once-bob");

  // Top-down funding: implicit cross-msgs in the child's blocks.
  auto fund = h.send_cross(h.root(), alice, child->id, alice.addr,
                           TokenAmount::whole(40));
  ASSERT_TRUE(fund.ok());
  ASSERT_TRUE(fund.value().ok()) << fund.value().error;
  ASSERT_TRUE(h.run_until(
      [&] {
        return child->node(0).balance(alice.addr) == TokenAmount::whole(40);
      },
      120 * sim::kSecond));

  // A burst of user transfers (several per block), the last one overdrawn
  // so a failed receipt is committed too.
  SubnetNode& api = child->api_node();
  std::uint64_t nonce = api.account_nonce(alice.addr);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(api.submit_message(
                       transfer(alice, nonce++, bob, TokenAmount::whole(1)))
                    .ok());
  }
  ASSERT_TRUE(
      api.submit_message(transfer(alice, nonce++, bob, TokenAmount::whole(900)))
          .ok());
  ASSERT_TRUE(h.run_until(
      [&] { return api.account_nonce(alice.addr) == nonce; },
      60 * sim::kSecond));

  // Bottom-up release: SCA routing and checkpoints on both chains.
  auto release = h.send_cross(*child, alice, core::SubnetId::root(), bob,
                              TokenAmount::whole(3));
  ASSERT_TRUE(release.ok());
  ASSERT_TRUE(release.value().ok()) << release.value().error;
  ASSERT_TRUE(h.run_until(
      [&] { return h.root().node(0).balance(bob) == TokenAmount::whole(3); },
      300 * sim::kSecond));
  EXPECT_EQ(child->node(0).balance(bob), TokenAmount::whole(6));

  // Every replica of both chains (leader or follower, whatever the engine)
  // executed each block it committed exactly once: built or validated,
  // then adopted by commit. Without the memo this is twice the commits.
  std::uint64_t commits = 0;
  for (const auto& subnet : h.subnets()) {
    for (std::size_t i = 0; i < subnet->size(); ++i) {
      commits += subnet->node(i).stats().blocks_committed;
    }
  }
  ASSERT_GT(commits, 50u);
  EXPECT_EQ(execute_calls(), commits);

  for (std::size_t i = 0; i < child->size(); ++i) {
    expect_matches_fresh_execution(h, *child, child->node(i));
  }
  for (std::size_t i = 0; i < h.root().size(); ++i) {
    expect_matches_fresh_execution(h, h.root(), h.root().node(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ExecuteOnceEngines,
    ::testing::Values(core::ConsensusType::kPoaRoundRobin,
                      core::ConsensusType::kPowerLottery,
                      core::ConsensusType::kTendermint,
                      core::ConsensusType::kRoundRobinBft),
    [](const ::testing::TestParamInfo<core::ConsensusType>& info) {
      std::string name(core::consensus_name(info.param));
      std::erase(name, '-');
      return name;
    });

TEST(ExecuteOnce, CommitsBlocksItNeverExecuted) {
  Hierarchy h(root_config(432));
  auto alice_r = h.make_user("exec-fallback-alice", TokenAmount::whole(500));
  ASSERT_TRUE(alice_r.ok());
  const User alice = alice_r.value();
  const Address bob = key_address("exec-fallback-bob");
  Subnet& root = h.root();
  ASSERT_TRUE(h.run_until(
      [&] {
        return root.node(0).head_cid() == root.node(1).head_cid() &&
               root.node(1).head_cid() == root.node(2).head_cid();
      },
      10 * sim::kSecond));

  // Proposal A: built by node 0, validated by node 2 (both executed A).
  chain::Block a = root.node(0).build_block(Address::id(900));
  std::uint64_t calls = execute_calls();
  ASSERT_TRUE(root.node(2).validate_block(a).ok());
  EXPECT_EQ(execute_calls(), calls + 1);

  // Block B at the same height, executed by no node: a transfer from
  // alice, its root computed by an independent executor.
  chain::Block b = a;
  b.header.miner = Address::id(901);
  b.messages = {transfer(alice, root.node(0).account_nonce(alice.addr), bob,
                         TokenAmount::whole(2))};
  chain::Executor exec(h.registry(), chain::GasSchedule{});
  chain::StateTree expected = root.node(0).state().snapshot();
  const std::vector<chain::Receipt> receipts = exec.apply_block(expected, b);
  b.header.state_root = expected.flush();
  b.header.msgs_root = b.compute_msgs_root();

  // Node 1 validates B and commits it: validate executed, commit adopted.
  calls = execute_calls();
  ASSERT_TRUE(root.node(1).validate_block(b).ok());
  root.node(1).commit_block(b, {});
  EXPECT_EQ(execute_calls(), calls + 1);
  // Node 2 validated A, then commits B (Tendermint: prevoted one proposal,
  // the quorum committed another); node 0 built A. Both commit B without
  // having executed it: the fallback executes it once each.
  calls = execute_calls();
  root.node(2).commit_block(b, {});
  root.node(0).commit_block(b, {});
  EXPECT_EQ(execute_calls(), calls + 2);

  for (std::size_t i = 0; i < 3; ++i) {
    const SubnetNode& n = root.node(i);
    EXPECT_EQ(n.head_cid(), b.cid()) << "node " << i;
    EXPECT_EQ(n.state().flush(), b.header.state_root) << "node " << i;
    EXPECT_TRUE(same_contents(n.state(), expected)) << "node " << i;
    ASSERT_NE(n.receipts_at(b.header.height), nullptr);
    EXPECT_EQ(*n.receipts_at(b.header.height), receipts) << "node " << i;
    EXPECT_EQ(n.balance(bob), TokenAmount::whole(2)) << "node " << i;
  }

  // A leader validating its own proposal (RR-BFT/Tendermint receive their
  // own broadcast) neither executes it again nor on commit.
  SubnetNode& leader = root.node(1);
  chain::Block c = leader.build_block(leader.address());
  calls = execute_calls();
  ASSERT_TRUE(leader.validate_block(c).ok());
  leader.commit_block(c, {});
  EXPECT_EQ(execute_calls(), calls);
  EXPECT_EQ(leader.head_cid(), c.cid());
}

}  // namespace
}  // namespace hc::runtime
