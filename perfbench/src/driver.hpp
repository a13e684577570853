// The open-loop load driver and the op ledger behind every workload.
//
// An *op* is either a user message committed on its own chain or a
// cross-msg applied at its destination. The driver offers ops through the
// public API only: it builds each message in driver context, then posts
// the sign + submit into the sending subnet's lane (SubnetNode::post) at a
// seed-drawn offset inside the 100 ms tick, exactly like the repo's
// LoadGenerator. Nonces are tracked locally so messages pipeline beyond
// the chain's confirmation latency. A submit refused with kOverloaded is
// retried in-lane with capped exponential backoff; any other refusal is
// permanent.
//
// Completion is read afterwards from the committed blocks (Block timestamps
// and receipts), never by polling inside the measured window: user ops
// are matched by (sender, nonce), cross-msgs by their unique value at the
// destination's ApplyTopDown / ApplyBottomUp implicit messages.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/hierarchy.hpp"
#include "sim/rng.hpp"

namespace perfbench {

using namespace hc;  // NOLINT: leaf benchmark code

constexpr sim::Duration kTick = 100 * sim::kMillisecond;

enum class OpKind : std::uint8_t { kUser, kCross };
enum class OpState : std::uint8_t {
  kPlanned,   // posted, first attempt not run yet
  kAccepted,  // admitted by the mempool
  kBackoff,   // last attempt refused with kOverloaded; retry pending
  kRefused,   // refused permanently
};

struct Op {
  sim::Time submit_us = -1;  // sim time the first attempt ran (its due time)
  sim::Time done_us = -1;    // block timestamp of commit (user) / apply (cross)
  std::uint32_t applies = 0;      // times committed (user) / applied (cross)
  std::uint32_t src_commits = 0;  // cross: times its SCA call committed
  std::uint32_t attempts = 0;
  OpKind kind = OpKind::kUser;
  OpState state = OpState::kPlanned;
  bool window = false;  // offered inside the measured window
  bool failed = false;  // failed receipt, revert or permanent refusal
};

/// One keyed account that signs load.
struct Sender {
  runtime::Subnet* subnet = nullptr;
  std::shared_ptr<const crypto::KeyPair> key;
  Address addr;
  std::uint64_t next_nonce = 0;
  std::vector<std::uint32_t> op_by_nonce;
};

class Driver {
 public:
  Driver(runtime::Hierarchy& h, std::uint64_t seed);
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Register a keyed sender living on `subnet` (its nonce starts at 0).
  std::size_t add_sender(runtime::Subnet& subnet, const crypto::KeyPair& key);

  /// Offer a plain transfer of 1 atto from `sender` to `to`.
  void send_user(std::size_t sender, const Address& to, bool window);
  /// Offer a cross-msg SendCross(dest, to) carrying `base` plus a unique
  /// atto tag that identifies the op at its destination.
  void send_cross(std::size_t sender, const core::SubnetId& dest,
                  const Address& to, TokenAmount base, bool window);

  /// Read every block committed since the last scan on each subnet's
  /// node 0 and record commits / applies. Driver context only.
  void scan();

  [[nodiscard]] const std::vector<Op>& ops() const { return ops_; }
  [[nodiscard]] const std::vector<Sender>& senders() const {
    return senders_;
  }
  [[nodiscard]] runtime::Hierarchy& hierarchy() { return h_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  /// Blocks that had been pruned before scan() reached them (must be 0).
  [[nodiscard]] std::uint64_t scan_gaps() const { return scan_gaps_; }
  [[nodiscard]] std::uint64_t blocks_scanned() const {
    return blocks_scanned_;
  }
  /// Committed blocks per subnet whose timestamp lies in [from, to).
  [[nodiscard]] std::uint64_t blocks_between(sim::Time from,
                                             sim::Time to) const;
  /// Cross-msgs applied at a destination that match no op of ours.
  [[nodiscard]] std::uint64_t unknown_applies() const {
    return unknown_applies_;
  }

  // Client-side counters, bumped from lanes.
  [[nodiscard]] std::uint64_t admit_calls() const { return admit_calls_; }
  [[nodiscard]] std::uint64_t refused_overloaded() const {
    return refused_overloaded_;
  }

  /// A sample of committed user messages and blocks, kept for the layer
  /// ladder (inputs captured from the workload itself).
  std::vector<chain::SignedMessage> sample_msgs;
  std::vector<chain::Block> sample_blocks;
  std::vector<Bytes> sample_batches;      // encoded CrossMsgBatch
  std::vector<Bytes> sample_checkpoints;  // encoded Checkpoint

 private:
  std::size_t new_op(OpKind kind, bool window);
  void post_signed(std::size_t sender, chain::Message m, std::size_t op);
  void attempt(runtime::SubnetNode& node, chain::SignedMessage msg,
               std::size_t op);
  void record_apply(const core::CrossMsg& cross, const runtime::Subnet& at,
                    sim::Time ts, bool reverted);

  runtime::Hierarchy& h_;
  sim::Rng rng_;
  std::vector<Op> ops_;
  std::vector<Sender> senders_;
  std::map<Address, std::size_t> sender_of_;
  std::map<__int128, std::uint32_t> cross_by_value_;
  std::uint64_t cross_tag_ = 0;
  std::map<const runtime::Subnet*, chain::Epoch> cursor_;
  std::map<const runtime::Subnet*, std::vector<sim::Time>> block_times_;
  std::uint64_t scan_gaps_ = 0;
  std::uint64_t blocks_scanned_ = 0;
  std::uint64_t unknown_applies_ = 0;
  std::atomic<std::uint64_t> admit_calls_{0};
  std::atomic<std::uint64_t> refused_overloaded_{0};
};

}  // namespace perfbench
