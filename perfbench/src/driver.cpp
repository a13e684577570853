#include "driver.hpp"

#include <algorithm>
#include <set>

#include "actors/methods.hpp"
#include "actors/sca_actor.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

constexpr sim::Duration kRetryBase = 20 * sim::kMillisecond;
constexpr std::uint32_t kMaxBackoffShift = 6;  // cap: base * 64
constexpr std::size_t kSampleMsgs = 256;
constexpr std::size_t kSampleBlocks = 32;
constexpr std::size_t kSampleBatches = 64;
constexpr std::size_t kSampleCheckpoints = 64;

/// Values of the cross-msgs a receipt reports as reverted.
std::set<__int128> reverted_values(const chain::Receipt* receipt) {
  std::set<__int128> out;
  if (receipt == nullptr) return out;
  for (const auto& ev : receipt->events) {
    if (ev.kind != "sca/cross-reverted") continue;
    auto cross = decode<core::CrossMsg>(ev.payload);
    if (cross) out.insert(cross.value().msg.value.raw());
  }
  return out;
}

}  // namespace

Driver::Driver(runtime::Hierarchy& h, std::uint64_t seed)
    : h_(h), rng_(seed ^ 0x70657266ull) {}

std::size_t Driver::add_sender(runtime::Subnet& subnet,
                               const crypto::KeyPair& key) {
  Sender s;
  s.subnet = &subnet;
  s.key = std::make_shared<const crypto::KeyPair>(key);
  s.addr = Address::key(key.public_key().to_bytes());
  sender_of_[s.addr] = senders_.size();
  senders_.push_back(std::move(s));
  return senders_.size() - 1;
}

std::size_t Driver::new_op(OpKind kind, bool window) {
  Op op;
  op.kind = kind;
  op.window = window;
  ops_.push_back(op);
  return ops_.size() - 1;
}

void Driver::send_user(std::size_t sender, const Address& to, bool window) {
  Sender& s = senders_[sender];
  const std::size_t op = new_op(OpKind::kUser, window);
  chain::Message m;
  m.from = s.addr;
  m.to = to;
  m.nonce = s.next_nonce++;
  m.value = TokenAmount::atto(1);
  m.gas_limit = 1u << 22;
  m.gas_price = TokenAmount::atto(1);
  s.op_by_nonce.push_back(static_cast<std::uint32_t>(op));
  post_signed(sender, std::move(m), op);
}

void Driver::send_cross(std::size_t sender, const core::SubnetId& dest,
                        const Address& to, TokenAmount base, bool window) {
  Sender& s = senders_[sender];
  const std::size_t op = new_op(OpKind::kCross, window);
  const TokenAmount value =
      base + TokenAmount::atto(static_cast<__int128>(++cross_tag_));
  cross_by_value_[value.raw()] = static_cast<std::uint32_t>(op);
  actors::CrossParams p;
  p.dest = dest;
  p.to = to;
  chain::Message m;
  m.from = s.addr;
  m.to = chain::kScaAddr;
  m.nonce = s.next_nonce++;
  m.value = value;
  m.method = actors::sca_method::kSendCross;
  m.params = encode(p);
  m.gas_limit = 1u << 26;
  m.gas_price = TokenAmount::atto(1);
  s.op_by_nonce.push_back(static_cast<std::uint32_t>(op));
  post_signed(sender, std::move(m), op);
}

void Driver::post_signed(std::size_t sender, chain::Message m,
                         std::size_t op) {
  const Sender& s = senders_[sender];
  runtime::SubnetNode& node = s.subnet->node(0);
  const auto offset = static_cast<sim::Duration>(rng_.uniform(kTick));
  node.post(offset, [this, &node, key = s.key, m = std::move(m), op]() mutable {
    ops_[op].submit_us = h_.scheduler().now();
    SpanLog& log = spans();
    const std::int64_t t0 = log.enabled() ? now_ns() : 0;
    chain::SignedMessage sm = chain::SignedMessage::sign(std::move(m), *key);
    if (log.enabled()) log.add("gen/sign", t0, now_ns(), log.current(), op + 1);
    attempt(node, std::move(sm), op);
  });
}

void Driver::attempt(runtime::SubnetNode& node, chain::SignedMessage msg,
                     std::size_t op) {
  SpanLog& log = spans();
  const std::int64_t t0 = log.enabled() ? now_ns() : 0;
  const Status st = node.submit_message(msg);
  if (log.enabled()) log.add("gen/submit", t0, now_ns(), log.current(), op + 1);
  admit_calls_.fetch_add(1, std::memory_order_relaxed);
  Op& o = ops_[op];
  ++o.attempts;
  if (st.ok()) {
    o.state = OpState::kAccepted;
    return;
  }
  if (st.error().code() != Errc::kOverloaded) {
    o.state = OpState::kRefused;
    o.failed = true;
    return;
  }
  // The signed message is resubmitted as-is: its nonce is consumed, so
  // dropping it would wedge every later nonce of the sender.
  o.state = OpState::kBackoff;
  refused_overloaded_.fetch_add(1, std::memory_order_relaxed);
  const sim::Duration delay =
      kRetryBase << std::min(o.attempts - 1, kMaxBackoffShift);
  node.post(delay, [this, &node, msg = std::move(msg), op]() mutable {
    attempt(node, std::move(msg), op);
  });
}

void Driver::record_apply(const core::CrossMsg& cross,
                          const runtime::Subnet& at, sim::Time ts,
                          bool reverted) {
  if (cross.to_subnet != at.id) return;  // forwarded through this subnet
  const auto it = cross_by_value_.find(cross.msg.value.raw());
  if (it == cross_by_value_.end()) {
    ++unknown_applies_;
    return;
  }
  Op& o = ops_[it->second];
  ++o.applies;
  if (o.done_us < 0) o.done_us = ts;
  if (reverted) o.failed = true;
}

void Driver::scan() {
  for (const auto& subnet : h_.subnets()) {
    const runtime::Subnet& s = *subnet;
    if (!s.alive(0)) continue;
    const runtime::SubnetNode& node = s.node(0);
    const chain::ChainStore& store = node.chain();
    auto cur_it = cursor_.try_emplace(&s, 1).first;
    chain::Epoch& cur = cur_it->second;
    if (cur < store.base_height()) {
      scan_gaps_ += static_cast<std::uint64_t>(store.base_height() - cur);
      cur = store.base_height();
    }
    for (; cur <= store.height(); ++cur) {
      const chain::Block* b = store.block_at(cur);
      if (b == nullptr) {
        ++scan_gaps_;
        continue;
      }
      ++blocks_scanned_;
      const sim::Time ts = b->header.timestamp;
      block_times_[&s].push_back(ts);
      const auto* receipts = node.receipts_at(cur);
      const auto receipt = [&](std::size_t i) -> const chain::Receipt* {
        return receipts != nullptr && i < receipts->size() ? &(*receipts)[i]
                                                           : nullptr;
      };
      for (std::size_t i = 0; i < b->cross_messages.size(); ++i) {
        const chain::Message& cm = b->cross_messages[i];
        const std::set<__int128> reverted = reverted_values(receipt(i));
        if (cm.method == actors::sca_method::kApplyTopDown) {
          auto cross = decode<core::CrossMsg>(cm.params);
          if (!cross) continue;
          record_apply(cross.value(), s, ts,
                       reverted.count(cross.value().msg.value.raw()) != 0);
        } else if (cm.method == actors::sca_method::kApplyBottomUp) {
          auto p = decode<actors::ApplyBottomUpParams>(cm.params);
          if (!p) continue;
          for (const auto& cross : p.value().batch.msgs) {
            record_apply(cross, s, ts,
                         reverted.count(cross.msg.value.raw()) != 0);
          }
          if (sample_batches.size() < kSampleBatches) {
            sample_batches.push_back(encode(p.value().batch));
          }
        } else if (cm.method == actors::sca_method::kCutCheckpoint) {
          const chain::Receipt* r = receipt(i);
          if (r == nullptr) continue;
          for (const auto& ev : r->events) {
            if (ev.kind == "sca/checkpoint-cut" &&
                sample_checkpoints.size() < kSampleCheckpoints) {
              sample_checkpoints.push_back(ev.payload);
            }
          }
        }
      }
      for (std::size_t i = 0; i < b->messages.size(); ++i) {
        const chain::SignedMessage& sm = b->messages[i];
        const auto sit = sender_of_.find(sm.message.from);
        if (sit == sender_of_.end()) continue;
        const Sender& sender = senders_[sit->second];
        if (sm.message.nonce >= sender.op_by_nonce.size()) continue;
        Op& o = ops_[sender.op_by_nonce[sm.message.nonce]];
        const chain::Receipt* r = receipt(b->cross_messages.size() + i);
        if (r == nullptr || !r->ok()) o.failed = true;
        if (o.kind == OpKind::kUser) {
          ++o.applies;
          if (o.done_us < 0) o.done_us = ts;
        } else {
          ++o.src_commits;
        }
        if (sample_msgs.size() < kSampleMsgs) sample_msgs.push_back(sm);
      }
      if (!b->messages.empty() && sample_blocks.size() < kSampleBlocks) {
        sample_blocks.push_back(*b);
      }
    }
  }
}

std::uint64_t Driver::blocks_between(sim::Time from, sim::Time to) const {
  std::uint64_t n = 0;
  for (const auto& [subnet, times] : block_times_) {
    for (const sim::Time t : times) {
      if (t >= from && t < to) ++n;
    }
  }
  return n;
}

}  // namespace perfbench
