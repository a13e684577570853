// The four benchmark workloads. Each builds its hierarchy from the seed,
// registers its keyed senders (funding them in setup where the topology
// needs it), and offers a fixed number of ops per 100 ms simulated tick,
// whatever has committed (open loop in simulated time). README.md says
// why each one exists and which layer it stresses.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Worker threads the workload runs with unless overridden.
  [[nodiscard]] virtual std::size_t default_threads() const { return 1; }
  /// Measured window and drain, in simulated time.
  [[nodiscard]] virtual sim::Duration window() const = 0;
  [[nodiscard]] virtual sim::Duration drain() const = 0;

  /// Build the hierarchy: static boot or spawn protocol (timed as
  /// runtime.boot_s).
  virtual std::unique_ptr<runtime::Hierarchy> build(std::uint64_t seed,
                                                    std::size_t threads) = 0;
  /// Register senders and fund them (timed as runtime.fund_s).
  virtual bool prepare(Driver& d) = 0;
  /// Offer one tick's ops (driver context).
  virtual void pump(Driver& d, std::size_t tick) = 0;

  /// Workload-specific output checks; append failures to `failures`.
  virtual void check(Driver& /*d*/, std::vector<std::string>& /*failures*/) {}

  /// Configured ceilings over the whole hierarchy, ops per sim second.
  [[nodiscard]] double user_ceiling_tps(runtime::Hierarchy& h) const;
  [[nodiscard]] double cross_ceiling_tps(runtime::Hierarchy& h) const;

 protected:
  /// Cap the user msgs per block on every node of `subnet` (benches model
  /// per-chain capacity this way); uncapped subnets keep the node default.
  void cap(runtime::Subnet& subnet, std::size_t max_user_per_block);

  sim::Duration block_time_ = 100 * sim::kMillisecond;

 private:
  std::map<const runtime::Subnet*, std::size_t> user_caps_;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
