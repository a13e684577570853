// E1 — Fig. 1 / §I headline claim: horizontal scale-out.
//
// Aggregate committed-transaction throughput as a function of the number of
// subnets, against a rootnet-only baseline receiving the same total offered
// load. Every chain has identical capacity (block time 100ms, 10 user msgs
// per block => 100 tx/s ceiling); the paper's claim is that capacity adds
// up because subnets order and execute independently.
//
// Reported counters (per benchmark row):
//   subnets        number of spawned subnets (0 = rootnet baseline)
//   total_tps      committed user tx per simulated second, summed
//   per_chain_tps  total_tps / chains
//   sim_seconds    measurement window (simulated)
//
// run_speedup additionally reports the WALL-CLOCK speedup of the parallel
// executor (DESIGN.md §11) on a 16-subnet hierarchy: the same seed run at
// 1 worker thread vs N, with cross-subnet WAN latency widening the
// conservative lookahead. Determinism makes the comparison exact — both
// runs execute the identical event sequence.
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_common.hpp"

namespace hc::bench {
namespace {

// Namespace scope: constructed before the runs, so the sidecar's
// meta.wall_seconds spans them (a function-local static would start its
// clock at the first capture(), after the first run).
ObsExporter exporter("fig1_scaling");

constexpr sim::Duration kWindow = 10 * sim::kSecond;
constexpr std::size_t kMsgsPerBlock = 10;   // per-chain capacity ceiling
constexpr std::size_t kOfferedPerTick = 12;  // > capacity: saturation

void configure_capacity(runtime::Subnet& subnet) {
  for (std::size_t i = 0; i < subnet.size(); ++i) {
    subnet.node(i).set_max_user_msgs_per_block(kMsgsPerBlock);
  }
}

void run_scaling(benchmark::State& state) {
  const int n_subnets = static_cast<int>(state.range(0));
  for (auto _ : state) {
    runtime::Hierarchy h(bench_config(/*seed=*/1000 + n_subnets));

    std::vector<runtime::Subnet*> chains;
    std::vector<std::unique_ptr<LoadGenerator>> loads;
    configure_capacity(h.root());
    if (n_subnets == 0) {
      chains.push_back(&h.root());  // baseline: all load on the rootnet
    } else {
      for (int i = 0; i < n_subnets; ++i) {
        auto s = h.spawn_subnet(h.root(), "scale-" + std::to_string(i),
                                bench_params(), 3, TokenAmount::whole(5),
                                subnet_engine());
        if (!s.ok()) {
          state.SkipWithError("spawn failed");
          return;
        }
        chains.push_back(s.value());
        configure_capacity(*s.value());
      }
    }

    // Two load users per chain, funded in-band.
    for (std::size_t i = 0; i < chains.size(); ++i) {
      loads.push_back(std::make_unique<LoadGenerator>(
          *chains[i], 2, "s" + std::to_string(n_subnets) + "c" +
                              std::to_string(i)));
      if (!fund_in_subnet(h, *chains[i], loads.back()->addresses(),
                          TokenAmount::whole(100))) {
        state.SkipWithError("funding failed");
        return;
      }
    }

    // Baseline committed counters.
    std::vector<std::uint64_t> before;
    before.reserve(chains.size());
    for (auto* c : chains) {
      before.push_back(c->node(0).stats().user_msgs_executed);
    }

    // Saturate for the window. The baseline row receives the SAME total
    // offered load as the n-subnet rows so the comparison is apples to
    // apples.
    const std::size_t chains_equivalent =
        n_subnets == 0 ? 8 : static_cast<std::size_t>(n_subnets);
    const sim::Time start = h.scheduler().now();
    while (h.scheduler().now() - start < kWindow) {
      for (std::size_t i = 0; i < chains.size(); ++i) {
        loads[i]->pump(kOfferedPerTick * chains_equivalent / chains.size());
      }
      h.run_for(100 * sim::kMillisecond);
    }
    h.run_for(sim::kSecond);  // drain in-flight blocks

    std::uint64_t committed = 0;
    for (std::size_t i = 0; i < chains.size(); ++i) {
      committed +=
          chains[i]->node(0).stats().user_msgs_executed - before[i];
    }
    const double secs =
        static_cast<double>(kWindow) / static_cast<double>(sim::kSecond);
    state.counters["subnets"] = static_cast<double>(n_subnets);
    state.counters["total_tps"] = static_cast<double>(committed) / secs;
    state.counters["per_chain_tps"] =
        static_cast<double>(committed) / secs /
        static_cast<double>(chains.size());
    state.counters["sim_seconds"] = secs;
    exporter.capture(h, "scaling/subnets=" + std::to_string(n_subnets),
                       1000 + static_cast<std::uint64_t>(n_subnets));
  }
}

BENCHMARK(run_scaling)
    ->ArgName("subnets")
    ->Arg(0)  // rootnet-only baseline
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------ parallel speedup

constexpr std::size_t kSpeedupSubnets = 16;
constexpr sim::Duration kSpeedupWindow = 5 * sim::kSecond;

/// Build a 16-subnet hierarchy with `threads` workers and co-located
/// subnets / WAN cross-subnet links (lookahead 40ms), drive the saturating
/// workload, and return the wall-clock seconds of the measurement loop.
double speedup_wall_seconds(std::size_t threads) {
  runtime::HierarchyConfig cfg = bench_config(/*seed=*/4242);
  cfg.threads = threads;
  cfg.cross_subnet_latency = runtime::HierarchyConfig::CrossSubnetLatency{
      50 * sim::kMillisecond, 10 * sim::kMillisecond};
  runtime::Hierarchy h(cfg);

  std::vector<runtime::Subnet*> chains;
  std::vector<std::unique_ptr<LoadGenerator>> loads;
  configure_capacity(h.root());
  for (std::size_t i = 0; i < kSpeedupSubnets; ++i) {
    auto s = h.spawn_subnet(h.root(), "speed-" + std::to_string(i),
                            bench_params(), 3, TokenAmount::whole(5),
                            subnet_engine());
    if (!s.ok()) return -1.0;
    chains.push_back(s.value());
    configure_capacity(*s.value());
  }
  for (std::size_t i = 0; i < chains.size(); ++i) {
    loads.push_back(std::make_unique<LoadGenerator>(
        *chains[i], 2, "speed-c" + std::to_string(i)));
    if (!fund_in_subnet(h, *chains[i], loads.back()->addresses(),
                        TokenAmount::whole(100))) {
      return -1.0;
    }
  }

  const sim::Time start = h.scheduler().now();
  const std::uint64_t w0 = h.executor().windows();
  const std::uint64_t d0 = h.executor().dispatches();
  const std::size_t e0 = h.scheduler().events_run();
  const auto wall_start = std::chrono::steady_clock::now();
  while (h.scheduler().now() - start < kSpeedupWindow) {
    for (auto& load : loads) load->pump(kOfferedPerTick);
    h.run_for(100 * sim::kMillisecond);
  }
  h.run_for(sim::kSecond);  // drain in-flight blocks
  const auto wall_end = std::chrono::steady_clock::now();
  const double wall =
      std::chrono::duration<double>(wall_end - wall_start).count();
  std::fprintf(stderr,
               "[speedup] threads=%zu wall=%.3fs windows=%llu "
               "dispatches=%llu events=%zu\n",
               threads, wall,
               static_cast<unsigned long long>(h.executor().windows() - w0),
               static_cast<unsigned long long>(h.executor().dispatches() - d0),
               h.scheduler().events_run() - e0);
  std::string dist = "[speedup] lane events:";
  for (const std::uint64_t n : h.executor().lane_events()) {
    dist += " " + std::to_string(n);
  }
  std::fprintf(stderr, "%s\n", dist.c_str());
  return wall;
}

void run_speedup(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  // The sequential reference is measured once (after a throwaway warm-up
  // run so the process-wide signature cache treats every measured run
  // equally) and shared across thread counts.
  static double wall_1t = -1.0;
  for (auto _ : state) {
    if (wall_1t < 0) {
      (void)speedup_wall_seconds(1);  // warm caches
      wall_1t = speedup_wall_seconds(1);
    }
    const double wall_nt = speedup_wall_seconds(threads);
    if (wall_1t <= 0 || wall_nt <= 0) {
      state.SkipWithError("speedup run failed");
      return;
    }
    const double speedup = wall_1t / wall_nt;
    state.counters["threads"] = static_cast<double>(threads);
    state.counters["subnets"] = static_cast<double>(kSpeedupSubnets);
    // Wall-clock speedup needs hardware: on a host with fewer cores than
    // worker threads the measurement degenerates to executor overhead
    // (expect ~1.0). Recorded so sidecar baselines are comparable across
    // machines.
    state.counters["host_cpus"] =
        static_cast<double>(std::thread::hardware_concurrency());
    state.counters["wall_1t_s"] = wall_1t;
    state.counters["wall_nt_s"] = wall_nt;
    state.counters["speedup"] = speedup;
    // Surface the headline number in the metrics sidecar too. This is the
    // one wall-clock-derived (hence nondeterministic) value in the export.
    runtime::Hierarchy probe(bench_config(/*seed=*/4242));
    probe.obs().metrics
        .gauge("bench_parallel_speedup_milli",
               obs::Labels{{"threads", std::to_string(threads)},
                           {"subnets", std::to_string(kSpeedupSubnets)}})
        .set(static_cast<std::int64_t>(speedup * 1000.0));
    probe.obs().metrics.gauge("bench_host_cpus").set(static_cast<std::int64_t>(
        std::thread::hardware_concurrency()));
    exporter.capture(probe, "speedup/threads=" + std::to_string(threads),
                       4242);
  }
}

BENCHMARK(run_speedup)
    ->ArgName("threads")
    ->Arg(2)
    ->Arg(4)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()
