// perfbench_driver: one cold run of one workload, in this process.
//
//   perfbench_driver --workload NAME --seed N [--threads T] [--trace 0|1]
//                    [--spans PATH]
//
// Phases: setup (build + fund, from process start), the measured window
// (a fixed number of 100 ms ticks, each offering the workload's ops and
// advancing simulated time), a drain, a settle until every cross-msg has
// landed, the output checks and, in traced runs, the layer ladder. The last stdout line is one JSON
// object; run.py turns repeated runs into the benchmark's metrics.
//
// With --trace 0 the wall-clock profiler is switched off, so the end-to-end
// numbers carry no tracing cost. With --trace 1 the profiler and the
// benchmark's own spans are on, and the per-layer numbers are reported.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "chaos/invariants.hpp"
#include "crypto/sigcache.hpp"
#include "common/log.hpp"
#include "obs/profile.hpp"
#include "ladder.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point g_start =
    std::chrono::steady_clock::now();

constexpr std::size_t kScanEveryTicks = 10;
constexpr sim::Duration kAlign = 2 * kTick;

double secs(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }
double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t threads = 0;  // 0 = the workload's default
  bool trace = false;
  std::string spans_path;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--threads") {
      a.threads = std::strtoull(v, nullptr, 10);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a.workload.empty();
}

/// Nearest-rank percentile stats of one latency population (sim µs).
struct Latency {
  std::size_t samples = 0;
  double p50_ms = 0;
  double tail_ms = 0;   // p99, or the highest percentile with 10 beyond it
  double tail_pct = 0;  // which percentile tail_ms is
};

Latency latency_of(std::vector<sim::Duration> v) {
  Latency l;
  l.samples = v.size();
  if (v.empty()) return l;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const auto at_rank = [&](std::size_t rank) {  // 1-based
    return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, n) - 1]) /
           1e3;
  };
  const auto p50_rank = static_cast<std::size_t>(std::ceil(0.5 * n));
  l.p50_ms = at_rank(p50_rank);
  // p99 needs >= 10 samples beyond its rank; otherwise the highest rank
  // that has them, but never below the median.
  auto rank = static_cast<std::size_t>(std::ceil(0.99 * n));
  if (n < rank + 10) rank = n >= 10 ? n - 10 : 0;
  rank = std::max(rank, p50_rank);
  l.tail_ms = at_rank(rank);
  l.tail_pct = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return l;
}

/// Sum of a counter family over every label set.
std::uint64_t counter_sum(const obs::MetricsRegistry& m,
                          const std::string& family) {
  const auto it = m.counters().find(family);
  if (it == m.counters().end()) return 0;
  std::uint64_t total = 0;
  for (const auto& [labels, c] : it->second) total += c.value();
  return total;
}

/// Sum of a counter family over the label sets carrying `key=value`.
std::uint64_t counter_sum_where(const obs::MetricsRegistry& m,
                                const std::string& family,
                                const std::string& kv) {
  const auto it = m.counters().find(family);
  if (it == m.counters().end()) return 0;
  std::uint64_t total = 0;
  for (const auto& [labels, c] : it->second) {
    if (("," + labels + ",").find("," + kv + ",") != std::string::npos) {
      total += c.value();
    }
  }
  return total;
}

std::int64_t gauge_max(const obs::MetricsRegistry& m,
                       const std::string& family) {
  const auto it = m.gauges().find(family);
  if (it == m.gauges().end()) return 0;
  std::int64_t best = 0;
  for (const auto& [labels, g] : it->second) best = std::max(best, g.value());
  return best;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_object(const Metrics& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + m[i].first + "\": " + json_number(m[i].second);
  }
  return out + "}";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

int run(const Args& args) {
  auto workload = make_workload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Log::set_level(LogLevel::kOff);
  obs::Profiler::instance().set_enabled(args.trace);
  if (args.trace) spans().enable();
  const std::size_t threads =
      args.threads != 0 ? args.threads : workload->default_threads();

  // ------------------------------------------------------------- setup
  obs::Profiler& prof = obs::Profiler::instance();
  const std::uint32_t setup_span = spans().open("setup", 0);
  const std::int64_t boot0 = now_ns();
  std::unique_ptr<runtime::Hierarchy> hp = workload->build(args.seed, threads);
  if (hp == nullptr) {
    std::fprintf(stderr, "workload build failed\n");
    return 3;
  }
  runtime::Hierarchy& h = *hp;
  Driver d(h, args.seed);
  const std::int64_t fund0 = now_ns();
  if (!workload->prepare(d)) {
    std::fprintf(stderr, "workload setup (funding) failed\n");
    return 3;
  }
  d.scan();  // the funding ops' commits, before their receipts age out
  // Start the window on the 200 ms grid the block timers run on, so the
  // phase between offered load and block production does not depend on how
  // long setup happened to take in simulated time.
  if (const sim::Time off = h.scheduler().now() % kAlign; off != 0) {
    h.run_for(kAlign - off);
  }
  const std::int64_t setup_end = now_ns();
  spans().finish(setup_span);
  const std::int64_t setup_prof_ns = args.trace ? prof.report().attributed_ns : 0;

  // ------------------------------------------------------ measured window
  const sim::Time w0 = h.scheduler().now();
  const sim::Duration window = workload->window();
  const std::size_t ticks = static_cast<std::size_t>(window / kTick);
  const std::uint64_t events0 = h.scheduler().events_run();
  std::vector<double> run_for_ms;
  std::int64_t pump_ns = 0;
  std::int64_t scan_ns = 0;
  const std::int64_t win0 = now_ns();
  for (std::size_t t = 0; t < ticks; ++t) {
    const std::uint32_t tick_span = spans().open("tick", 0);
    const std::int64_t p0 = now_ns();
    workload->pump(d, t);
    const std::int64_t p1 = now_ns();
    spans().add("tick/pump", p0, p1, tick_span);
    spans().set_current(tick_span);
    h.run_for(kTick);
    const std::int64_t r1 = now_ns();
    spans().set_current(0);
    spans().add("tick/run_for", p1, r1, tick_span);
    spans().finish(tick_span);
    pump_ns += p1 - p0;
    run_for_ms.push_back(ms(r1 - p1));
    // Nodes keep receipts of their last 64 heights only: read the new
    // blocks every second of sim time, off the measured clock.
    if ((t + 1) % kScanEveryTicks == 0) {
      const std::uint32_t scan_span = spans().open("scan", 0);
      d.scan();
      spans().finish(scan_span);
      scan_ns += now_ns() - r1;
    }
  }
  const std::int64_t win1 = now_ns() - scan_ns;
  const sim::Time w1 = h.scheduler().now();
  const std::uint64_t window_events = h.scheduler().events_run() - events0;

  // ---------------------------------------------------------------- drain
  const std::uint32_t drain_span = spans().open("drain", 0);
  h.run_for(workload->drain());
  spans().finish(drain_span);
  const sim::Time drain_end = h.scheduler().now();
  const std::int64_t drain1 = now_ns();
  const std::uint32_t scan_span = spans().open("scan", 0);
  d.scan();
  spans().finish(scan_span);
  scan_ns += now_ns() - drain1;

  // ------------------------------------------------ end-to-end accounting
  const auto& ops = d.ops();
  std::uint64_t attempted = 0, completed = 0, refused = 0, pending = 0;
  std::uint64_t failed = 0, in_window_user = 0, in_window_cross = 0;
  bool window_cross = false;
  for (const Op& o : ops) window_cross |= o.window && o.kind == OpKind::kCross;
  std::vector<sim::Duration> commit_lat, xmsg_lat;
  for (const Op& o : ops) {
    const bool done = o.applies > 0 && o.done_us <= drain_end;
    if (done && o.done_us >= w0 && o.done_us < w1) {
      ++(o.kind == OpKind::kUser ? in_window_user : in_window_cross);
    }
    if (o.kind == OpKind::kCross && o.window == window_cross && done) {
      xmsg_lat.push_back(o.done_us - o.submit_us);
    }
    if (!o.window) continue;
    ++attempted;
    if (o.failed) ++failed;
    if (done) {
      ++completed;
      if (o.kind == OpKind::kUser) commit_lat.push_back(o.done_us - o.submit_us);
    } else if (o.state == OpState::kRefused) {
      ++refused;
    } else {
      ++pending;
    }
  }
  const double window_s = static_cast<double>(w1 - w0) / sim::kSecond;
  const std::uint64_t window_ops = in_window_user + in_window_cross;
  const Latency commit = latency_of(commit_lat);
  const Latency xmsg = latency_of(xmsg_lat);

  // ------------------------------------------------------------- settle
  // Cross-msgs still in flight hold supply between the parent's
  // circulating figure and the child's balances; let them land and every
  // cross-net queue drain before the invariant check (outside every
  // measured interval).
  std::vector<std::string> failures;
  const std::uint32_t settle_span = spans().open("settle", 0);
  const bool landed = h.run_until(
      [&] {
        d.scan();
        for (const Op& o : d.ops()) {
          if (o.kind == OpKind::kCross && o.applies == 0 && !o.failed) {
            return false;
          }
        }
        return chaos::quiescent(h);
      },
      60 * sim::kSecond, 200 * sim::kMillisecond);
  spans().finish(settle_span);
  if (!landed) failures.push_back("cross-msgs still in flight after settle");

  // ------------------------------------------------------------- checks
  const std::uint32_t check_span = spans().open("checks", 0);
  const std::int64_t check0 = now_ns();
  if (d.scan_gaps() != 0) {
    failures.push_back(std::to_string(d.scan_gaps()) +
                       " blocks pruned before they were read");
  }
  if (d.unknown_applies() != 0) {
    failures.push_back(std::to_string(d.unknown_applies()) +
                       " applied cross-msgs match no offered op");
  }
  const auto failed_any =
      std::count_if(ops.begin(), ops.end(), [](const Op& o) { return o.failed; });
  if (failed_any != 0) {
    failures.push_back(std::to_string(failed_any) +
                       " ops failed (refused, failed receipt or reverted)");
  }
  if (completed + refused + pending != attempted) {
    failures.push_back("op accounting does not add up");
  }
  std::uint64_t twice = 0;
  for (const Op& o : ops) twice += (o.applies > 1) + (o.src_commits > 1);
  if (twice != 0) {
    failures.push_back(std::to_string(twice) + " ops applied more than once");
  }
  // Each sender's committed ops are exactly nonces [0, account nonce).
  for (const Sender& s : d.senders()) {
    const std::uint64_t nonce = s.subnet->api_node().account_nonce(s.addr);
    std::uint64_t committed = 0;
    for (std::size_t n = 0; n < s.op_by_nonce.size(); ++n) {
      const Op& o = ops[s.op_by_nonce[n]];
      const bool at_source = o.kind == OpKind::kUser ? o.applies > 0
                                                     : o.src_commits > 0;
      if (at_source != (n < nonce)) {
        failures.push_back("sender " + s.addr.to_string() + " nonce " +
                           std::to_string(n) + " committed=" +
                           std::to_string(at_source) + " vs account nonce " +
                           std::to_string(nonce));
        break;
      }
      committed += at_source;
    }
    if (committed != nonce) {
      failures.push_back("sender " + s.addr.to_string() +
                         " committed a nonce the benchmark never offered");
    }
  }
  const double user_ceiling = workload->user_ceiling_tps(h);
  const double cross_ceiling = workload->cross_ceiling_tps(h);
  if (static_cast<double>(in_window_user) / window_s > user_ceiling ||
      static_cast<double>(in_window_cross) / window_s > cross_ceiling) {
    failures.push_back("window throughput exceeds the configured ceiling");
  }
  // Supply conservation on every parent -> child edge, no negative
  // balance, drained queues, committed checkpoint chains, replica
  // agreement: the repo's own invariant checker.
  for (const auto& v : chaos::check_invariants(h).violations) {
    failures.push_back("invariant: " + v);
  }
  workload->check(d, failures);
  spans().finish(check_span);
  const std::int64_t check_ns = now_ns() - check0;

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const std::int64_t work_end = now_ns();

  // ------------------------------------------------------------- output
  const obs::MetricsRegistry& reg = h.obs().metrics;
  Metrics e2e = {
      {"setup_s", secs(setup_end)},
      {"wall_us_per_msg", ratio(static_cast<double>(win1 - win0) / 1e3,
                                static_cast<double>(window_ops))},
      {"wall_s_per_sim_s", secs(win1 - win0) / window_s},
      {"peak_rss_mb", peak_rss_mb},
  };
  Metrics det = {
      {"sim_tps", static_cast<double>(window_ops) / window_s},
      {"commit_p50_sim_ms", commit.p50_ms},
      {"commit_p99_sim_ms", commit.tail_ms},
      {"commit_samples", static_cast<double>(commit.samples)},
      {"commit_tail_pct", commit.tail_pct},
      {"xmsg_p50_sim_ms", xmsg.p50_ms},
      {"xmsg_p99_sim_ms", xmsg.tail_ms},
      {"xmsg_samples", static_cast<double>(xmsg.samples)},
      {"xmsg_tail_pct", xmsg.tail_pct},
      {"done_share", ratio(static_cast<double>(completed),
                           static_cast<double>(attempted))},
      {"fail_share", ratio(static_cast<double>(attempted - completed),
                           static_cast<double>(attempted))},
      {"window_ops", static_cast<double>(window_ops)},
      {"window_events", static_cast<double>(window_events)},
      {"blocks_committed", static_cast<double>(
                               counter_sum(reg, "node_blocks_committed_total"))},
      {"user_msgs_executed", static_cast<double>(counter_sum(
                                 reg, "node_user_msgs_executed_total"))},
      {"cross_msgs_executed", static_cast<double>(counter_sum(
                                  reg, "node_cross_msgs_executed_total"))},
      {"checkpoints_cut", static_cast<double>(
                              counter_sum(reg, "node_checkpoints_cut_total"))},
      {"mempool_shed", static_cast<double>(
                           counter_sum(reg, "node_mempool_shed_total"))},
      {"net_messages_sent", static_cast<double>(
                                counter_sum(reg, "net_messages_sent_total"))},
      {"consensus_rounds", static_cast<double>(
                               counter_sum(reg, "consensus_rounds_total"))},
      {"client_refused_overloaded",
       static_cast<double>(d.refused_overloaded())},
  };

  Metrics layers;
  Metrics self;
  if (args.trace) {
    const std::int64_t ladder0 = now_ns();
    const obs::ProfileReport report = prof.report();
    prof.set_enabled(false);  // the ladder must not pollute phase times
    Metrics ladder;
    run_ladder(d, h.config().mempool, ladder);
    const std::int64_t ladder1 = now_ns();

    const auto phase_self = [&](const std::string& prefix) {
      std::int64_t ns = 0;
      for (const auto& p : report.phases) {
        if (p.name.rfind(prefix, 0) == 0) ns += p.self_ns;
      }
      return ns;
    };
    const double blocks = static_cast<double>(d.blocks_scanned());
    const double all_ops = [&] {
      std::uint64_t n = 0;
      for (const Op& o : ops) n += o.applies > 0;
      return static_cast<double>(n);
    }();
    const double window_blocks =
        static_cast<double>(d.blocks_between(w0, w1));
    const auto& sig = crypto::SigCache::instance();
    const double sig_hits = static_cast<double>(sig.hits());
    const double sig_misses = static_cast<double>(sig.misses());
    const net::Network::Stats net = h.network().stats();
    const auto c = [&](const char* family) {
      return static_cast<double>(counter_sum(reg, family));
    };
    const double node_commits = c("node_blocks_committed_total");
    // Envelope decode sharing is counted in the process-wide registry.
    const obs::MetricsRegistry& proc = obs::default_obs().metrics;
    const auto decode_hits =
        static_cast<double>(counter_sum(proc, "payload_decode_hits_total"));
    const auto decode_misses =
        static_cast<double>(counter_sum(proc, "payload_decode_misses_total"));

    // Sign / submit spans of the load generator.
    std::vector<double> sign_us, admit_us;
    for (const Span& s : spans().spans()) {
      if (std::strcmp(s.name, "gen/sign") == 0) {
        sign_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      } else if (std::strcmp(s.name, "gen/submit") == 0) {
        admit_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    const auto median = [](std::vector<double> v) {
      if (v.empty()) return 0.0;
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    double lane_max = 0, lane_sum = 0, lanes = 0;
    const auto& lane_wall = h.executor().lane_wall_ns();
    for (std::size_t i = 1; i < lane_wall.size(); ++i) {
      if (lane_wall[i] <= 0) continue;
      lane_max = std::max(lane_max, static_cast<double>(lane_wall[i]));
      lane_sum += static_cast<double>(lane_wall[i]);
      lanes += 1;
    }
    std::int64_t mem_peak = gauge_max(reg, "node_mem_peak_bytes");
    for (const auto& s : h.subnets()) {
      for (std::size_t i = 0; i < s->size(); ++i) {
        if (s->alive(i)) {
          mem_peak = std::max<std::int64_t>(
              mem_peak, static_cast<std::int64_t>(s->node(i).mem_bytes()));
        }
      }
    }

    const auto per_block = [&](std::int64_t ns) { return ms(ns) / blocks; };
    layers = {
        {"crypto.sign_us", median(sign_us)},
        {"crypto.verifies_per_op", ratio(sig_misses, all_ops)},
        {"crypto.sigcache_hit_ratio", ratio(sig_hits, sig_hits + sig_misses)},
        {"crypto.verify_self_ms", ms(phase_self("crypto/verify"))},
        {"crypto.sign_self_ms", ms(phase_self("crypto/sign"))},
        {"chain.admit_us", median(admit_us)},
        {"chain.admit_calls", static_cast<double>(d.admit_calls())},
        {"chain.refused_overloaded",
         static_cast<double>(d.refused_overloaded())},
        {"chain.mempool_shed", c("node_mempool_shed_total")},
    };
    const std::pair<common::ShedReason, const char*> reasons[] = {
        {common::ShedReason::kQueueFull, "queue_full"},
        {common::ShedReason::kByteCap, "byte_cap"},
        {common::ShedReason::kPerSenderCap, "per_sender_cap"},
        {common::ShedReason::kNonceGap, "nonce_gap"},
        {common::ShedReason::kEvicted, "evicted"},
    };
    for (const auto& [reason, name] : reasons) {
      layers.emplace_back(
          std::string("chain.mempool_shed.") + name,
          static_cast<double>(counter_sum_where(
              reg, "node_mempool_shed_total",
              std::string("reason=") + common::to_string(reason))));
    }
    const double rehash = c("state_leaf_rehashes_total");
    const double flush_hits = c("state_flush_cache_hits_total");
    Metrics more = {
        {"chain.build_self_ms", per_block(phase_self("chain/build"))},
        {"chain.validate_self_ms", per_block(phase_self("chain/validate"))},
        {"chain.commit_self_ms", per_block(phase_self("chain/commit"))},
        {"chain.execute_self_ms", per_block(phase_self("chain/execute"))},
        {"chain.flush_self_ms", per_block(phase_self("state/flush"))},
        {"chain.ops_per_block",
         ratio(static_cast<double>(window_ops), window_blocks)},
        {"chain.leaf_rehashes_per_block", ratio(rehash, blocks)},
        {"chain.flush_cache_hit_ratio", ratio(flush_hits, flush_hits + rehash)},
        {"chain.alloc_bytes_per_op", ratio(c("alloc_bytes_total"), all_ops)},
        {"consensus.step_self_ms", ms(phase_self("consensus/"))},
        {"consensus.rounds", c("consensus_rounds_total")},
        {"consensus.timeouts", c("consensus_timeouts_total")},
        {"consensus.view_changes", c("consensus_view_changes_total")},
        {"net.msgs_per_op",
         ratio(static_cast<double>(net.messages_sent), all_ops)},
        {"net.bytes_per_op", ratio(static_cast<double>(net.bytes_sent), all_ops)},
        {"net.physical_to_logical",
         ratio(static_cast<double>(net.bytes_physical),
               static_cast<double>(net.bytes_sent))},
        {"net.decode_hit_ratio", ratio(decode_hits, decode_hits + decode_misses)},
        {"net.deliver_self_ms", ms(phase_self("net/deliver"))},
        {"sim.events_per_op",
         ratio(static_cast<double>(h.scheduler().events_run()), all_ops)},
        {"sim.run_for_ms", median(run_for_ms)},
        {"sim.windows", static_cast<double>(h.executor().windows())},
        {"sim.dispatches", static_cast<double>(h.executor().dispatches())},
        {"sim.dispatch_self_ms", ms(phase_self("scheduler/dispatch"))},
        {"sim.lane_wall_imbalance", lanes > 0 ? lane_max / (lane_sum / lanes)
                                              : 0.0},
        {"core.checkpoints_cut", c("node_checkpoints_cut_total")},
        {"core.checkpoints_submitted", c("node_checkpoints_submitted_total")},
        {"core.checkpoint_retries", c("node_checkpoint_retries_total")},
        {"actors.cross_executed", c("node_cross_msgs_executed_total")},
        {"runtime.pulls_sent", c("node_pulls_sent_total")},
        {"runtime.resolves_served", c("node_resolves_served_total")},
        {"runtime.node_mem_peak_bytes", static_cast<double>(mem_peak)},
        {"runtime.boot_s", secs(fund0 - boot0)},
        {"runtime.fund_s", secs(setup_end - fund0)},
        {"storage.wal_appends_per_block",
         ratio(c("wal_appends_total"), node_commits)},
        {"storage.wal_fsyncs_per_block",
         ratio(c("wal_fsyncs_total"), node_commits)},
    };
    layers.insert(layers.end(), more.begin(), more.end());
    for (const auto& [name, value] : ladder) {
      if (name == "ladder.bad_results") {
        if (value != 0) failures.push_back("ladder produced wrong results");
      } else {
        layers.emplace_back(name, value);
      }
    }

    // Where the wall time went, in thread-ms: the process wall times the
    // worker count (idle workers included) splits into the profiler's
    // phase self times grouped by layer, the driver's own work outside
    // any phase, the ladder, and the untimed remainder.
    const double capacity_ms = ms(work_end) * static_cast<double>(threads);
    const double setup_other =
        std::max(0.0, ms(setup_end) - ms(setup_prof_ns));
    const std::int64_t chain_ns =
        phase_self("chain/") + phase_self("state/");
    self = {
        {"crypto", ms(phase_self("crypto/"))},
        {"chain", ms(chain_ns)},
        {"consensus", ms(phase_self("consensus/"))},
        {"net", ms(phase_self("net/"))},
        {"sim", ms(phase_self("scheduler/"))},
        {"bench_setup", setup_other},
        {"bench_driver", ms(pump_ns + scan_ns + check_ns)},
    };
    double timed = 0;
    for (const auto& [name, v] : self) timed += v;
    self.emplace_back("untimed", capacity_ms - timed);
    self.emplace_back("capacity", capacity_ms);
    self.emplace_back("ladder", ms(ladder1 - ladder0));
    if (std::abs(ms(report.attributed_ns) -
                 (self[0].second + self[1].second + self[2].second +
                  self[3].second + self[4].second)) > 1.0) {
      failures.push_back("profiler phases outside the five layers");
    }
    if (capacity_ms - timed < -0.01 * capacity_ms) {
      failures.push_back("layer self times exceed the traced wall time");
    }
    if (!args.spans_path.empty() && !spans().write_jsonl(args.spans_path)) {
      failures.push_back("cannot write spans to " + args.spans_path);
    }
  }

  std::string checks = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i != 0) checks += ", ";
    checks += "\"" + json_escape(failures[i]) + "\"";
  }
  checks += "]";
  for (const auto& f : failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"threads\": %zu, "
      "\"trace\": %d, \"host_cpus\": %u, \"build_type\": \"%s\", "
      "\"cache\": \"cold\", \"attempted\": %llu, \"completed\": %llu, "
      "\"refused\": %llu, \"pending\": %llu, \"failed\": %llu, "
      "\"wall\": %s, \"det\": %s, \"layers\": %s, \"self_ms\": %s, "
      "\"total_s\": %s, \"failures\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      threads, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(refused),
      static_cast<unsigned long long>(pending),
      static_cast<unsigned long long>(failed), json_object(e2e).c_str(),
      json_object(det).c_str(), json_object(layers).c_str(),
      json_object(self).c_str(), json_number(secs(work_end)).c_str(),
      checks.c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_start)
      .count();
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "[--threads T] [--trace 0|1] [--spans PATH]\n");
    return 2;
  }
  return perfbench::run(args);
}
