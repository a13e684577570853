#!/usr/bin/env python3
"""The repo benchmark: build the workload driver, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The driver (perfbench/src, built by CMake
into .bench_build, or $CARGO_TARGET_DIR when set) runs one workload per
process, so every run starts with cold caches: an empty signature cache,
subnet-id interner and profiler. No warm-up run is made.

--trace 0 repeats fresh driver processes for about --seconds of wall time
(at least two) and reports the end-to-end metrics: the median of the wall
metrics, and the simulated-time metrics, which must be identical in every
process of the same seed. --trace 1 runs one untraced and one traced
process (plus, on xnet_mix, an untraced 1-thread one) and reports the
per-layer metrics of the traced process; the spans it recorded are written
to <build dir>/traces/. Every metric is printed by name with its unit;
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only when every output check
passed. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("fig1_saturate", "surge_10x", "xnet_mix", "city_zipf")
MIN_REPS = 2
MAX_REPS = 50
REP_TIMEOUT_S = 170

# name -> (unit, where it comes from in the driver's output)
END_TO_END = {
    "setup_s": ("s", "wall"),
    "wall_us_per_msg": ("us", "wall"),
    "wall_s_per_sim_s": ("s/s", "wall"),
    "peak_rss_mb": ("MB", "wall"),
    "sim_tps": ("1/s", "det"),
    "commit_p50_sim_ms": ("ms", "det"),
    "commit_p99_sim_ms": ("ms", "det"),
    "xmsg_p50_sim_ms": ("ms", "det"),
    "xmsg_p99_sim_ms": ("ms", "det"),
    "done_share": ("ratio", "det"),
}

PER_LAYER_UNITS = {
    "crypto.verify_us": "us", "crypto.point_mul_us": "us",
    "crypto.mul_generator_us": "us", "crypto.sign_us": "us",
    "crypto.keypair_sign_us": "us", "crypto.sha256_ns_per_byte": "ns/B",
    "crypto.verifies_per_op": "1/op", "crypto.sigcache_hit_ratio": "ratio",
    "crypto.verify_self_ms": "ms", "crypto.sign_self_ms": "ms",
    "chain.admit_us": "us", "chain.admit_calls": "count",
    "chain.refused_overloaded": "count", "chain.mempool_shed": "count",
    "chain.mempool_shed.queue_full": "count",
    "chain.mempool_shed.byte_cap": "count",
    "chain.mempool_shed.per_sender_cap": "count",
    "chain.mempool_shed.nonce_gap": "count",
    "chain.mempool_shed.evicted": "count",
    "chain.mempool_add_us": "us",
    "chain.build_self_ms": "ms/block", "chain.validate_self_ms": "ms/block",
    "chain.commit_self_ms": "ms/block", "chain.execute_self_ms": "ms/block",
    "chain.flush_self_ms": "ms/block",
    "chain.ops_per_block": "1/block",
    "chain.flush_us_per_dirty_leaf": "us",
    "chain.leaf_rehashes_per_block": "1/block",
    "chain.flush_cache_hit_ratio": "ratio",
    "chain.alloc_bytes_per_op": "B/op",
    "consensus.step_self_ms": "ms", "consensus.rounds": "count",
    "consensus.timeouts": "count", "consensus.view_changes": "count",
    "net.msgs_per_op": "1/op", "net.bytes_per_op": "B/op",
    "net.physical_to_logical": "ratio", "net.decode_hit_ratio": "ratio",
    "net.deliver_self_ms": "ms", "net.publish_us": "us",
    "sim.events_per_op": "1/op", "sim.run_for_ms": "ms",
    "sim.windows": "count", "sim.dispatches": "count",
    "sim.dispatch_self_ms": "ms", "sim.schedule_ns": "ns",
    "sim.lane_wall_imbalance": "ratio",
    "common.encode_us_per_block": "us", "common.decode_us_per_block": "us",
    "common.encode_us_per_batch": "us", "common.decode_us_per_batch": "us",
    "common.encode_us_per_checkpoint": "us",
    "common.decode_us_per_checkpoint": "us",
    "core.checkpoints_cut": "count", "core.checkpoints_submitted": "count",
    "core.checkpoint_retries": "count", "actors.cross_executed": "count",
    "runtime.pulls_sent": "count", "runtime.resolves_served": "count",
    "runtime.node_mem_peak_bytes": "B", "runtime.boot_s": "s",
    "runtime.fund_s": "s",
    "storage.wal_appends_per_block": "1/block",
    "storage.wal_fsyncs_per_block": "1/block",
    "obs.trace_overhead_pct": "%",
}
SELF_PARTS = ("crypto", "chain", "consensus", "net", "sim", "bench_setup",
              "bench_driver", "ladder", "untimed")
for _part in SELF_PARTS:
    PER_LAYER_UNITS["self." + _part + "_ms"] = "ms"
PER_LAYER_UNITS["self.capacity_ms"] = "ms"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(src, "CMakeLists.txt")):
        fail("perfbench/CMakeLists.txt not found; run from the repo root")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found; run from the repo root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    # Keep the compiler's temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env, timeout=880)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(build_dir, "perfbench_driver")
    if not os.access(exe, os.X_OK):
        fail("driver binary missing after build")
    return exe


def run_driver(exe, workload, seed, trace, threads=None, spans=None):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    if spans is not None:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=REP_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(r.stderr)
        fail("driver printed no result (exit %d)" % r.returncode)
    out["rc"] = r.returncode
    out["elapsed_s"] = time.monotonic() - t0
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
    return out


def check_same_det(reps, problems):
    """Simulated-time metrics must replay exactly (same seed, any threads,
    profiler on or off)."""
    first = reps[0]
    for r in reps[1:]:
        for key, value in first["det"].items():
            if r["det"].get(key) != value:
                problems.append(
                    "%s differs between runs: %r (threads=%d trace=%d) vs "
                    "%r (threads=%d trace=%d)" % (
                        key, value, first["threads"], first["trace"],
                        r["det"].get(key), r["threads"], r["trace"]))


def measure(exe, workload, seed, seconds):
    reps = []
    t0 = time.monotonic()
    while True:
        reps.append(run_driver(exe, workload, seed, trace=False))
        elapsed = time.monotonic() - t0
        per_rep = statistics.median(r["elapsed_s"] for r in reps)
        if len(reps) >= MAX_REPS:
            break
        if len(reps) >= MIN_REPS and elapsed + per_rep > seconds:
            break
    metrics = {}
    for name, (unit, section) in END_TO_END.items():
        value = statistics.median(r[section][name] for r in reps)
        metrics[name] = {"value": value, "unit": unit}
    return reps, metrics


def trace(exe, workload, seed, build_dir):
    base = run_driver(exe, workload, seed, trace=False)
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    spans = os.path.join(traces, "%s-seed%d.spans.jsonl" % (workload, seed))
    traced = run_driver(exe, workload, seed, trace=True, spans=spans)
    reps = [base, traced]
    if traced["threads"] > 1:
        reps.append(run_driver(exe, workload, seed, trace=False, threads=1))
    layers = dict(traced["layers"])
    for part, value in traced["self_ms"].items():
        layers["self.%s_ms" % part] = value
    layers["obs.trace_overhead_pct"] = (
        100.0 * (traced["total_s"] / base["total_s"] - 1.0))
    metrics = {}
    problems = []
    for name, unit in PER_LAYER_UNITS.items():
        if name not in layers:
            problems.append("per-layer metric %s missing" % name)
            continue
        metrics[name] = {"value": layers[name], "unit": unit}
    parts = sum(layers.get("self.%s_ms" % p, 0.0) for p in SELF_PARTS
                if p != "ladder")
    if abs(parts - layers.get("self.capacity_ms", 0.0)) > 1e-6 * max(1.0, parts):
        problems.append("layer self times + untimed != traced wall")
    return reps, metrics, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    exe = build(root, build_dir)

    if args.trace:
        reps, metrics, problems = trace(exe, args.workload, args.seed,
                                        build_dir)
    else:
        reps, metrics = measure(exe, args.workload, args.seed, args.seconds)
        problems = []
    check_same_det(reps, problems)
    for r in reps:
        problems.extend("run seed=%d threads=%d trace=%d: %s" % (
            r["seed"], r["threads"], r["trace"], f) for f in r["failures"])
        if r["rc"] != 0 and not r["failures"]:
            problems.append("driver exited %d" % r["rc"])

    first = reps[0]
    print("workload=%s seed=%d runs=%d threads=%s host_cpus=%d build=%s "
          "caches=%s" % (args.workload, args.seed, len(reps),
                         ",".join(str(r["threads"]) for r in reps),
                         first["host_cpus"], first["build_type"],
                         first["cache"]))
    det = first["det"]
    print("ops: attempted=%d completed=%d refused=%d pending=%d failed=%d "
          "fail_share=%.6g commit_samples=%d (tail p%.2f) xmsg_samples=%d "
          "(tail p%.2f)" % (
              first["attempted"], first["completed"], first["refused"],
              first["pending"], first["failed"], det["fail_share"],
              det["commit_samples"], det["commit_tail_pct"],
              det["xmsg_samples"], det["xmsg_tail_pct"]))
    if not args.trace:
        for name in ("setup_s", "wall_us_per_msg", "peak_rss_mb"):
            print("per process %s: %s" % (name, " ".join(
                "%.6g" % r["wall"][name] for r in reps)))
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    for p in problems:
        print("CHECK FAILED: " + p)

    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
