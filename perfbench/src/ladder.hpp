// The layer ladder: per-op timings of single layer entry points, run in the
// traced process only, after the workload, on inputs captured from that
// workload (its committed messages, blocks, batches, checkpoints and head
// state). Each op is a span named "ladder/<op>".
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "driver.hpp"

namespace perfbench {

using Metrics = std::vector<std::pair<std::string, double>>;

/// Time every ladder op; appends "<layer>.<metric>" entries to `out`.
void run_ladder(Driver& d, const chain::MempoolConfig& mempool, Metrics& out);

}  // namespace perfbench
