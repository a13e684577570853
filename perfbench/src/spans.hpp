// Benchmark-side spans: wall-clock intervals recorded around the calls the
// benchmark makes into each layer (setup, every tick's run_for, every sign
// and submit of the load generator, every ladder op).
//
// Spans live in memory for the whole run and are written out once, at the
// end, as JSON lines. Recording is off in untraced runs: `open` then
// returns 0 and `close` does nothing, so the end-to-end measurement pays
// one relaxed load per call site. Sign and submit spans are recorded from
// the subnet lanes, which may run on worker threads, so appends take a
// mutex (traced runs only).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic ns since the process started measuring (see main()).
std::int64_t now_ns();

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = top level
  std::uint64_t op = 0;      // op id (0 = none)
};

class SpanLog {
 public:
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Record a finished span; returns its id (0 when disabled).
  std::uint32_t add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t parent,
                    std::uint64_t op = 0) {
    if (!enabled()) return 0;
    std::lock_guard<std::mutex> lock(m_);
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(Span{name, start_ns, end_ns, id, parent, op});
    return id;
  }

  /// Reserve an id for a span whose end is not known yet (a parent of
  /// spans recorded while it is open). Finish it with `finish`.
  std::uint32_t open(const char* name, std::uint32_t parent) {
    return add(name, now_ns(), -1, parent);
  }
  void finish(std::uint32_t id) {
    if (id == 0) return;
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(m_);
    spans_[id - 1].end_ns = t;
  }

  /// The span lane-side spans hang under: the tick whose run_for is
  /// executing (set by the driver between windows).
  void set_current(std::uint32_t id) {
    current_.store(id, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t current() const {
    return current_.load(std::memory_order_relaxed);
  }

  /// Driver context only (no lane running).
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Write one JSON object per line. Returns false on an I/O error.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"id\":%u,\"parent\":%u,\"op\":%llu}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.id, s.parent,
                   static_cast<unsigned long long>(s.op));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> current_{0};
  std::mutex m_;
  std::vector<Span> spans_;
};

/// The process-wide span log (one workload run per process).
SpanLog& spans();

}  // namespace perfbench
