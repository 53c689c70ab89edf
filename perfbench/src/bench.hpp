// bench.hpp — the repo benchmark's shared vocabulary: named metrics, the
// deterministic digest, the percentile rule, ratio helpers, process
// resource probes, and the in-memory span recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Ordered (name, value) pairs of deterministic simulated counters. Equal
/// digests mean the simulated behaviour did not move.
class Digest {
 public:
  void add(const std::string& key, std::uint64_t value);
  void add(const std::string& key, std::int64_t value) {
    add(key, static_cast<std::uint64_t>(value));
  }
  /// FNV-1a over every "key=value;" in insertion order.
  std::uint64_t hash() const;
  std::string hex() const;
  const std::vector<std::pair<std::string, std::uint64_t>>& fields() const {
    return fields_;
  }
  bool operator==(const Digest& other) const {
    return fields_ == other.fields_;
  }

 private:
  std::vector<std::pair<std::string, std::uint64_t>> fields_;
};

/// A tail percentile chosen so that at least `min_beyond` samples lie above
/// it: the highest p in 99, 98, ..., 50 whose nearest-rank index leaves
/// that many samples beyond (50 when even the median does not).
struct TailChoice {
  int percentile = 99;
  std::size_t beyond = 0;  ///< samples strictly above the chosen rank
  double value = 0.0;
};
/// Nearest-rank percentile of an ascending-sorted sample (p in (0, 100]).
double nearest_rank(const std::vector<double>& sorted, double p);
/// Samples above the nearest-rank index of percentile p among n samples.
std::size_t samples_beyond(std::size_t n, double p);
TailChoice choose_tail(const std::vector<double>& sorted,
                       std::size_t min_beyond = 10);

/// 100 × part ÷ base; 0 when the base is 0 (callers report the base too).
double pct_of(double part, double base);

/// Process CPU (user + system) seconds so far.
double process_cpu_seconds();
/// Process peak resident set size (VmHWM) in MiB.
double peak_rss_mib();

double seconds_since(std::chrono::steady_clock::time_point t0);

/// Spans of the traced run: name, start, end, parent, run id. Kept in
/// memory and exported at exit. Scopes nest, opened and closed on the one
/// thread that drives the workload.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;
  struct Span {
    std::string name;
    std::string layer;  ///< the text before the first '.' of name
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::uint64_t run_id = 0;
  };

  /// RAII guard: opens a span on construction, closes it on destruction.
  /// A null recorder makes the guard a no-op (untraced runs).
  class Scope {
   public:
    Scope(SpanRecorder* rec, const std::string& name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
  };

  explicit SpanRecorder(std::uint64_t run_id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Seconds spent in spans of `layer` minus their child spans.
  std::map<std::string, double> self_seconds_by_layer() const;
  /// Total seconds of every span named exactly `name`.
  double total_seconds(const std::string& name) const;
  /// Chrome trace_event JSON ("X" complete events), Perfetto-loadable.
  void write_chrome_trace(std::ostream& os) const;

 private:
  double us_of(Clock::time_point t) const;
  Clock::time_point epoch_;
  std::uint64_t run_id_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
