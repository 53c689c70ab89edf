// workloads.hpp — the benchmark's four workloads and the loop that
// measures one of them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// One measured repetition of a workload.
struct Rep {
  double run_s = 0.0;
  double cpu_s = 0.0;
  Digest digest;
  std::uint64_t attempted = 0;  ///< losses to recover
  std::uint64_t failed = 0;     ///< losses left unrecovered (or thrown)
  std::vector<std::string> errors;
  std::vector<std::string> check_failures;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up (trace generation + inference, socket stand-up, scale
  /// tree and receiver blocks); returns its time in seconds. The caller
  /// runs several and reports the median.
  virtual double setup(SpanRecorder* spans) = 0;
  /// One measured repetition. `traced` turns on the program's own
  /// observability (ObsConfig::{metrics,trace}); spans is null untraced.
  virtual Rep run(SpanRecorder* spans, bool traced) = 0;
  /// Fills every end-to-end metric except setup_s/run_s/cpu_s/peak_rss_mb
  /// from the untraced reps; `notes` explains derived choices.
  virtual void end_to_end(Metrics* out, std::vector<std::string>* notes) = 0;
  /// Fills this workload's per-layer metrics after the traced rep. A layer
  /// call that throws here is reported in `errors` (the run is then not
  /// correct) and leaves its metrics at 0.
  virtual void per_layer(Metrics* out, SpanRecorder& spans,
                         std::vector<std::string>* notes,
                         std::vector<std::string>* errors) = 0;
};

/// The named workload at its benchmark size, or (small) at a size that
/// runs in about a second for the self-test. Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool small = false);
const std::vector<std::string>& workload_names();

/// Every per-layer metric with its unit, in report order; a workload that
/// does not exercise a layer reports it as 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

}  // namespace perfbench
