// compare.hpp — the paired SRM/CESRM comparison behind the protocol
// metrics: pooled recovery latencies and Figure 5's traffic ratios, each
// reported together with its base.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "harness/experiment.hpp"

namespace perfbench {

void add_crossings(cesrm::net::CrossingStats* into,
                   const cesrm::net::CrossingStats& from);

/// Recovery latencies of one protocol pooled over many runs, per recovery:
/// milliseconds, and RTT-normalized (latency over the recovering
/// receiver's RTT to the source, Figure 1's unit).
struct LatencyPool {
  std::vector<double> ms;
  std::vector<double> rtt;

  /// Pools every recovery of a loss detected before `detected_before`.
  void add(const cesrm::harness::ExperimentResult& r,
           cesrm::sim::SimTime detected_before);
  double mean_rtt() const;
};

class Comparison {
 public:
  /// Pools one finished run into its protocol's side: the recoveries of
  /// losses detected before `detected_before`, and all of its traffic.
  void add(const cesrm::harness::ExperimentResult& r,
           cesrm::sim::SimTime detected_before =
               cesrm::sim::SimTime::infinity());

  /// recovery_rtt_mean, srm_recovery_rtt_mean, cesrm_srm_latency_pct,
  /// recovery_p50_rtt, recovery_p99_rtt (tail rule of choose_tail) and
  /// ctrl_pct_of_srm; `notes` gets the chosen percentile, the same
  /// percentiles in ms, and every base.
  void put_end_to_end(Metrics* out, std::vector<std::string>* notes) const;
  /// retx_pct_of_srm: CESRM replies + expedited replies as % of SRM's
  /// replies (Figure 5, left).
  void put_retx(Metrics* out, std::vector<std::string>* notes) const;

 private:
  LatencyPool srm_, cesrm_;
  cesrm::net::CrossingStats srm_x_, cesrm_x_;
};

}  // namespace perfbench
