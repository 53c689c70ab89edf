#include "compare.hpp"

#include <algorithm>

namespace perfbench {

namespace {

using cesrm::net::PacketType;

double total(const cesrm::net::CrossingStats& x, PacketType t) {
  return static_cast<double>(x.total_of(t));
}

}  // namespace

void add_crossings(cesrm::net::CrossingStats* into,
                   const cesrm::net::CrossingStats& from) {
  for (std::size_t i = 0; i < cesrm::net::kPacketTypeCount; ++i) {
    into->multicast[i] += from.multicast[i];
    into->unicast[i] += from.unicast[i];
    into->subcast[i] += from.subcast[i];
    into->dropped[i] += from.dropped[i];
    into->duplicated[i] += from.duplicated[i];
    into->wire_bytes[i] += from.wire_bytes[i];
  }
}

void LatencyPool::add(const cesrm::harness::ExperimentResult& r,
                      cesrm::sim::SimTime detected_before) {
  for (const auto& m : r.members) {
    if (m.is_source) continue;
    for (const auto& rec : m.stats.recoveries) {
      if (!rec.recovered || !(rec.detect_time < detected_before)) continue;
      ms.push_back(rec.latency_seconds() * 1e3);
      if (m.rtt_to_source > 0.0)
        rtt.push_back(rec.latency_seconds() / m.rtt_to_source);
    }
  }
}

double LatencyPool::mean_rtt() const {
  double sum = 0.0;
  for (double v : rtt) sum += v;
  return rtt.empty() ? 0.0 : sum / static_cast<double>(rtt.size());
}

void Comparison::add(const cesrm::harness::ExperimentResult& r,
                     cesrm::sim::SimTime detected_before) {
  const bool is_cesrm = r.protocol == cesrm::Protocol::kCesrm;
  (is_cesrm ? cesrm_ : srm_).add(r, detected_before);
  add_crossings(is_cesrm ? &cesrm_x_ : &srm_x_, r.crossings);
}

void Comparison::put_end_to_end(Metrics* out,
                                std::vector<std::string>* notes) const {
  (*out)["recovery_rtt_mean"] = {cesrm_.mean_rtt(), "RTT"};
  (*out)["srm_recovery_rtt_mean"] = {srm_.mean_rtt(), "RTT"};
  (*out)["cesrm_srm_latency_pct"] = {pct_of(cesrm_.mean_rtt(), srm_.mean_rtt()),
                                     "%"};
  std::vector<double> rtt = cesrm_.rtt;
  std::vector<double> ms = cesrm_.ms;
  std::sort(rtt.begin(), rtt.end());
  std::sort(ms.begin(), ms.end());
  const TailChoice tail = choose_tail(rtt);
  (*out)["recovery_p50_rtt"] = {nearest_rank(rtt, 50), "RTT"};
  (*out)["recovery_p99_rtt"] = {tail.value, "RTT"};
  // Control = requests (Figure 5, right): CESRM's multicast + expedited
  // unicast requests against SRM's multicast requests.
  const double base = total(srm_x_, PacketType::kRequest);
  (*out)["ctrl_pct_of_srm"] = {
      pct_of(total(cesrm_x_, PacketType::kRequest) +
                 total(cesrm_x_, PacketType::kExpRequest),
             base),
      "%"};
  notes->push_back("recovery_p99_rtt reports p" +
                   std::to_string(tail.percentile) + " of " +
                   std::to_string(rtt.size()) + " CESRM recoveries (" +
                   std::to_string(tail.beyond) + " beyond it); in ms: p50 " +
                   std::to_string(nearest_rank(ms, 50)) + ", p" +
                   std::to_string(tail.percentile) + " " +
                   std::to_string(nearest_rank(ms, tail.percentile)));
  notes->push_back("latency base: SRM mean " + std::to_string(srm_.mean_rtt()) +
                   " RTT over " + std::to_string(srm_.rtt.size()) +
                   " recoveries; ctrl base: " +
                   std::to_string(static_cast<std::uint64_t>(base)) +
                   " SRM request crossings");
}

void Comparison::put_retx(Metrics* out, std::vector<std::string>* notes) const {
  const double base = total(srm_x_, PacketType::kReply);
  (*out)["retx_pct_of_srm"] = {
      pct_of(total(cesrm_x_, PacketType::kReply) +
                 total(cesrm_x_, PacketType::kExpReply),
             base),
      "%"};
  notes->push_back("retx base: " +
                   std::to_string(static_cast<std::uint64_t>(base)) +
                   " SRM reply crossings");
}

}  // namespace perfbench
