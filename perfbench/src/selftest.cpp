// selftest.cpp — `perfbench --selftest`: the percentile rule, every
// ratio with its base, and digest stability on small workloads.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "compare.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok   " : "  FAIL ") << what << "\n";
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void test_percentiles() {
  std::cout << "percentile rule (highest percentile with >= 10 beyond):\n";
  const TailChoice big = choose_tail(iota_samples(1000));
  expect(big.percentile == 99 && big.beyond == 10 && near(big.value, 990),
         "1000 samples -> p99 = 990, 10 beyond");
  const TailChoice loop = choose_tail(iota_samples(554));
  expect(loop.percentile == 98 && loop.beyond == 11 && near(loop.value, 543),
         "554 samples -> p98 = 543, 11 beyond");
  const TailChoice few = choose_tail(iota_samples(12));
  expect(few.percentile == 50 && few.beyond == 6,
         "12 samples -> falls back to p50");
  expect(choose_tail({}).value == 0.0, "no samples -> 0");
  expect(near(nearest_rank(iota_samples(4), 50), 2.0),
         "nearest rank p50 of 1..4 = 2");
  expect(samples_beyond(999, 99) == 9, "999 samples leave 9 beyond p99");
}

cesrm::harness::ExperimentResult fake_run(cesrm::Protocol protocol,
                                          std::vector<double> latencies_s,
                                          std::uint64_t requests,
                                          std::uint64_t exp_requests,
                                          std::uint64_t replies,
                                          std::uint64_t exp_replies) {
  using cesrm::net::PacketType;
  cesrm::harness::ExperimentResult r;
  r.protocol = protocol;
  cesrm::harness::MemberResult source;
  source.is_source = true;
  cesrm::harness::MemberResult rx;
  rx.rtt_to_source = 0.1;
  for (double l : latencies_s) {
    cesrm::srm::RecoveryRecord rec;
    rec.recovered = true;
    rec.recover_time =
        cesrm::sim::SimTime::nanos(static_cast<std::int64_t>(l * 1e9));
    rx.stats.recoveries.push_back(rec);
  }
  r.members = {source, rx};
  const auto at = [](PacketType t) { return static_cast<std::size_t>(t); };
  r.crossings.multicast[at(PacketType::kRequest)] = requests;
  r.crossings.unicast[at(PacketType::kExpRequest)] = exp_requests;
  r.crossings.multicast[at(PacketType::kReply)] = replies;
  r.crossings.subcast[at(PacketType::kExpReply)] = exp_replies;
  return r;
}

void test_ratios() {
  std::cout << "ratios with their bases:\n";
  expect(near(pct_of(1.0, 4.0), 25.0), "pct_of(1, 4) = 25");
  expect(pct_of(1.0, 0.0) == 0.0, "pct_of with a zero base reports 0");
  Comparison c;
  c.add(fake_run(cesrm::Protocol::kSrm, {0.3, 0.5}, 40, 0, 20, 0));
  c.add(fake_run(cesrm::Protocol::kCesrm, {0.1, 0.3}, 10, 6, 4, 5));
  Metrics m;
  std::vector<std::string> notes;
  c.put_end_to_end(&m, &notes);
  c.put_retx(&m, &notes);
  expect(near(m["srm_recovery_rtt_mean"].value, 4.0), "SRM mean = 4 RTT");
  expect(near(m["recovery_rtt_mean"].value, 2.0), "CESRM mean = 2 RTT");
  expect(near(m["cesrm_srm_latency_pct"].value, 50.0),
         "latency % of SRM = 2 / 4");
  expect(near(m["ctrl_pct_of_srm"].value, 40.0),
         "control % of SRM = (10 + 6 expedited) / 40 requests");
  expect(near(m["retx_pct_of_srm"].value, 45.0),
         "retransmissions % of SRM = (4 + 5 expedited) / 20 replies");
  expect(near(m["recovery_p50_rtt"].value, 1.0), "CESRM p50 = 1 RTT");
  bool bases = false;
  for (const auto& n : notes)
    bases = bases || n.find("40 SRM request crossings") != std::string::npos;
  expect(bases, "the control base is reported with the ratio");
}

void test_digests() {
  std::cout << "digest stability (small workloads, two untraced reps and "
               "one traced):\n";
  for (const std::string& name : workload_names()) {
    auto w = make_workload(name, 7, /*small=*/true);
    SpanRecorder spans(1);
    w->setup(nullptr);
    const Rep a = w->run(nullptr, false);
    const Rep b = w->run(nullptr, false);
    const Rep t = w->run(&spans, true);
    const bool clean = a.errors.empty() && a.check_failures.empty() &&
                       t.errors.empty() && t.check_failures.empty() &&
                       a.attempted > 0 && a.failed == 0;
    expect(clean, name + ": runs pass their output checks");
    expect(a.digest == b.digest && !a.digest.fields().empty(),
           name + ": digest " + a.digest.hex() + " repeats");
    expect(a.digest == t.digest, name + ": traced run has the same digest");
  }
  auto other = make_workload("table1_sweep", 8, true);
  other->setup(nullptr);
  auto same = make_workload("table1_sweep", 7, true);
  same->setup(nullptr);
  const Digest d8 = other->run(nullptr, false).digest;
  expect(!(d8 == same->run(nullptr, false).digest),
         "a different seed changes the digest");
}

}  // namespace

int run_selftest() {
  test_percentiles();
  test_ratios();
  test_digests();
  std::cout << (failures ? "selftest FAILED: " : "selftest passed: ")
            << failures << " failure(s)\n";
  return failures ? 1 : 0;
}

}  // namespace perfbench
