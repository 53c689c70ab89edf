// bench_scale — the million-receiver scale benchmark.
//
// Sweeps the struct-of-arrays scale driver (harness/scale.hpp) over
// population sizes 10³ → 10⁵ (10⁶ behind --million) for both protocols
// and reports, per (protocol, population): simulator throughput
// (events/s), wall time, bytes of member state per receiver, and the
// block-level recovery p99. A shard sweep at the middle population
// reports sharded-engine throughput at 1 and 2 shards — on a single-core
// host the expectation is parity, not speedup (see EXPERIMENTS.md).
//
// Writes the measurements to --out as JSON (schema "cesrm-scale-bench/1");
// the copy committed at the repo root (BENCH_scale.json) is the baseline
// the CI scale job compares against with tools/bench_diff.py. --smoke
// runs only the 10³/10⁴ populations with otherwise identical parameters,
// so its metrics diff directly against the full baseline (bench_diff
// ignores metrics present on one side only).
//
// Wall-clock metrics (events/s, wall time) vary with the host; the
// deterministic metrics (bytes/receiver, recovery p99, session crossings,
// events scheduled, queue and heap high-water marks) are exact.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/scale.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace {

using namespace cesrm;

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* better;  ///< "higher" = throughput, "lower" = cost/latency
};

harness::ScaleConfig config_for(Protocol protocol, std::uint64_t receivers,
                                std::uint32_t block_members,
                                net::SeqNo packets, std::uint64_t seed,
                                int shards) {
  harness::ScaleConfig cfg;
  cfg.protocol = protocol;
  cfg.receivers = receivers;
  cfg.block_members = block_members;
  // Keep the routing tree shallow for small populations and deep enough
  // to spread 10⁴+ blocks: depth follows the block count.
  const std::uint64_t blocks =
      (receivers + block_members - 1) / block_members;
  cfg.tree_depth = blocks <= 16 ? 3 : blocks <= 256 ? 4 : blocks <= 4096 ? 5
                                                                         : 6;
  cfg.packets = packets;
  cfg.member_loss = 0.01;
  cfg.seed = seed;
  cfg.shards = shards;
  return cfg;
}

void write_json(const std::string& path, const std::vector<Metric>& metrics,
                std::uint32_t block_members, net::SeqNo packets,
                std::uint64_t seed, bool smoke, bool mem) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"schema\": \"cesrm-scale-bench/1\",\n";
  os << "  \"config\": {\"block_members\": " << block_members
     << ", \"packets\": " << packets << ", \"seed\": " << seed
     << ", \"smoke\": " << (smoke ? "true" : "false") << "},\n";
  if (mem)
    os << "  \"mem\": {\"peak_rss_bytes\": " << bench::peak_rss_json_value()
       << "},\n";
  os << "  \"metrics\": {\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << "    ";
    util::json_escape(os, m.name);
    os << ": {\"value\": ";
    util::json_double(os, m.value);
    os << ", \"unit\": ";
    util::json_escape(os, m.unit);
    os << ", \"better\": ";
    util::json_escape(os, m.better);
    os << "}" << (i + 1 < metrics.size() ? "," : "") << "\n";
  }
  os << "  }\n}\n";
  std::cerr << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ::cesrm;

  util::CliFlags flags(
      "Million-receiver scale benchmark (SoA receiver blocks, aggregated "
      "sessions, sharded engine); emits BENCH_scale.json for the CI scale "
      "gate");
  flags.add_string("out", "BENCH_scale.json", "output JSON path");
  flags.add_int("packets", 150, "data packets per run");
  flags.add_int("block-members", 100, "members per leaf block");
  flags.add_int("seed", 1, "scale-run seed (loss + topology streams)");
  flags.add_bool("smoke", false,
                 "CI mode: only the 10^3/10^4 populations (same "
                 "parameters, so metrics diff against the full baseline)");
  flags.add_bool("million", false, "also run the 10^6-receiver population");
  flags.add_bool("mem", false,
                 "emit a \"mem\" object (peak RSS) into the JSON artifact");
  flags.add_int("reps", 3,
                "repetitions for the sub-second populations (best-of wall "
                "timing; the 10^5+ runs always execute once)");
  if (!flags.parse(argc, argv)) return 1;

  const auto packets = static_cast<net::SeqNo>(flags.get_int("packets"));
  const auto block_members =
      static_cast<std::uint32_t>(flags.get_int("block-members"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const bool smoke = flags.get_bool("smoke");

  std::vector<std::uint64_t> pops{1000, 10000};
  if (!smoke) pops.push_back(100000);
  if (flags.get_bool("million")) pops.push_back(1000000);

  std::vector<Metric> metrics;
  const auto report = [&metrics](std::string name, double value,
                                 const char* unit, const char* better) {
    std::cout << name << ": " << util::fmt_fixed(value, 1) << " " << unit
              << "\n";
    metrics.push_back({std::move(name), value, unit, better});
  };

  const int reps = static_cast<int>(flags.get_int("reps"));
  // Best-of-N wall timing for the fast (sub-second) populations — robust
  // on a loaded host. The simulated outcomes are deterministic, so only
  // the timing differs between reps; the big populations run once.
  const auto run_best = [reps](const harness::ScaleConfig& cfg) {
    const int n = cfg.receivers <= 10000 ? std::max(1, reps) : 1;
    harness::ScaleResult best = harness::run_scale(cfg);
    for (int i = 1; i < n; ++i) {
      harness::ScaleResult r = harness::run_scale(cfg);
      if (r.wall_seconds < best.wall_seconds) best = r;
    }
    return best;
  };

  std::cout << "bench_scale — SoA receiver blocks, aggregated sessions\n";
  for (const Protocol protocol : {Protocol::kSrm, Protocol::kCesrm}) {
    for (const std::uint64_t pop : pops) {
      const auto r = run_best(
          config_for(protocol, pop, block_members, packets, seed, 1));
      if (r.outstanding != 0 || r.window_overflows != 0) {
        std::cerr << "scale run left losses unresolved: pop=" << pop
                  << " outstanding=" << r.outstanding
                  << " overflows=" << r.window_overflows << "\n";
        return 1;
      }
      const std::string key =
          std::string(protocol_name(protocol)) + "_pop" + std::to_string(pop);
      report(key + "_events_per_sec", r.events_per_second(), "events/s",
             "higher");
      report(key + "_wall", r.wall_seconds, "s", "lower");
      // Deterministic event-queue work: events scheduled, peak pending
      // events and peak heap entries (the rest wait in per-link lanes).
      report(key + "_events_scheduled",
             static_cast<double>(r.events_scheduled), "events", "lower");
      report(key + "_queue_high_water",
             static_cast<double>(r.queue_high_water), "events", "lower");
      report(key + "_heap_high_water",
             static_cast<double>(r.heap_high_water), "entries", "lower");
      report(key + "_bytes_per_receiver", r.bytes_per_receiver,
             "bytes/receiver", "lower");
      report(key + "_recovery_p99",
             static_cast<double>(r.recovery_p99_ns) / 1e6, "ms", "lower");
      // Session-traffic savings of the aggregated path: how many times
      // fewer link crossings than flat SRM's per-member floods would have
      // cost for the same rounds. Deterministic, so it diffs exactly.
      if (r.session_crossings > 0)
        report(key + "_session_savings",
               static_cast<double>(r.flat_session_crossings) /
                   static_cast<double>(r.session_crossings),
               "x", "higher");
    }
  }

  // Shard sweep at the middle population: on a multi-core host the
  // 2-shard run should outpace 1 shard; on one core, parity is the
  // expectation and the deterministic outputs are identical either way.
  double per_shard[3] = {0, 0, 0};
  for (const int shards : {1, 2}) {
    const auto r = run_best(
        config_for(Protocol::kCesrm, 10000, block_members, packets, seed,
                   shards));
    per_shard[shards] = r.events_per_second();
    report("cesrm_pop10000_shards" + std::to_string(shards) +
               "_events_per_sec",
           r.events_per_second(), "events/s", "higher");
  }
  if (per_shard[1] > 0)
    std::cout << "shard speedup (2 vs 1): "
              << util::fmt_fixed(per_shard[2] / per_shard[1], 2) << "x\n";

  write_json(flags.get_string("out"), metrics, block_members, packets, seed,
             smoke, flags.get_bool("mem"));
  return 0;
}
