// bench_simcore — the simulator-core performance baseline.
//
// Times the three hot layers the Table-1 sweeps live on: the event queue
// (schedule/pop throughput and the SRM-style cancel-heavy churn), the
// multicast flood path in net::Network (one flood at a time, and a
// backlog of thousands injected at once), and an end-to-end capped Table-1
// sweep through the ExperimentRunner at --jobs=1 and --jobs=N. Writes the
// measurements to --out as JSON (schema "cesrm-simcore-bench/1"); the
// copy committed at the repo root (BENCH_simcore.json) is the baseline
// the CI perf-smoke job compares against (>25% wall-time regression on
// any metric fails the job — see .github/workflows/faults.yml).
//
// Unlike every other bench binary, stdout here is wall-clock timing and
// is NOT expected to be byte-identical between runs; the determinism
// contract covers simulation outputs, not host timings.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "net/network.hpp"
#include "net/topology_builder.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace cesrm;

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` throughput (items/sec) of `body`, which processes
/// `items` items per call. Best-of is robust against interference from a
/// loaded host, which a mean is not.
template <typename Body>
double best_throughput(int reps, std::uint64_t items, Body&& body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = wall_seconds();
    body();
    const double dt = wall_seconds() - t0;
    if (dt > 0.0) best = std::max(best, static_cast<double>(items) / dt);
  }
  return best;
}

double bench_schedule_pop(int reps) {
  constexpr std::size_t kEvents = 16384;
  util::Rng rng(1);
  std::vector<sim::SimTime> times;
  times.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i)
    times.push_back(sim::SimTime::nanos(rng.uniform_int(0, 1000000)));
  return best_throughput(reps, kEvents, [&] {
    sim::EventQueue q;
    for (std::size_t i = 0; i < kEvents; ++i) q.schedule(times[i], [] {});
    sim::SimTime when;
    sim::EventQueue::Callback cb;
    sim::EventId id;
    while (q.pop(when, cb, id)) {
    }
  });
}

double bench_cancel_churn(int reps) {
  // SRM suppression cancels most timers; this is the dominant real
  // workload shape (schedule, cancel half, drain the rest).
  constexpr std::size_t kEvents = 16384;
  std::vector<sim::EventId> ids(kEvents);
  return best_throughput(reps, kEvents, [&] {
    sim::EventQueue q;
    for (std::size_t i = 0; i < kEvents; ++i)
      ids[i] = q.schedule(sim::SimTime::nanos(static_cast<std::int64_t>(i)),
                          [] {});
    for (std::size_t i = 0; i < kEvents; i += 2) q.cancel(ids[i]);
    sim::SimTime when;
    sim::EventQueue::Callback cb;
    sim::EventId id;
    while (q.pop(when, cb, id)) {
    }
  });
}

double bench_timer_churn(int reps) {
  // Re-arm/fire cycles through sim::Timer — the request/reply back-off
  // machinery's view of the event core.
  constexpr int kTimers = 64;
  constexpr int kRounds = 512;
  return best_throughput(
      reps, static_cast<std::uint64_t>(kTimers) * kRounds, [&] {
        sim::Simulator sim;
        std::vector<std::unique_ptr<sim::Timer>> timers;
        timers.reserve(kTimers);
        int fired = 0;
        for (int i = 0; i < kTimers; ++i)
          timers.push_back(
              std::make_unique<sim::Timer>(sim, [&fired] { ++fired; }));
        for (int round = 0; round < kRounds; ++round) {
          for (int i = 0; i < kTimers; ++i)
            timers[static_cast<std::size_t>(i)]->arm(
                sim::SimTime::micros(1 + (round + i) % 7));
          // Half re-arm (cancelling the pending expiry), half fire.
          for (int i = 0; i < kTimers; i += 2)
            timers[static_cast<std::size_t>(i)]->arm(
                sim::SimTime::micros(3));
          sim.run();
        }
      });
}

double bench_multicast_flood(int reps) {
  util::Rng rng(7);
  net::TreeShape shape;
  shape.receivers = 64;
  shape.depth = 8;
  const auto tree = net::build_random_tree(shape, rng);
  sim::ShardedEngine engine(tree.size());
  sim::Simulator& sim = engine.sim(0);
  net::Network network(engine, tree, {});
  constexpr int kFloods = 256;
  return best_throughput(
      reps, static_cast<std::uint64_t>(kFloods) * tree.link_count(), [&] {
        for (int f = 0; f < kFloods; ++f) {
          network.multicast(tree.root(), net::make_data_packet(tree.root(), 0));
          sim.run();
        }
      });
}

double bench_flood_backlog(int reps) {
  // The request-storm shape at scale: thousands of floods injected at one
  // instant queue behind each other on every link, so the event core
  // holds a deep backlog instead of one flood's wavefront. Same tree as
  // multicast_flood.
  util::Rng rng(7);
  net::TreeShape shape;
  shape.receivers = 64;
  shape.depth = 8;
  const auto tree = net::build_random_tree(shape, rng);
  constexpr int kFloods = 4096;
  return best_throughput(
      reps, static_cast<std::uint64_t>(kFloods) * tree.link_count(), [&] {
        sim::ShardedEngine engine(tree.size());
        net::Network network(engine, tree, {});
        for (int f = 0; f < kFloods; ++f)
          network.multicast(tree.root(), net::make_data_packet(tree.root(), f));
        engine.sim(0).run();
      });
}

double bench_table1_sweep(const bench::BenchOptions& opts, unsigned jobs) {
  bench::BenchOptions run_opts = opts;
  run_opts.jobs = jobs;
  const double t0 = wall_seconds();
  bench::run_traces(run_opts);
  return wall_seconds() - t0;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
  /// "higher" = throughput (regression is a drop); "lower" = wall time.
  const char* better;
};

void write_json(const std::string& path, const std::vector<Metric>& metrics,
                net::SeqNo cap, unsigned jobs_n, int reps) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"schema\": \"cesrm-simcore-bench/1\",\n";
  os << "  \"config\": {\"table1_packets_cap\": " << cap
     << ", \"table1_jobs_n\": " << jobs_n << ", \"reps\": " << reps
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
      "Simulator-core performance baseline (event queue, flood, Table-1 "
      "sweep); emits BENCH_simcore.json for the CI perf-smoke gate");
  flags.add_string("out", "BENCH_simcore.json", "output JSON path");
  flags.add_int("reps", 5, "repetitions per micro measurement (best-of)");
  flags.add_int("table1-cap", 2000,
                "packets per trace for the Table-1 sweep (0 = full traces)");
  flags.add_int("jobs-n", 0,
                "worker count for the parallel sweep (0 = hardware)");
  flags.add_bool("skip-table1", false,
                 "measure only the event-core micro stages");
  if (!flags.parse(argc, argv)) return 1;

  const int reps = static_cast<int>(flags.get_int("reps"));
  const auto cap = static_cast<net::SeqNo>(flags.get_int("table1-cap"));
  unsigned jobs_n = static_cast<unsigned>(flags.get_int("jobs-n"));
  if (jobs_n == 0) jobs_n = std::max(1u, std::thread::hardware_concurrency());

  bench::BenchOptions opts;
  for (const auto& spec : trace::table1_specs()) opts.trace_ids.push_back(spec.id);
  opts.packets_cap = cap;

  std::vector<Metric> metrics;
  const auto report = [&metrics](const char* name, double value,
                                 const char* unit, const char* better) {
    metrics.push_back({name, value, unit, better});
    std::cout << name << ": " << util::fmt_fixed(value, 1) << " " << unit
              << "\n";
  };

  report("event_queue_schedule_pop", bench_schedule_pop(reps), "events/s",
         "higher");
  report("event_queue_cancel_churn", bench_cancel_churn(reps), "events/s",
         "higher");
  report("timer_churn", bench_timer_churn(reps), "arms/s", "higher");
  report("multicast_flood", bench_multicast_flood(reps), "hops/s", "higher");
  report("flood_backlog", bench_flood_backlog(reps), "hops/s", "higher");
  if (!flags.get_bool("skip-table1")) {
    report("table1_sweep_jobs1", bench_table1_sweep(opts, 1), "s", "lower");
    report("table1_sweep_jobsN", bench_table1_sweep(opts, jobs_n), "s",
           "lower");
  }

  write_json(flags.get_string("out"), metrics, cap, jobs_n, reps);
  return 0;
}
