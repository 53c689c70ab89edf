// perfbench — runs one workload of the repo benchmark and prints a
// human-readable report followed, on the last line, by one JSON object
// with the result (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--artifacts DIR]
//   perfbench --selftest

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

int run_selftest();

namespace {

/// Set-ups timed per run; the median is reported as setup_s.
constexpr int kSetupRepeats = 9;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string artifacts = ".bench_build/perfbench-artifacts";
};

std::string json_strings(const std::vector<std::string>& v) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out << ",";
    cesrm::util::json_escape(out, v[i]);
  }
  out << "]";
  return out.str();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

bool parse_args(int argc, char** argv, Options* o, bool* selftest) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--selftest") {
      *selftest = true;
    } else if (a == "--workload" && value(&v)) {
      o->workload = v;
    } else if (a == "--seed" && value(&v)) {
      o->seed = std::stoull(v);
    } else if (a == "--seconds" && value(&v)) {
      o->seconds = std::stod(v);
    } else if (a == "--trace" && value(&v)) {
      o->trace = v == "1";
    } else if (a == "--artifacts" && value(&v)) {
      o->artifacts = v;
    } else {
      std::cerr << "perfbench: bad argument '" << a << "'\n";
      return false;
    }
  }
  return true;
}

std::string metrics_json(const Metrics& m) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out << ",";
    first = false;
    cesrm::util::json_escape(out, name);
    out << ":{\"value\":";
    cesrm::util::json_double(out, metric.value);
    out << ",\"unit\":";
    cesrm::util::json_escape(out, metric.unit);
    out << "}";
  }
  out << "}";
  return out.str();
}

void print_metrics(const char* title, const Metrics& m) {
  std::cout << title << "\n";
  for (const auto& [name, metric] : m) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", metric.value);
    const std::size_t pad = name.size() < 34 ? 34 - name.size() : 1;
    std::cout << "  " << name << std::string(pad, ' ') << buf << " "
              << metric.unit << "\n";
  }
}

int run_benchmark(const Options& o) {
  auto workload = make_workload(o.workload, o.seed);
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << o.workload
              << "' (valid:";
    for (const auto& name : workload_names()) std::cerr << " " << name;
    std::cerr << ")\n";
    return 2;
  }
  if (!optimized_build())
    std::cerr << "perfbench: WARNING: built without optimisation ("
              << PERFBENCH_BUILD_TYPE << "); timings are not representative\n";

  const auto run_id = static_cast<std::uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count());
  std::unique_ptr<SpanRecorder> spans;
  if (o.trace) spans = std::make_unique<SpanRecorder>(run_id);
  std::vector<std::string> notes;
  std::vector<std::string> checks;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto absorb = [&](const Rep& r) {
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    checks.insert(checks.end(), r.check_failures.begin(),
                  r.check_failures.end());
  };

  // Timed set-ups run without layer spans; the traced run records one
  // set-up of its own below.
  cesrm::util::Sample setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    SpanRecorder::Scope s(spans.get(), "bench.setup");
    setup_s.add(workload->setup(nullptr));
  }

  // Untraced repetitions until the budget is spent (half of it when a
  // traced rep follows); another rep starts only if it should fit.
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  std::vector<Rep> reps;
  cesrm::util::Sample rep_wall;
  const auto m0 = std::chrono::steady_clock::now();
  do {
    const auto t0 = std::chrono::steady_clock::now();
    SpanRecorder::Scope s(spans.get(), "bench.rep");
    reps.push_back(workload->run(nullptr, false));
    rep_wall.add(seconds_since(t0));
    absorb(reps.back());
  } while (seconds_since(m0) + rep_wall.median() <= budget);

  cesrm::util::Sample run_s, cpu_s;
  for (const auto& r : reps) {
    run_s.add(r.run_s);
    cpu_s.add(r.cpu_s);
    if (!(r.digest == reps.front().digest))
      checks.push_back("digest_stable_across_reps");
  }
  const auto listing = [](const char* title, const cesrm::util::Sample& s) {
    std::string out = title;
    for (double v : s.values()) {
      out += ' ';
      out += std::to_string(v);
    }
    return out;
  };
  notes.push_back(listing("run_s per rep:", run_s));
  notes.push_back(listing("setup_s samples:", setup_s));
  Metrics e2e;
  e2e["setup_s"] = {setup_s.median(), "s"};
  e2e["run_s"] = {run_s.median(), "s"};
  e2e["cpu_s"] = {cpu_s.median(), "s"};
  e2e["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
  workload->end_to_end(&e2e, &notes);

  Metrics layer;
  if (o.trace) {
    // The traced run: one set-up and one rep, both with layer spans.
    {
      SpanRecorder::Scope s(spans.get(), "bench.traced_setup");
      workload->setup(spans.get());
    }
    Rep traced;
    {
      SpanRecorder::Scope s(spans.get(), "bench.traced_rep");
      traced = workload->run(spans.get(), true);
    }
    absorb(traced);
    if (!(traced.digest == reps.front().digest))
      checks.push_back("digest_traced_equals_untraced");
    for (const auto& [name, unit] : per_layer_catalog())
      layer[name] = {0.0, unit};
    {
      SpanRecorder::Scope s(spans.get(), "bench.per_layer");
      workload->per_layer(&layer, *spans, &notes, &errors);
    }
    layer["obs.trace_overhead_pct"].value =
        pct_of(traced.run_s - run_s.median(), run_s.median());
    layer["unrecovered_frac"].value =
        attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                  : 0.0;
    const auto self = spans->self_seconds_by_layer();
    std::cout << "self time by layer (traced run):\n";
    for (const auto& [name, secs] : self) {
      std::printf("  %-10s %10.4f s\n", name.c_str(), secs);
      const auto it = layer.find("self_s." + name);
      if (it != layer.end()) it->second.value = secs;
    }
    // The spans (Perfetto) and the per-layer table with each layer's self
    // time and the tracing overhead.
    std::filesystem::create_directories(o.artifacts);
    const std::string stem = o.artifacts + "/" + o.workload + "-seed" +
                             std::to_string(o.seed);
    std::ofstream spans_out(stem + "-spans.json");
    spans->write_chrome_trace(spans_out);
    std::ofstream layers_out(stem + "-layers.json");
    layers_out << metrics_json(layer) << "\n";
    notes.push_back("artifacts: " + stem + "-{spans,layers}.json");
    notes.push_back("peak RSS including the traced rep: " +
                    std::to_string(peak_rss_mib()) + " MiB");
    notes.push_back("tracing overhead: traced run_s " +
                    std::to_string(traced.run_s) + " s vs untraced " +
                    std::to_string(run_s.median()) + " s");
  }

  const bool correct =
      checks.empty() && errors.empty() && failed == 0 && attempted > 0;
  std::cout << "workload " << o.workload << " seed " << o.seed << ": "
            << reps.size() << " rep(s), " << attempted << " losses, "
            << failed << " unrecovered\n";
  std::cout << "digest " << reps.front().digest.hex() << " ("
            << reps.front().digest.fields().size() << " counters)\n";
  print_metrics("end-to-end:", e2e);
  if (o.trace) print_metrics("per-layer:", layer);
  for (const auto& n : notes) std::cout << "note: " << n << "\n";
  for (const auto& c : checks) std::cout << "CHECK FAILED: " << c << "\n";
  for (const auto& e : errors) std::cout << "ERROR: " << e << "\n";

  std::ostringstream js;
  js << "{\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"metrics\":" << metrics_json(o.trace ? layer : e2e)
     << ",\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
     << ",\"reps\":" << reps.size() << ",\"digest\":\""
     << reps.front().digest.hex() << "\",\"checks_failed\":"
     << json_strings(checks) << ",\"errors\":" << json_strings(errors)
     << ",\"notes\":" << json_strings(notes) << ",\"host\":{\"nproc\":"
     << std::thread::hardware_concurrency() << ",\"cpu\":";
  cesrm::util::json_escape(js, cpu_model());
  js << ",\"compiler\":";
  cesrm::util::json_escape(js, __VERSION__);
  js << ",\"build_type\":";
  cesrm::util::json_escape(js, PERFBENCH_BUILD_TYPE);
  js << ",\"optimized\":" << (optimized_build() ? "true" : "false") << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool selftest = false;
  try {
    if (!perfbench::parse_args(argc, argv, &opts, &selftest)) return 2;
    if (selftest) return perfbench::run_selftest();
    return perfbench::run_benchmark(opts);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
