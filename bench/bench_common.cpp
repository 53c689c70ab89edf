#include "bench_common.hpp"

#include <fstream>
#include <iostream>
#include <sstream>

#include "infer/link_estimator.hpp"
#include "util/proc.hpp"

namespace cesrm::bench {

void add_common_flags(util::CliFlags& flags,
                      const std::string& default_traces) {
  flags.add_string("traces", default_traces,
                   "comma-separated Table-1 trace ids (1-14) or 'all'");
  flags.add_int("packets-cap", 0,
                "cap packets per trace (0 = full trace; loss budget scales)");
  flags.add_int("link-delay-ms", 20, "one-way link delay (paper: 10/20/30)");
  flags.add_int("seed", 1, "experiment seed (timer jitter streams)");
  flags.add_bool("lossy-recovery", false,
                 "also drop recovery packets per estimated link rates");
  flags.add_int("jobs", 0,
                "parallel experiment workers (0 = hardware concurrency)");
  flags.add_string("json", "",
                   "also write machine-readable results to this file");
  flags.add_bool("wire-bytes", false,
                 "also report overhead in encoded wire bytes (v1 codec "
                 "frame sizes; bench_fig5_overhead)");
  flags.add_bool("mem", false,
                 "sample peak RSS (VmHWM) after the sweep and emit a "
                 "\"mem\" object into the --json artifact");
  flags.add_string("trace-out", "",
                   "write the protocol-event trace here (Chrome trace_event "
                   "JSON; JSONL when the path ends in .jsonl)");
  flags.add_string("metrics-out", "",
                   "write merged run metrics (counters/gauges/histograms) "
                   "here as JSON");
  flags.add_string("stream-out", "",
                   "write constant-memory streaming telemetry (latency "
                   "histograms, heavy-hitter links) here as JSON");
  flags.add_string("slo", "",
                   "comma-separated service-level assertions checked after "
                   "the sweep, e.g. recovery_p99<6.5,unrecovered<=0 "
                   "(metrics: recovery_{p50,p90,p99,mean,max} in RTT units, "
                   "unrecovered; exit 3 on failure)");
  flags.add_string("cache-policy", "recency",
                   std::string("CESRM cache replacement policy: ") +
                       cesrm::cache_policy_names());
  flags.add_string("durable", "off",
                   std::string("durable recovery state: ") +
                       durable::durable_mode_names());
  flags.add_string("log-level", "warn",
                   "log threshold: trace|debug|info|warn|error|off");
}

bool read_common_flags(const util::CliFlags& flags, BenchOptions* out) {
  const std::string traces = flags.get_string("traces");
  if (traces == "all") {
    for (int i = 1; i <= 14; ++i) out->trace_ids.push_back(i);
  } else {
    for (const auto& tok : util::split(traces, ',')) {
      const auto id = util::parse_int(tok);
      if (!id || *id < 1 || *id > 14) {
        std::cerr << "bad trace id: '" << tok << "'\n";
        return false;
      }
      out->trace_ids.push_back(static_cast<int>(*id));
    }
  }
  out->packets_cap = flags.get_int("packets-cap");
  out->link_delay_ms = static_cast<int>(flags.get_int("link-delay-ms"));
  out->seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::int64_t jobs = flags.get_int("jobs");
  if (jobs < 0) {
    std::cerr << "bad --jobs: " << jobs << " (want >= 0)\n";
    return false;
  }
  out->jobs = static_cast<unsigned>(jobs);
  out->json_path = flags.get_string("json");
  out->wire_bytes = flags.get_bool("wire-bytes");
  out->mem = flags.get_bool("mem");
  out->base.seed = out->seed;
  out->base.network.link_delay = sim::SimTime::millis(out->link_delay_ms);
  out->base.lossy_recovery = flags.get_bool("lossy-recovery");
  if (!harness::read_run_flags(flags, &out->base)) return false;
  const std::string trace_out = flags.get_string("trace-out");
  const std::string metrics_out = flags.get_string("metrics-out");
  const std::string stream_out = flags.get_string("stream-out");
  if (!trace_out.empty() || !metrics_out.empty() || !stream_out.empty()) {
    out->obs = std::make_shared<ObsAccumulator>();
    out->obs->trace_path = trace_out;
    out->obs->metrics_path = metrics_out;
    out->obs->stream_path = stream_out;
    out->base.observe.stream = !stream_out.empty();
  }
  const std::string slo = flags.get_string("slo");
  if (!slo.empty()) {
    auto gate = std::make_shared<SloGate>();
    if (!parse_slo(slo, &gate->specs)) return false;
    out->slo = std::move(gate);
  }
  return true;
}

bool parse_slo(const std::string& text, std::vector<SloSpec>* out) {
  for (const auto& tok : util::split(text, ',')) {
    SloSpec spec;
    spec.text = tok;
    std::size_t op = tok.find_first_of("<>");
    if (op == std::string::npos || op == 0) {
      std::cerr << "bad --slo assertion: '" << tok
                << "' (want metric<limit, metric<=limit, metric>limit, or "
                   "metric>=limit)\n";
      return false;
    }
    spec.metric = tok.substr(0, op);
    std::size_t value_at = op + 1;
    const bool or_equal = value_at < tok.size() && tok[value_at] == '=';
    if (or_equal) ++value_at;
    spec.cmp = tok[op] == '<' ? (or_equal ? SloSpec::Cmp::kLe : SloSpec::Cmp::kLt)
                              : (or_equal ? SloSpec::Cmp::kGe : SloSpec::Cmp::kGt);
    const auto limit = util::parse_double(tok.substr(value_at));
    if (!limit) {
      std::cerr << "bad --slo limit in '" << tok << "': '"
                << tok.substr(value_at) << "' is not a number\n";
      return false;
    }
    spec.limit = *limit;
    SloGate probe;
    double ignored = 0;
    if (!probe.value_of(spec.metric, &ignored)) {
      std::cerr << "bad --slo metric: '" << spec.metric
                << "' (valid: recovery_p50, recovery_p90, recovery_p99, "
                   "recovery_mean, recovery_max, unrecovered)\n";
      return false;
    }
    out->push_back(std::move(spec));
  }
  if (out->empty()) {
    std::cerr << "bad --slo: no assertions given\n";
    return false;
  }
  return true;
}

void SloGate::accumulate(const harness::ExperimentResult& result) {
  for (const auto& m : result.members) {
    if (m.is_source || m.rtt_to_source <= 0.0) continue;
    for (const auto& r : m.stats.recoveries) {
      if (r.recovered)
        normalized_latency.add(r.latency_seconds() / m.rtt_to_source);
      else
        ++unrecovered;
    }
  }
}

bool SloGate::value_of(const std::string& metric, double* out) const {
  const bool empty = normalized_latency.empty();
  if (metric == "recovery_p50")
    *out = empty ? 0.0 : normalized_latency.percentile(50.0);
  else if (metric == "recovery_p90")
    *out = empty ? 0.0 : normalized_latency.percentile(90.0);
  else if (metric == "recovery_p99")
    *out = empty ? 0.0 : normalized_latency.percentile(99.0);
  else if (metric == "recovery_mean")
    *out = empty ? 0.0 : normalized_latency.mean();
  else if (metric == "recovery_max")
    *out = empty ? 0.0 : normalized_latency.max();
  else if (metric == "unrecovered")
    *out = static_cast<double>(unrecovered);
  else
    return false;
  return true;
}

int slo_exit(const BenchOptions& opts) {
  if (!opts.slo) return 0;
  bool all_pass = true;
  for (const SloSpec& spec : opts.slo->specs) {
    double value = 0;
    opts.slo->value_of(spec.metric, &value);  // metric validated at parse
    bool pass = false;
    switch (spec.cmp) {
      case SloSpec::Cmp::kLt: pass = value < spec.limit; break;
      case SloSpec::Cmp::kLe: pass = value <= spec.limit; break;
      case SloSpec::Cmp::kGt: pass = value > spec.limit; break;
      case SloSpec::Cmp::kGe: pass = value >= spec.limit; break;
    }
    all_pass = all_pass && pass;
    std::cout << "SLO " << spec.text << ": " << (pass ? "PASS" : "FAIL")
              << " (" << util::fmt_fixed(value, 4) << ")\n";
  }
  return all_pass ? 0 : 3;
}

trace::TraceSpec capped_spec(const trace::TraceSpec& spec,
                             net::SeqNo packets_cap) {
  if (packets_cap <= 0 || packets_cap >= spec.packets) return spec;
  trace::TraceSpec scaled = spec;
  const double scale = static_cast<double>(packets_cap) /
                       static_cast<double>(spec.packets);
  scaled.packets = packets_cap;
  scaled.losses = static_cast<std::int64_t>(
      static_cast<double>(spec.losses) * scale);
  return scaled;
}

std::vector<trace::TraceSpec> selected_specs(const BenchOptions& opts) {
  std::vector<trace::TraceSpec> specs;
  specs.reserve(opts.trace_ids.size());
  for (int id : opts.trace_ids)
    specs.push_back(capped_spec(trace::table1_spec(id), opts.packets_cap));
  return specs;
}

harness::ExperimentRunner make_runner(const BenchOptions& opts) {
  harness::RunnerOptions runner_opts;
  runner_opts.jobs = opts.jobs;
  // Progress goes to stderr so stdout is byte-identical for any --jobs.
  runner_opts.on_progress = [](const harness::JobOutcome& outcome,
                               std::size_t done, std::size_t total) {
    std::cerr << "[" << done << "/" << total << "] "
              << protocol_name(outcome.protocol) << " "
              << outcome.result.trace_name;
    if (!outcome.label.empty()) std::cerr << " (" << outcome.label << ")";
    std::cerr << ": " << util::fmt_fixed(outcome.wall_seconds, 1) << "s\n";
  };
  return harness::ExperimentRunner(std::move(runner_opts));
}

std::vector<harness::JobOutcome> run_jobs(
    std::vector<harness::ExperimentJob> jobs, const BenchOptions& opts,
    harness::JsonResultSink* sink) {
  harness::ExperimentRunner runner = make_runner(opts);
  auto outcomes = runner.run(std::move(jobs));
  if (sink != nullptr)
    for (const auto& outcome : outcomes)
      sink->add(outcome.result, outcome.wall_seconds, outcome.label);
  if (opts.obs) {
    // Outcomes come back in job order, so accumulation — and therefore the
    // artifact files — are byte-identical for any --jobs value.
    for (const auto& outcome : outcomes) {
      std::string name = outcome.result.trace_name;
      name += '/';
      name += protocol_name(outcome.protocol);
      if (!outcome.label.empty()) {
        name += '/';
        name += outcome.label;
      }
      if (outcome.result.events)
        opts.obs->captures.push_back({std::move(name), outcome.result.events});
      opts.obs->metrics.merge(outcome.result.metrics);
      if (outcome.result.sketch) opts.obs->sketch.merge(*outcome.result.sketch);
    }
    write_obs_artifacts(*opts.obs);
  }
  if (opts.slo)
    for (const auto& outcome : outcomes) opts.slo->accumulate(outcome.result);
  return outcomes;
}

std::vector<TraceRun> run_traces(const BenchOptions& opts,
                                 harness::JsonResultSink* sink) {
  const auto specs = selected_specs(opts);
  std::vector<harness::ExperimentJob> jobs;
  jobs.reserve(specs.size() * 2);
  for (const auto& spec : specs) {
    for (const Protocol protocol : {Protocol::kSrm, Protocol::kCesrm}) {
      harness::ExperimentJob job;
      job.spec = spec;
      job.protocol = protocol;
      job.config = opts.base;
      jobs.push_back(std::move(job));
    }
  }
  auto outcomes = run_jobs(std::move(jobs), opts, sink);
  std::vector<TraceRun> runs;
  runs.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    TraceRun run;
    run.spec = specs[i];
    run.trace = outcomes[2 * i].trace;
    run.srm = std::move(outcomes[2 * i].result);
    run.cesrm = std::move(outcomes[2 * i + 1].result);
    runs.push_back(std::move(run));
  }
  return runs;
}

void print_header(const std::string& what, const BenchOptions& opts) {
  std::cout << "=== " << what << " ===\n"
            << "Reproduction of: Livadas & Keidar, \"Caching-Enhanced "
               "Scalable Reliable Multicast\", DSN 2004\n"
            << "traces:";
  for (int id : opts.trace_ids) std::cout << ' ' << id;
  std::cout << "  link delay: " << opts.link_delay_ms << " ms";
  if (opts.packets_cap > 0)
    std::cout << "  packets capped at " << opts.packets_cap;
  if (opts.base.lossy_recovery) std::cout << "  (lossy recovery)";
  std::cout << "\n\n";
}

std::string peak_rss_json_value() {
  if (const auto rss = util::peak_rss_bytes()) return std::to_string(*rss);
  std::cerr << "warning: peak RSS unavailable (/proc/self/status has no "
               "VmHWM on this platform); --mem emits null\n";
  return "null";
}

void write_json(const BenchOptions& opts,
                const harness::JsonResultSink& sink) {
  if (opts.json_path.empty()) return;
  if (!opts.mem) {
    if (sink.write_file(opts.json_path)) {
      std::cerr << "wrote " << sink.size() << " results to " << opts.json_path
                << "\n";
    } else {
      std::cerr << "error: could not write " << opts.json_path << "\n";
    }
    return;
  }
  // --mem: splice a "mem" object in front of the document's closing brace
  // so the artifact stays one JSON value.
  std::string doc = sink.document();
  const std::size_t close = doc.rfind('}');
  if (close != std::string::npos) {
    std::string mem = ",\"mem\":{\"peak_rss_bytes\":";
    mem += peak_rss_json_value();
    mem += "}";
    doc.insert(close, mem);
  }
  std::ofstream out(opts.json_path);
  if (out && (out << doc)) {
    std::cerr << "wrote " << sink.size() << " results to " << opts.json_path
              << " (with mem)\n";
  } else {
    std::cerr << "error: could not write " << opts.json_path << "\n";
  }
}

void write_obs_artifacts(const ObsAccumulator& acc) {
  if (!acc.trace_path.empty()) {
    std::ofstream out(acc.trace_path);
    if (!out) {
      std::cerr << "error: could not write " << acc.trace_path << "\n";
    } else if (acc.trace_path.ends_with(".jsonl")) {
      for (const auto& capture : acc.captures)
        obs::write_events_jsonl(out, *capture.events);
    } else {
      std::vector<obs::ChromeTraceJob> trace_jobs;
      trace_jobs.reserve(acc.captures.size());
      for (const auto& capture : acc.captures)
        trace_jobs.push_back({capture.name, *capture.events});
      obs::write_chrome_trace(out, trace_jobs);
    }
  }
  if (!acc.metrics_path.empty()) {
    std::ofstream out(acc.metrics_path);
    if (!out) {
      std::cerr << "error: could not write " << acc.metrics_path << "\n";
    } else {
      acc.metrics.to_json(out);
      out << "\n";
    }
  }
  if (!acc.stream_path.empty()) {
    std::ofstream out(acc.stream_path);
    if (!out) {
      std::cerr << "error: could not write " << acc.stream_path << "\n";
    } else {
      acc.sketch.to_json(out);
      out << "\n";
    }
  }
}

}  // namespace cesrm::bench
