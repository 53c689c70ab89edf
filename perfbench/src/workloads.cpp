#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <exception>
#include <functional>
#include <map>
#include <ostream>
#include <streambuf>

#include "durable/store.hpp"
#include "fault/fault_plan.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "harness/scale.hpp"
#include "infer/link_estimator.hpp"
#include "infer/link_trace.hpp"
#include "net/packet.hpp"
#include "net/topology_builder.hpp"
#include "netio/clock.hpp"
#include "netio/reactor.hpp"
#include "netio/run.hpp"
#include "netio/shim.hpp"
#include "netio/transport.hpp"
#include "obs/causal.hpp"
#include "obs/export.hpp"
#include "trace/catalog.hpp"
#include "trace/trace_generator.hpp"
#include "util/stats.hpp"
#include "wire/codec.hpp"
#include "compare.hpp"

namespace perfbench {

namespace {

using namespace cesrm;
using Clock = std::chrono::steady_clock;
using PT = net::PacketType;

/// Load comes from this process on at most this many threads (the
/// runner's workers, the engine's shards, the loopback group's members).
constexpr unsigned kWorkers = 4;

std::string error_text(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

void put(Metrics* out, const std::string& name, double value,
         const std::string& unit) {
  (*out)[name] = Metric{value, unit};
}

double ratio(double part, double base) {
  return base != 0.0 ? part / base : 0.0;
}

/// Mean causal phase durations over every recovered loss of the given
/// runs, in ms, keyed by phase name.
std::map<std::string, double> mean_phases_ms(
    const std::vector<const std::vector<obs::TraceEvent>*>& streams,
    SpanRecorder& spans, std::uint64_t* events_recorded) {
  std::array<double, obs::kPhaseCount> sum_ns{};
  std::uint64_t chains = 0;
  for (const auto* events : streams) {
    if (!events) continue;
    *events_recorded += events->size();
    SpanRecorder::Scope s(&spans, "obs.analyze_causal");
    const obs::CausalReport report = obs::analyze_causal(*events);
    for (const auto& c : report.chains) {
      for (std::size_t p = 0; p < obs::kPhaseCount; ++p)
        sum_ns[p] += static_cast<double>(c.phase_ns[p]);
      ++chains;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p)
    out[obs::phase_name(static_cast<obs::Phase>(p))] =
        chains ? sum_ns[p] / static_cast<double>(chains) / 1e6 : 0.0;
  return out;
}

/// Times the Chrome trace export of the captured protocol events into a
/// sink that only counts bytes (the event documents of a full sweep run
/// to hundreds of MB; the cost of producing them is what is measured).
std::uint64_t export_events(const std::vector<obs::ChromeTraceJob>& jobs,
                            SpanRecorder& spans) {
  struct CountingBuf : std::streambuf {
    std::uint64_t n = 0;
    int_type overflow(int_type c) override {
      ++n;
      return c;
    }
    std::streamsize xsputn(const char*, std::streamsize k) override {
      n += static_cast<std::uint64_t>(k);
      return k;
    }
  } buf;
  std::ostream os(&buf);
  SpanRecorder::Scope s(&spans, "obs.write_chrome_trace");
  obs::write_chrome_trace(os, jobs);
  return buf.n;
}

void put_srm_layer(Metrics* out, const std::string& prefix,
                   const std::map<std::string, double>& phases,
                   const std::vector<std::string>& names) {
  for (const auto& n : names) {
    const auto it = phases.find(n);
    put(out, prefix + n + "_ms", it == phases.end() ? 0.0 : it->second, "ms");
  }
}

void add_host(srm::HostStats* into, const srm::HostStats& h) {
  into->requests_sent += h.requests_sent;
  into->replies_sent += h.replies_sent;
  into->exp_requests_sent += h.exp_requests_sent;
  into->exp_replies_sent += h.exp_replies_sent;
  into->duplicate_replies_received += h.duplicate_replies_received;
  into->losses_detected += h.losses_detected;
  into->cache_hits += h.cache_hits;
  into->cache_misses += h.cache_misses;
}

void put_net_layer(Metrics* out, const net::CrossingStats& x) {
  put(out, "net.crossings.data", static_cast<double>(x.total_of(PT::kData)),
      "count");
  put(out, "net.crossings.session",
      static_cast<double>(x.total_of(PT::kSession)), "count");
  put(out, "net.crossings.request",
      static_cast<double>(x.total_of(PT::kRequest)), "count");
  put(out, "net.crossings.reply",
      static_cast<double>(x.total_of(PT::kReply)), "count");
  put(out, "net.crossings.exp",
      static_cast<double>(x.total_of(PT::kExpRequest) +
                          x.total_of(PT::kExpReply)),
      "count");
  std::uint64_t dropped = 0, bytes = 0;
  for (std::size_t t = 0; t < net::kPacketTypeCount; ++t) {
    dropped += x.dropped[t];
    bytes += x.wire_bytes[t];
  }
  put(out, "net.dropped", static_cast<double>(dropped), "count");
  put(out, "net.wire_bytes", static_cast<double>(bytes), "bytes");
}

/// srm.* and cesrm.* per-loss rates from summed host statistics.
void put_host_layers(Metrics* out, const srm::HostStats& s,
                     const srm::HostStats& c) {
  const double sl = static_cast<double>(s.losses_detected);
  put(out, "srm.requests_per_loss",
      ratio(static_cast<double>(s.requests_sent), sl), "ratio");
  put(out, "srm.replies_per_loss",
      ratio(static_cast<double>(s.replies_sent), sl), "ratio");
  put(out, "srm.dup_replies_per_loss",
      ratio(static_cast<double>(s.duplicate_replies_received), sl), "ratio");
  put(out, "cesrm.cache_hit_ratio",
      ratio(static_cast<double>(c.cache_hits),
            static_cast<double>(c.cache_hits + c.cache_misses)),
      "ratio");
  // Figure 5's expedited success: expedited replies per expedited request.
  put(out, "cesrm.exp_success_ratio",
      ratio(static_cast<double>(c.exp_replies_sent),
            static_cast<double>(c.exp_requests_sent)),
      "ratio");
  put(out, "cesrm.exp_requests_per_loss",
      ratio(static_cast<double>(c.exp_requests_sent),
            static_cast<double>(c.losses_detected)),
      "ratio");
}

/// Codec cost per frame (wire.encode_ns, wire.decode_ns) on sample frames
/// in the packet-type mix a run sent, and the mean encoded frame size
/// (wire.bytes_per_datagram; from the run's own wire-byte counts when it
/// has them).
void put_wire(Metrics* out, const net::CrossingStats& x, SpanRecorder& spans,
              std::vector<std::string>* notes) {
  std::vector<net::Packet> mix;
  net::RecoveryAnnotation ann;
  ann.requestor = 2;
  ann.dist_requestor_source = 0.01;
  ann.replier = 4;
  ann.dist_replier_requestor = 0.02;
  auto payload = std::make_shared<net::SessionPayload>();
  payload->stamp = sim::SimTime::millis(1234);
  payload->streams.push_back({0, 999});
  for (net::NodeId peer : {0, 2, 3, 4})
    payload->echoes.push_back({peer, sim::SimTime::millis(1000),
                               sim::SimTime::micros(250)});
  const auto sample = [&](PT t, net::SeqNo seq) {
    switch (t) {
      case PT::kData: return net::make_data_packet(0, seq);
      case PT::kSession: return net::make_session_packet(2, 0, payload);
      case PT::kRequest: return net::make_request_packet(2, 0, seq, 0.01);
      case PT::kReply: return net::make_reply_packet(4, 0, seq, ann);
      case PT::kExpRequest:
        return net::make_exp_request_packet(2, 4, 0, seq, ann);
      case PT::kExpReply: return net::make_exp_reply_packet(4, 0, seq, ann);
    }
    return net::make_data_packet(0, seq);
  };
  std::uint64_t datagrams = 0, bytes = 0;
  for (std::size_t t = 0; t < net::kPacketTypeCount; ++t) {
    datagrams += x.total_of(static_cast<PT>(t));
    bytes += x.wire_bytes[t];
  }
  if (datagrams == 0) return;
  // At most kMixFrames sample frames, split by the run's type shares (at
  // least one frame of every type it sent).
  constexpr double kMixFrames = 4096;
  for (std::size_t t = 0; t < net::kPacketTypeCount; ++t) {
    const std::uint64_t sent = x.total_of(static_cast<PT>(t));
    if (sent == 0) continue;
    const auto n = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(kMixFrames * static_cast<double>(sent) /
                                      static_cast<double>(datagrams)));
    for (std::uint64_t i = 0; i < n; ++i)
      mix.push_back(sample(static_cast<PT>(t), static_cast<net::SeqNo>(i)));
  }
  constexpr int kRounds = 200;
  std::vector<std::vector<std::uint8_t>> frames(mix.size());
  const auto t0 = Clock::now();
  {
    SpanRecorder::Scope s(&spans, "wire.encode_packet");
    for (int round = 0; round < kRounds; ++round)
      for (std::size_t i = 0; i < mix.size(); ++i) {
        frames[i].clear();
        wire::encode_packet(mix[i], &frames[i]);
      }
  }
  const double enc_s = seconds_since(t0);
  std::size_t mismatches = 0;
  const auto t1 = Clock::now();
  {
    SpanRecorder::Scope s(&spans, "wire.decode_packet");
    net::Packet pkt;
    for (int round = 0; round < kRounds; ++round)
      for (std::size_t i = 0; i < frames.size(); ++i)
        if (wire::decode_packet_exact(frames[i], &pkt) || !(pkt == mix[i]))
          ++mismatches;
  }
  const double dec_s = seconds_since(t1);
  const double n = static_cast<double>(mix.size()) * kRounds;
  put(out, "wire.encode_ns", enc_s * 1e9 / n, "ns");
  put(out, "wire.decode_ns", dec_s * 1e9 / n, "ns");
  std::uint64_t mix_bytes = 0;
  for (const auto& f : frames) mix_bytes += f.size();
  put(out, "wire.bytes_per_datagram",
      bytes ? ratio(static_cast<double>(bytes), static_cast<double>(datagrams))
            : ratio(static_cast<double>(mix_bytes),
                    static_cast<double>(frames.size())),
      "bytes");
  notes->push_back("wire: " + std::to_string(mix.size()) +
                   " sample frames x " + std::to_string(kRounds) +
                   " rounds, " + std::to_string(mismatches) +
                   " round-trip mismatches");
}

// ---------------------------------------------------------------------------
// table1_sweep and churn_warm: full agents on Table-1 traces through the
// parallel ExperimentRunner.

struct SweepShape {
  std::vector<int> trace_ids;
  net::SeqNo packets_cap = 0;
  bool crash_recover = false;  ///< fault::crash_recover_plan + warm journal
  /// Jitter seeds per trace and protocol (derived from the workload seed),
  /// pooled into one result.
  int jitter_seeds = 1;
  /// ExperimentRunner workers.
  unsigned workers = kWorkers;
};

struct PreparedSpec {
  trace::TraceSpec spec;
  std::shared_ptr<const trace::LossTrace> loss;
  std::shared_ptr<const infer::LinkTraceRepresentation> links;
};

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(SweepShape shape, std::uint64_t seed)
      : shape_(std::move(shape)), seed_(seed) {
    for (int id : shape_.trace_ids) {
      trace::TraceSpec spec = trace::table1_spec(id);
      if (shape_.packets_cap > 0 && shape_.packets_cap < spec.packets) {
        // Same capping rule as the bench binaries (bench_common).
        spec.losses = static_cast<std::int64_t>(
            static_cast<double>(spec.losses) *
            static_cast<double>(shape_.packets_cap) /
            static_cast<double>(spec.packets));
        spec.packets = shape_.packets_cap;
      }
      specs_.push_back(spec);
    }
  }

  // Serial, so that set-up time does not depend on how busy the other
  // cores are.
  double setup(SpanRecorder* spans) override {
    const auto t_setup = Clock::now();
    std::vector<PreparedSpec> prepared;
    double gen_s = 0.0;
    double infer_s = 0.0;
    for (const auto& spec : specs_) {
      PreparedSpec p;
      p.spec = spec;
      auto t0 = Clock::now();
      trace::GeneratedTrace gen;
      {
        SpanRecorder::Scope s(spans, "trace.generate_trace");
        gen = trace::generate_trace(spec);
      }
      gen_s += seconds_since(t0);
      t0 = Clock::now();
      {
        SpanRecorder::Scope s(spans, "infer.estimate_links");
        auto rates = infer::estimate_links_yajnik(*gen.loss).loss_rate;
        p.links = std::make_shared<const infer::LinkTraceRepresentation>(
            *gen.loss, std::move(rates));
      }
      infer_s += seconds_since(t0);
      p.loss = std::move(gen.loss);
      prepared.push_back(std::move(p));
    }
    generate_s_.add(gen_s);
    infer_s_.add(infer_s);
    prepared_ = std::move(prepared);
    return seconds_since(t_setup);
  }

  Rep run(SpanRecorder* spans, bool traced) override {
    std::vector<harness::ExperimentJob> jobs = make_jobs(traced);
    Rep rep;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    std::vector<harness::JobOutcome> outcomes(jobs.size());
    std::vector<std::string> job_error(jobs.size());
    {
      SpanRecorder::Scope s(spans, "harness.run");
      harness::RunnerOptions opts;
      opts.jobs = shape_.workers;
      try {
        outcomes = harness::ExperimentRunner(opts).run(jobs);
      } catch (...) {
        // The runner rethrows the first failure after draining; attribute
        // failures by re-running every job on its own.
        harness::ExperimentRunner single(opts);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          try {
            outcomes[i] = std::move(single.run({jobs[i]}).front());
            outcomes[i].index = i;
          } catch (...) {
            job_error[i] = error_text(std::current_exception());
          }
        }
      }
    }
    rep.run_s = seconds_since(t0);
    rep.cpu_s = process_cpu_seconds() - cpu0;

    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto& p = prepared_[trace_of(i)];
      const std::string key = p.spec.name + "/" +
                              protocol_name(jobs[i].protocol) + "/" +
                              std::to_string(jobs[i].config.seed);
      if (!job_error[i].empty()) {
        rep.errors.push_back(key + ": " + job_error[i]);
        rep.attempted += p.loss->total_losses();
        rep.failed += p.loss->total_losses();
        continue;
      }
      const auto& r = outcomes[i].result;
      const std::uint64_t faced =
          r.total_losses_detected() + r.total_silent_repairs();
      rep.attempted += faced;
      rep.failed += r.total_unrecovered();
      if (r.total_unrecovered() != 0)
        rep.check_failures.push_back("unrecovered_zero[" + key + "]");
      if (!shape_.crash_recover && faced != p.loss->total_losses())
        rep.check_failures.push_back("losses_accounted[" + key + "]");
      digest_result(&rep.digest, key, r);
    }
    failed_jobs_ = 0;
    for (const auto& e : job_error) failed_jobs_ += e.empty() ? 0 : 1;
    if (traced) {
      traced_ = std::move(outcomes);
    } else {
      last_ = std::move(outcomes);
      last_run_s_ = rep.run_s;
    }
    return rep;
  }

  void end_to_end(Metrics* out, std::vector<std::string>* notes) override {
    comparison().put_end_to_end(out, notes);
  }

  void per_layer(Metrics* out, SpanRecorder& spans,
                 std::vector<std::string>* notes,
                 std::vector<std::string>*) override {
    put(out, "trace.generate_s", generate_s_.median(), "s");
    put(out, "infer.estimate_s", infer_s_.median(), "s");

    // Runner: per-job wall times of the last untraced sweep.
    std::vector<double> job_s;
    double job_sum = 0.0;
    std::uint64_t events = 0;
    for (const auto& o : last_) {
      job_s.push_back(o.wall_seconds);
      job_sum += o.wall_seconds;
      events += o.result.events_executed;
    }
    std::sort(job_s.begin(), job_s.end());
    put(out, "harness.job_s_p50", nearest_rank(job_s, 50), "s");
    put(out, "harness.job_s_max", job_s.empty() ? 0.0 : job_s.back(), "s");
    put(out, "harness.worker_util",
        ratio(job_sum, shape_.workers * last_run_s_), "ratio");
    put(out, "sim.ns_per_event",
        ratio(job_sum * 1e9, static_cast<double>(events)), "ns");

    // Program counters of the traced sweep (ObsConfig::metrics), over the
    // jobs that finished.
    std::erase_if(traced_, [](const harness::JobOutcome& o) {
      return o.result.members.empty();
    });
    const auto& ok = traced_;
    const obs::MetricsSnapshot snap = harness::merged_metrics(ok);
    const auto counter = [&snap](const std::string& k) {
      const auto it = snap.counters.find(k);
      return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    put(out, "sim.events_executed", counter("sim.events_executed"), "count");
    put(out, "sim.events_scheduled", counter("sim.events_scheduled"), "count");
    put(out, "sim.events_cancelled", counter("sim.events_cancelled"), "count");
    const auto hw = snap.gauges.find("sim.queue_high_water");
    put(out, "sim.queue_high_water", hw == snap.gauges.end() ? 0.0 : hw->second,
        "count");
    put(out, "durable.records_appended", counter("durable.records_appended"),
        "count");
    put(out, "durable.bytes_appended", counter("durable.bytes_appended"),
        "bytes");
    put(out, "durable.records_restored", counter("durable.records_restored"),
        "count");
    put(out, "durable.records_dropped_at_crash",
        counter("durable.records_dropped_at_crash"), "count");
    put(out, "durable.retx_suppressed",
        counter("durable.retransmissions_suppressed"), "count");

    net::CrossingStats all_x;
    srm::HostStats srm_h, cesrm_h;
    std::uint64_t abandoned = 0;
    std::vector<const std::vector<obs::TraceEvent>*> srm_ev, cesrm_ev;
    std::vector<obs::ChromeTraceJob> chrome;
    std::vector<std::string> chrome_names;
    chrome_names.reserve(ok.size());
    for (const auto& o : ok) {
      const bool is_cesrm = o.protocol == Protocol::kCesrm;
      add_crossings(&all_x, o.result.crossings);
      for (const auto& m : o.result.members) {
        add_host(is_cesrm ? &cesrm_h : &srm_h, m.stats);
        abandoned += m.stats.losses_abandoned_at_crash;
      }
      const auto* ev = o.result.events.get();
      (is_cesrm ? cesrm_ev : srm_ev).push_back(ev);
      if (ev) {
        chrome_names.push_back(o.result.trace_name + "/" +
                               protocol_name(o.protocol));
        chrome.push_back({chrome_names.back(), *ev});
      }
    }
    put_net_layer(out, all_x);
    put_wire(out, all_x, spans, notes);
    comparison().put_retx(out, notes);
    put_host_layers(out, srm_h, cesrm_h);

    std::uint64_t events_recorded = 0;
    put_srm_layer(out, "srm.phase.",
                  mean_phases_ms(srm_ev, spans, &events_recorded),
                  {"backoff", "request_wait", "reply_wait", "repair_transit"});
    put_srm_layer(out, "cesrm.phase.",
                  mean_phases_ms(cesrm_ev, spans, &events_recorded),
                  {"reorder_wait", "exp_transit", "repair_transit"});
    put(out, "obs.events_recorded", static_cast<double>(events_recorded),
        "count");
    const std::uint64_t bytes = export_events(chrome, spans);
    notes->push_back("protocol-event Chrome trace: " + std::to_string(bytes) +
                     " bytes (timed, not written)");
    put(out, "obs.causal_s", spans.total_seconds("obs.analyze_causal"), "s");
    put(out, "obs.export_s", spans.total_seconds("obs.write_chrome_trace"),
        "s");

    put(out, "fault.losses_abandoned", static_cast<double>(abandoned), "count");
    put(out, "fault.oracle_passed",
        shape_.crash_recover && failed_jobs_ == 0 && !ok.empty() ? 1.0 : 0.0,
        "bool");
    if (shape_.crash_recover) put_catch_up(out);
  }

 private:
  /// The paired comparison over the last untraced sweep. Under churn the
  /// latencies are those of losses detected before the crash: after it,
  /// restart catch-up (restart_catchup_s) and its request storm make every
  /// recovery statistic swing by tens of percent with the jitter seed.
  Comparison comparison() const {
    Comparison c;
    for (const auto& o : last_) {
      if (o.result.members.empty()) continue;
      sim::SimTime before = sim::SimTime::infinity();
      const auto& spec = prepared_[trace_of(o.index)].spec;
      for (const auto& crash : plan_for(spec).crashes)
        before = std::min(before, crash.at);
      c.add(o.result, before);
    }
    return c;
  }

  /// Jobs run trace by trace, jitter seed by seed, SRM then CESRM.
  std::size_t trace_of(std::size_t job) const {
    return job / (2 * static_cast<std::size_t>(shape_.jitter_seeds));
  }

  std::vector<harness::ExperimentJob> make_jobs(bool traced) const {
    std::vector<harness::ExperimentJob> jobs;
    for (const auto& p : prepared_) {
      for (int k = 0; k < shape_.jitter_seeds; ++k)
      for (const Protocol protocol : {Protocol::kSrm, Protocol::kCesrm}) {
        harness::ExperimentJob job;
        job.spec = p.spec;
        job.loss = p.loss;
        job.links = p.links;
        job.protocol = protocol;
        job.config.seed =
            seed_ * static_cast<std::uint64_t>(shape_.jitter_seeds) +
            static_cast<std::uint64_t>(k);
        if (shape_.crash_recover) {
          job.config.faults = plan_for(p.spec);
          job.config.durable.mode = durable::DurableMode::kWarm;
        }
        job.config.observe.metrics = traced;
        // Event capture of the first jitter seed only: all of churn_warm's
        // would hold about 1 GB of events at once.
        job.config.observe.trace = traced && k == 0;
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  }

  /// crash_recover_plan's first crash only (the highest-ranked receiver,
  /// down from 40% to 70% of the transmission). The full plan downs a third
  /// of the receivers at once, and its catch-up storm makes every recovery
  /// metric swing by tens of percent with the jitter seed.
  fault::FaultPlan plan_for(const trace::TraceSpec& spec) const {
    fault::FaultPlan plan = fault::crash_recover_plan(context_for(spec));
    plan.crashes.resize(std::min<std::size_t>(plan.crashes.size(), 1));
    return plan;
  }

  fault::ScenarioContext context_for(const trace::TraceSpec& spec) const {
    const harness::ExperimentConfig base;
    fault::ScenarioContext ctx;
    ctx.receivers = spec.receivers;
    ctx.data_start = base.warmup;
    ctx.data_end = base.warmup + sim::SimTime::millis(spec.period_ms) *
                                     static_cast<std::int64_t>(spec.packets);
    return ctx;
  }

  static void digest_result(Digest* d, const std::string& key,
                            const harness::ExperimentResult& r) {
    d->add(key + ".events", r.events_executed);
    for (std::size_t t = 0; t < net::kPacketTypeCount; ++t) {
      const auto type = static_cast<PT>(t);
      const std::string name = net::packet_type_name(type);
      d->add(key + ".x." + name, r.crossings.total_of(type));
      d->add(key + ".drop." + name, r.crossings.dropped[t]);
    }
    d->add(key + ".requests", r.total_requests_sent());
    d->add(key + ".replies", r.total_replies_sent());
    d->add(key + ".exp_requests", r.total_exp_requests_sent());
    d->add(key + ".exp_replies", r.total_exp_replies_sent());
    d->add(key + ".detected", r.total_losses_detected());
    d->add(key + ".silent", r.total_silent_repairs());
    d->add(key + ".recovered", r.total_recovered());
    d->add(key + ".unrecovered", r.total_unrecovered());
    d->add(key + ".sim_end_ns", r.sim_end.ns());
  }

 private:
  /// Mean time from a crashed member's restart to its last recovery of a
  /// packet sent before the restart, as bench_faults computes it, over the
  /// CESRM runs of the last untraced sweep.
  void put_catch_up(Metrics* out) const {
    double sum = 0.0;
    int members = 0;
    for (const auto& o : last_) {
      if (o.protocol != Protocol::kCesrm || o.result.members.empty()) continue;
      const auto& p = prepared_[trace_of(o.index)];
      const fault::ScenarioContext ctx = context_for(p.spec);
      const fault::FaultPlan plan = plan_for(p.spec);
      for (const auto& crash : plan.crashes) {
        if (!crash.recovers() || crash.receiver_rank < 0) continue;
        const auto idx = static_cast<std::size_t>(1 + crash.receiver_rank);
        if (idx >= o.result.members.size()) continue;
        const auto gap_end = static_cast<net::SeqNo>(
            (crash.recover_at - ctx.data_start).to_seconds() * 1000.0 /
            static_cast<double>(p.spec.period_ms));
        double completion = 0.0;
        std::uint64_t n = 0;
        for (const auto& r : o.result.members[idx].stats.recoveries) {
          if (!r.recovered || r.recover_time < crash.recover_at ||
              r.seq > gap_end)
            continue;
          completion = std::max(
              completion, (r.recover_time - crash.recover_at).to_seconds());
          ++n;
        }
        if (n == 0) continue;
        sum += completion;
        ++members;
      }
    }
    put(out, "restart_catchup_s", members ? sum / members : 0.0, "s");
  }

  SweepShape shape_;
  std::uint64_t seed_;
  std::vector<trace::TraceSpec> specs_;
  std::vector<PreparedSpec> prepared_;
  util::Sample generate_s_, infer_s_;
  std::vector<harness::JobOutcome> last_, traced_;
  double last_run_s_ = 0.0;
  int failed_jobs_ = 0;
};

// ---------------------------------------------------------------------------
// scale_1e5: run_scale at 10^5 receivers, SRM then CESRM on one tree.
//
// run_scale draws the tree and the member losses from one seed, and random
// depth-5 trees split into two regimes: on 9 of 30 seeds tried, SRM's
// request suppression works, the SRM pass does ~20x less work and CESRM
// sends 10-250x SRM's requests; on the rest SRM request floods dominate.
// The workload therefore pins bench_scale's seed-1 tree (the flood regime
// ROADMAP item 4 targets); the benchmark seed does not reach it.
//
// The measured passes run the sharded engine on one shard. With four, the
// engine's per-window barriers wait for the slowest shard, and on a shared
// 4-core host the wall time swung 1.6-2.2x with other tenants' CPU steal
// (one shard: 10-15 %). Shard scaling is measured by the traced run's
// sharding probe instead.

class ScaleWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kScaleSeed = 1;
  static constexpr int kRunShards = 1;

  ScaleWorkload(std::uint64_t receivers, net::SeqNo packets) {
    base_.receivers = receivers;
    base_.tree_depth = 5;
    base_.packets = packets;
    base_.shards = kRunShards;
    base_.seed = kScaleSeed;
  }

  // run_scale builds its tree, engine and receiver blocks itself, so the
  // set-up is one call on the same tree with one packet and no drain, and
  // its time is the call's wall time minus the engine's.
  double setup(SpanRecorder* spans) override {
    harness::ScaleConfig cfg = base_;
    cfg.packets = 1;
    cfg.drain = sim::SimTime::zero();
    SpanRecorder::Scope s(spans, "scale.setup");
    const auto t0 = Clock::now();
    const double engine_s = harness::run_scale(cfg).wall_seconds;
    return seconds_since(t0) - engine_s;
  }

  Rep run(SpanRecorder* spans, bool) override {
    Rep rep;
    const double cpu0 = process_cpu_seconds();
    for (const Protocol protocol : {Protocol::kSrm, Protocol::kCesrm}) {
      harness::ScaleConfig cfg = base_;
      cfg.protocol = protocol;
      const std::string key = protocol_name(protocol);
      harness::ScaleResult r;
      try {
        SpanRecorder::Scope s(spans, "scale.run_scale");
        r = harness::run_scale(cfg);
      } catch (...) {
        rep.errors.push_back(key + ": " + error_text(std::current_exception()));
        rep.attempted += cfg.packets;
        rep.failed += cfg.packets;
        continue;
      }
      rep.run_s += r.wall_seconds;
      rep.attempted += r.losses;
      rep.failed += r.outstanding;
      if (r.outstanding != 0 || r.recovered != r.losses)
        rep.check_failures.push_back("unrecovered_zero[" + key + "]");
      if (r.window_overflows != 0)
        rep.check_failures.push_back("window_overflows_zero[" + key + "]");
      rep.digest.add(key + ".events", r.events_executed);
      rep.digest.add(key + ".losses", r.losses);
      rep.digest.add(key + ".recovered", r.recovered);
      rep.digest.add(key + ".requests", r.requests_sent);
      rep.digest.add(key + ".p50_ns", r.recovery_p50_ns);
      rep.digest.add(key + ".p99_ns", r.recovery_p99_ns);
      rep.digest.add(key + ".session_rounds", r.session_rounds);
      rep.digest.add(key + ".session_crossings", r.session_crossings);
      rep.digest.add(key + ".state_bytes", r.member_state_bytes);
      rep.digest.add(key + ".root.members", r.root_summary.members);
      rep.digest.add(key + ".root.min_horizon", r.root_summary.min_horizon);
      rep.digest.add(key + ".root.max_horizon", r.root_summary.max_horizon);
      (protocol == Protocol::kSrm ? srm_ : cesrm_) = r;
    }
    rep.cpu_s = process_cpu_seconds() - cpu0;
    return rep;
  }

  void end_to_end(Metrics* out, std::vector<std::string>* notes) override {
    // run_scale exports block-level latency quantiles, not per-recovery
    // means: the RTT metrics are medians over the deepest-path RTT.
    const double rtt_ns =
        2.0 * base_.tree_depth *
        static_cast<double>(net::NetworkConfig{}.link_delay.ns());
    const auto p50 = [](const harness::ScaleResult& r) {
      return static_cast<double>(r.recovery_p50_ns);
    };
    put(out, "recovery_rtt_mean", p50(cesrm_) / rtt_ns, "RTT");
    put(out, "srm_recovery_rtt_mean", p50(srm_) / rtt_ns, "RTT");
    put(out, "cesrm_srm_latency_pct", pct_of(p50(cesrm_), p50(srm_)), "%");
    put(out, "recovery_p50_rtt", p50(cesrm_) / rtt_ns, "RTT");
    put(out, "recovery_p99_rtt",
        static_cast<double>(cesrm_.recovery_p99_ns) / rtt_ns, "RTT");
    // Requests are the scale path's only control packets that differ by
    // protocol (session traffic is aggregated identically for both).
    put(out, "ctrl_pct_of_srm",
        pct_of(static_cast<double>(cesrm_.requests_sent),
               static_cast<double>(srm_.requests_sent)),
        "%");
    notes->push_back(
        "scale: latencies are LogHistogram bucket lower edges over " +
        std::to_string(cesrm_.recovered) + " CESRM recoveries (p50 " +
        std::to_string(p50(cesrm_) / 1e6) + " ms, p99 " +
        std::to_string(static_cast<double>(cesrm_.recovery_p99_ns) / 1e6) +
        " ms); RTT unit = " + std::to_string(rtt_ns / 1e6) +
        " ms (deepest path); ctrl base: " +
        std::to_string(srm_.requests_sent) + " SRM requests");
  }

  void per_layer(Metrics* out, SpanRecorder& spans,
                 std::vector<std::string>* notes,
                 std::vector<std::string>* errors) override {
    const double events =
        static_cast<double>(srm_.events_executed + cesrm_.events_executed);
    const double wall = srm_.wall_seconds + cesrm_.wall_seconds;
    put(out, "sim.events_executed", events, "count");
    put(out, "sim.ns_per_event", ratio(wall * 1e9, events), "ns");
    put(out, "scale.events_per_s", ratio(events, wall), "1/s");
    put(out, "scale.requests_sent",
        static_cast<double>(srm_.requests_sent + cesrm_.requests_sent),
        "count");
    put(out, "scale.session_crossings",
        static_cast<double>(srm_.session_crossings + cesrm_.session_crossings),
        "count");
    put(out, "net.crossings.session",
        static_cast<double>(srm_.session_crossings + cesrm_.session_crossings),
        "count");
    put(out, "scale.bytes_per_receiver", cesrm_.bytes_per_receiver, "bytes");
    put(out, "scale.window_overflows",
        static_cast<double>(srm_.window_overflows + cesrm_.window_overflows),
        "count");
    // The scale path exports per-type counts only for these three kinds.
    net::CrossingStats mix;
    const auto at = [](PT t) { return static_cast<std::size_t>(t); };
    mix.multicast[at(PT::kData)] =
        static_cast<std::uint64_t>(base_.packets) * 2;
    mix.multicast[at(PT::kRequest)] = srm_.requests_sent + cesrm_.requests_sent;
    mix.unicast[at(PT::kSession)] =
        srm_.session_crossings + cesrm_.session_crossings;
    put_wire(out, mix, spans, notes);

    // Shard scaling on the CESRM pass (the SRM pass on one shard alone
    // would take longer than a whole run). A probe call that throws is
    // reported as an error and leaves the sharded.* metrics at 0.
    std::map<int, double> wall_by_shards;
    for (const int shards : {static_cast<int>(kWorkers), 1, 0}) {
      harness::ScaleConfig cfg = base_;
      cfg.protocol = Protocol::kCesrm;
      cfg.shards = shards;
      try {
        SpanRecorder::Scope s(&spans, "sim.sharding_probe");
        wall_by_shards[shards] = harness::run_scale(cfg).wall_seconds;
      } catch (...) {
        errors->push_back("sharding probe, " + std::to_string(shards) +
                          " shards: " + error_text(std::current_exception()));
        return;
      }
    }
    const double speedup =
        ratio(wall_by_shards[1], wall_by_shards[static_cast<int>(kWorkers)]);
    put(out, "sharded.speedup", speedup, "ratio");
    put(out, "sharded.efficiency", speedup / kWorkers, "ratio");
    put(out, "sharded.sync_cost", ratio(wall_by_shards[1], wall_by_shards[0]),
        "ratio");
    notes->push_back(
        "sharding probe (CESRM pass): 0 shards " +
        std::to_string(wall_by_shards[0]) + " s, 1 shard " +
        std::to_string(wall_by_shards[1]) + " s, " + std::to_string(kWorkers) +
        " shards " +
        std::to_string(wall_by_shards[static_cast<int>(kWorkers)]) + " s");
  }

 private:
  harness::ScaleConfig base_;
  harness::ScaleResult srm_, cesrm_;
};

// ---------------------------------------------------------------------------
// netio_loopback: a 4-member loopback UDP group, CESRM then SRM.

class NetioWorkload final : public Workload {
 public:
  static constexpr int kStandUps = 1000;

  NetioWorkload(std::uint64_t seed, net::SeqNo packets) {
    cfg_.tree_text = "0(1(2 3) 4)";
    cfg_.seed = seed;
    cfg_.mcast_port = 47731;
    cfg_.shim.seed = seed;
    cfg_.shim.data_loss = 0.3;
    cfg_.shim.link_delay = sim::SimTime::millis(5);
    cfg_.shim.lossy_links = {1};
    cfg_.packets = packets;
    cfg_.period = sim::SimTime::millis(2);
    cfg_.warmup = sim::SimTime::millis(750);
    cfg_.drain = sim::SimTime::millis(1500);
    cfg_.cesrm.srm.session_period = sim::SimTime::millis(500);
  }

  // Socket stand-up of the whole group: every member's reactor, multicast
  // and unicast sockets, bound and joined, then torn down. One stand-up
  // takes ~0.1 ms, so each set-up times kStandUps of them (~0.1 s) and
  // returns the time per stand-up.
  double setup(SpanRecorder* spans) override {
    SpanRecorder::Scope s(spans, "netio.socket_setup");
    const auto t0 = Clock::now();
    for (int i = 0; i < kStandUps; ++i) stand_up();
    return seconds_since(t0) / kStandUps;
  }

  void stand_up() const {
    const net::MulticastTree tree = net::parse_tree(cfg_.tree_text);
    const netio::LossShim shim(tree, cfg_.shim);
    netio::AddressPlan plan;
    plan.mcast_addr = cfg_.mcast_addr;
    plan.mcast_port = cfg_.mcast_port;
    plan.unicast.assign(tree.size(), netio::Endpoint{});
    struct Member {
      netio::MonotonicClock clock;
      netio::Reactor reactor;
      netio::SocketTransport transport;
      Member(std::uint64_t epoch, const net::MulticastTree& t,
             const netio::AddressPlan& p, const netio::LossShim& sh,
             net::NodeId node)
          : clock(epoch), reactor(clock), transport(reactor, t, p, sh, node) {}
    };
    std::vector<net::NodeId> nodes{tree.root()};
    for (net::NodeId r : tree.receivers()) nodes.push_back(r);
    const std::uint64_t epoch = netio::MonotonicClock::raw_ns();
    std::vector<std::unique_ptr<Member>> members;
    for (net::NodeId node : nodes)
      members.push_back(
          std::make_unique<Member>(epoch, tree, plan, shim, node));
    for (std::size_t i = 0; i < nodes.size(); ++i)
      plan.unicast[static_cast<std::size_t>(nodes[i])] =
          members[i]->transport.unicast_endpoint();
  }

  Rep run(SpanRecorder* spans, bool traced) override {
    Rep rep;
    const double cpu0 = process_cpu_seconds();
    std::uint64_t datagrams = 0;
    for (const Protocol protocol : {Protocol::kCesrm, Protocol::kSrm}) {
      netio::NetioRunConfig cfg = cfg_;
      cfg.protocol = protocol;
      cfg.observe_trace = traced;
      const std::string key = protocol_name(protocol);
      netio::NetioRunResult r;
      try {
        SpanRecorder::Scope s(spans, "netio.run_netio");
        r = netio::run_netio(cfg);
      } catch (...) {
        // A thrown run (socket setup refused, oracle verdict) counts each
        // of its data packets as one failed operation.
        rep.errors.push_back(key + ": " + error_text(std::current_exception()));
        rep.attempted += cfg.packets;
        rep.failed += cfg.packets;
        run_threw_ = true;
        continue;
      }
      rep.run_s += r.wall_seconds;
      const auto& e = r.experiment;
      const std::uint64_t faced =
          e.total_losses_detected() + e.total_silent_repairs();
      rep.attempted += faced;
      rep.failed += e.total_unrecovered();
      if (e.total_unrecovered() != 0)
        rep.check_failures.push_back("unrecovered_zero[" + key + "]");
      if (faced != r.total_shim_dropped())
        rep.check_failures.push_back("losses_accounted[" + key + "]");
      // Only the seeded loss pattern is deterministic over real sockets.
      rep.digest.add(key + ".packets", e.packets_sent);
      rep.digest.add(key + ".shim_dropped", r.total_shim_dropped());
      rep.digest.add(key + ".losses", faced);
      for (const auto& s : r.sockets)
        datagrams += s.datagrams_sent + s.datagrams_received;
      if (!traced) untraced_events_ += e.events_executed;

      if (traced)
        traced_runs_.push_back(std::move(r));
      else
        cmp_.add(e);
    }
    rep.cpu_s = process_cpu_seconds() - cpu0;
    if (!traced) {
      cpu_s_ += rep.cpu_s;
      datagrams_ += datagrams;
    }
    return rep;
  }

  void end_to_end(Metrics* out, std::vector<std::string>* notes) override {
    cmp_.put_end_to_end(out, notes);
    notes->push_back(
        "netio: latencies are wall-clock; crossings are datagrams");
  }

  void per_layer(Metrics* out, SpanRecorder& spans,
                 std::vector<std::string>* notes,
                 std::vector<std::string>*) override {
    netio::SocketStats sock;
    net::CrossingStats all_x;
    srm::HostStats srm_h, cesrm_h;
    std::uint64_t events = 0;
    std::vector<const std::vector<obs::TraceEvent>*> srm_ev, cesrm_ev;
    std::vector<obs::ChromeTraceJob> chrome;
    std::vector<double> lateness_ms;
    for (const auto& r : traced_runs_) {
      const auto& e = r.experiment;
      const bool is_cesrm = e.protocol == Protocol::kCesrm;
      for (const auto& s : r.sockets) {
        sock.datagrams_sent += s.datagrams_sent;
        sock.datagrams_received += s.datagrams_received;
        sock.self_filtered += s.self_filtered;
        sock.send_failures += s.send_failures;
        sock.shim_dropped += s.shim_dropped;
      }
      add_crossings(&all_x, e.crossings);
      for (const auto& m : e.members)
        add_host(is_cesrm ? &cesrm_h : &srm_h, m.stats);
      events += e.events_executed;
      if (e.events) {
        (is_cesrm ? cesrm_ev : srm_ev).push_back(e.events.get());
        chrome.push_back({std::string("netio/") + protocol_name(e.protocol),
                          *e.events});
        add_send_lateness(*e.events, &lateness_ms);
      }
    }
    put(out, "sim.events_executed", static_cast<double>(events), "count");
    put(out, "sim.ns_per_event",
        ratio(cpu_s_ * 1e9, static_cast<double>(untraced_events_)), "ns");
    put(out, "netio.datagrams_sent", static_cast<double>(sock.datagrams_sent),
        "count");
    put(out, "netio.datagrams_received",
        static_cast<double>(sock.datagrams_received), "count");
    put(out, "netio.self_filtered_ratio",
        ratio(static_cast<double>(sock.self_filtered),
              static_cast<double>(sock.datagrams_received)),
        "ratio");
    put(out, "netio.send_failures", static_cast<double>(sock.send_failures),
        "count");
    put(out, "netio.shim_dropped", static_cast<double>(sock.shim_dropped),
        "count");
    put(out, "netio.cpu_us_per_datagram",
        ratio(cpu_s_ * 1e6, static_cast<double>(datagrams_)), "us");
    std::sort(lateness_ms.begin(), lateness_ms.end());
    const TailChoice tail = choose_tail(lateness_ms);
    put(out, "netio.send_lateness_p50_ms", nearest_rank(lateness_ms, 50), "ms");
    put(out, "netio.send_lateness_p99_ms", tail.value, "ms");
    notes->push_back("netio.send_lateness_p99_ms reports p" +
                     std::to_string(tail.percentile) + " of " +
                     std::to_string(lateness_ms.size()) +
                     " gap-revealing DATA arrivals");
    cmp_.put_retx(out, notes);
    put_host_layers(out, srm_h, cesrm_h);

    std::uint64_t recorded = 0;
    put_srm_layer(out, "srm.phase.", mean_phases_ms(srm_ev, spans, &recorded),
                  {"backoff", "request_wait", "reply_wait", "repair_transit"});
    put_srm_layer(out, "cesrm.phase.",
                  mean_phases_ms(cesrm_ev, spans, &recorded),
                  {"reorder_wait", "exp_transit", "repair_transit"});
    put(out, "obs.events_recorded", static_cast<double>(recorded), "count");
    export_events(chrome, spans);
    put(out, "obs.causal_s", spans.total_seconds("obs.analyze_causal"), "s");
    put(out, "obs.export_s", spans.total_seconds("obs.write_chrome_trace"),
        "s");
    put(out, "fault.oracle_passed", run_threw_ ? 0.0 : 1.0, "bool");
    put_wire(out, all_x, spans, notes);
  }

 private:
  /// DATA sends emit no trace event, so their lateness is read off loss
  /// detections: a gap at a receiver is revealed by the next DATA to
  /// arrive, which was scheduled for warmup + seq × period and needs
  /// hops × link delay to arrive. Detections triggered by a foreign
  /// request (detail 1) and tail gaps with no later DATA are skipped; the
  /// rare gap a session message reveals first reads as early.
  void add_send_lateness(const std::vector<obs::TraceEvent>& events,
                         std::vector<double>* out) const {
    const net::MulticastTree tree = net::parse_tree(cfg_.tree_text);
    std::map<net::NodeId, std::vector<const obs::TraceEvent*>> by_node;
    std::map<net::NodeId, std::vector<net::SeqNo>> lost;
    for (const auto& e : events) {
      if (e.kind != obs::EventKind::kLossDetected) continue;
      lost[e.node].push_back(e.seq);
      if (e.detail == 0) by_node[e.node].push_back(&e);
    }
    for (auto& [node, seqs] : lost) std::sort(seqs.begin(), seqs.end());
    for (const auto& [node, dets] : by_node) {
      const auto& seqs = lost[node];
      const double path_ms = static_cast<double>(tree.depth(node)) *
                             cfg_.shim.link_delay.to_seconds() * 1e3;
      for (const auto* e : dets) {
        net::SeqNo next = e->seq + 1;
        while (std::binary_search(seqs.begin(), seqs.end(), next)) ++next;
        if (next >= cfg_.packets) continue;
        const double due_ms =
            (cfg_.warmup + cfg_.period * static_cast<std::int64_t>(next))
                .to_seconds() * 1e3 + path_ms;
        out->push_back(e->at.to_seconds() * 1e3 - due_ms);
      }
    }
  }

  netio::NetioRunConfig cfg_;
  Comparison cmp_;
  std::vector<netio::NetioRunResult> traced_runs_;
  double cpu_s_ = 0.0;  ///< untraced reps: CPU, datagrams, reactor events
  std::uint64_t datagrams_ = 0;
  std::uint64_t untraced_events_ = 0;
  bool run_threw_ = false;  ///< oracle verdict or socket set-up failure
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"table1_sweep", "scale_1e5",
                                              "netio_loopback", "churn_warm"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool small) {
  if (name == "table1_sweep") {
    SweepShape shape;
    for (int id = 1; id <= (small ? 2 : 14); ++id)
      shape.trace_ids.push_back(id);
    shape.packets_cap = small ? 1000 : 10000;
    return std::make_unique<SweepWorkload>(shape, seed);
  }
  if (name == "churn_warm") {
    SweepShape shape;
    shape.trace_ids = small ? std::vector<int>{1} : std::vector<int>{1, 7, 13};
    shape.packets_cap = small ? 2000 : 8000;
    shape.crash_recover = true;
    shape.jitter_seeds = small ? 1 : 8;
    // One worker: with four, the run time drifted by 22 % between two sets
    // of runs as other tenants' load on the shared host came and went.
    shape.workers = 1;
    return std::make_unique<SweepWorkload>(shape, seed);
  }
  if (name == "scale_1e5")
    return std::make_unique<ScaleWorkload>(small ? 2000 : 100000,
                                           small ? 20 : 40);
  if (name == "netio_loopback")
    return std::make_unique<NetioWorkload>(seed, small ? 100 : 2000);
  return nullptr;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog{
      {"trace.generate_s", "s"},
      {"infer.estimate_s", "s"},
      {"harness.job_s_p50", "s"},
      {"harness.job_s_max", "s"},
      {"harness.worker_util", "ratio"},
      {"sim.events_executed", "count"},
      {"sim.events_scheduled", "count"},
      {"sim.events_cancelled", "count"},
      {"sim.queue_high_water", "count"},
      {"sim.ns_per_event", "ns"},
      {"sharded.speedup", "ratio"},
      {"sharded.efficiency", "ratio"},
      {"sharded.sync_cost", "ratio"},
      {"scale.events_per_s", "1/s"},
      {"net.crossings.data", "count"},
      {"net.crossings.session", "count"},
      {"net.crossings.request", "count"},
      {"net.crossings.reply", "count"},
      {"net.crossings.exp", "count"},
      {"net.dropped", "count"},
      {"net.wire_bytes", "bytes"},
      {"retx_pct_of_srm", "%"},
      {"srm.requests_per_loss", "ratio"},
      {"srm.replies_per_loss", "ratio"},
      {"srm.dup_replies_per_loss", "ratio"},
      {"srm.phase.backoff_ms", "ms"},
      {"srm.phase.request_wait_ms", "ms"},
      {"srm.phase.reply_wait_ms", "ms"},
      {"srm.phase.repair_transit_ms", "ms"},
      {"scale.requests_sent", "count"},
      {"scale.session_crossings", "count"},
      {"scale.bytes_per_receiver", "bytes"},
      {"scale.window_overflows", "count"},
      {"cesrm.cache_hit_ratio", "ratio"},
      {"cesrm.exp_success_ratio", "ratio"},
      {"cesrm.exp_requests_per_loss", "ratio"},
      {"cesrm.phase.reorder_wait_ms", "ms"},
      {"cesrm.phase.exp_transit_ms", "ms"},
      {"cesrm.phase.repair_transit_ms", "ms"},
      {"unrecovered_frac", "ratio"},
      {"fault.losses_abandoned", "count"},
      {"fault.oracle_passed", "bool"},
      {"restart_catchup_s", "s"},
      {"durable.records_appended", "count"},
      {"durable.bytes_appended", "bytes"},
      {"durable.records_restored", "count"},
      {"durable.records_dropped_at_crash", "count"},
      {"durable.retx_suppressed", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.events_recorded", "count"},
      {"obs.causal_s", "s"},
      {"obs.export_s", "s"},
      {"wire.encode_ns", "ns"},
      {"wire.decode_ns", "ns"},
      {"wire.bytes_per_datagram", "bytes"},
      {"netio.datagrams_sent", "count"},
      {"netio.datagrams_received", "count"},
      {"netio.self_filtered_ratio", "ratio"},
      {"netio.send_failures", "count"},
      {"netio.shim_dropped", "count"},
      {"netio.cpu_us_per_datagram", "us"},
      {"netio.send_lateness_p50_ms", "ms"},
      {"netio.send_lateness_p99_ms", "ms"},
      {"self_s.trace", "s"},
      {"self_s.infer", "s"},
      {"self_s.harness", "s"},
      {"self_s.scale", "s"},
      {"self_s.sim", "s"},
      {"self_s.netio", "s"},
      {"self_s.obs", "s"},
      {"self_s.wire", "s"},
  };
  return catalog;
}

}  // namespace perfbench
