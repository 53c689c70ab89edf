// cesrm_cli — command-line driver for the CESRM reproduction pipeline.
//
// Subcommands (the first positional argument):
//
//   generate  --trace=N --out=FILE [--packets-cap=K]
//       Re-create Table-1 trace N (with ground-truth drop links) and save
//       it to FILE in the text trace format.
//
//   inspect   --in=FILE
//       Print a trace's characteristics: tree, per-receiver loss rates,
//       loss-pattern histogram, locality statistics.
//
//   estimate  --in=FILE [--method=yajnik|minc]
//       Estimate per-link loss rates from the trace's receiver
//       observations; with ground truth present, report the estimation
//       error and the link-combination confidence statistics of §4.2.
//
//   simulate  --in=FILE [--protocol=srm|cesrm|lms] [--router-assist]
//             [--policy=most-recent|most-frequent] [--adaptive]
//             [--cache-policy=recency|sharded|oracle]
//       Replay the trace under one protocol (LMS: the §3.3/§5 baseline)
//       and print the recovery summary; --json, --trace-out,
//       --metrics-out and --jobs apply to every protocol.
//
//   compare   --in=FILE
//       Replay under SRM and CESRM and print the paper's headline
//       comparison (Figure 1 per-receiver table + Figure 5 numbers).
//
//   wire-gen  --out=FILE [--count=N] [--seed=S]
//       Write a binary trace of N random protocol-shaped PDUs in the v1
//       wire format (back-to-back canonical frames) — sample input for
//       wire-dump/wire-check and seed material for the fuzz corpus.
//
//   wire-dump --in=FILE [--max=N]
//       Decode a binary frame trace and print one line per PDU. Exits 2
//       (with the error kind, offset, and field) on the first malformed
//       frame.
//
//   wire-check --in=FILE
//       Strict validation: every frame must decode and re-encode to the
//       identical bytes (the canonical round-trip). Exit 0 = clean,
//       1 = I/O error, 2 = malformed or non-canonical.
//
//   explain   --in=FILE.jsonl [--loss=SRC,SEQ] [--top=N]
//       Recovery forensics on a recorded JSONL event trace (--trace-out of
//       a bench or simulate/compare): for the named loss — or the N
//       slowest recoveries — print the causal chain with its latency
//       attributed to named phases (backoff, request/reply wait, transit).
//       Phase durations sum exactly to the recovery latency.
//
//   analyze   --in=FILE.jsonl [--json=FILE]
//       Whole-trace forensics: reconciliation totals, latency medians, and
//       the anomaly report (request/reply implosion, zombie recoveries,
//       cache inversions, tail outliers). --json writes the full
//       machine-readable causal report.
//
//   netio-run [--protocol=srm|cesrm] [--tree=SPEC | --receivers=N
//             --depth=D --branching=B] [--packets=N] [--period-ms=T]
//             [--data-loss=P] [--control-loss=P] [--link-delay-ms=T]
//             [--jitter-ms=T] [--mcast-addr=A] [--mcast-port=P] ...
//       Run the protocol over REAL UDP sockets on the loopback interface:
//       one thread per member, multicast group + unicast socket pair each,
//       seeded losses injected at the sockets, and the post-run
//       InvariantOracle verdict (any unrecovered loss fails the run).
//       Prints the same recovery summary as 'simulate'; --trace-out and
//       --json apply. Linux-only (epoll).

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <span>

#include "durable/store.hpp"
#include "harness/experiment.hpp"
#include "harness/reports.hpp"
#include "harness/runner.hpp"
#include "infer/link_estimator.hpp"
#include "infer/link_trace.hpp"
#include "infer/minc_estimator.hpp"
#include "netio/run.hpp"
#include "netio/socket.hpp"
#include "obs/causal.hpp"
#include "obs/export.hpp"
#include "obs/jsonl.hpp"
#include "trace/catalog.hpp"
#include "trace/serialization.hpp"
#include "trace/trace_generator.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "wire/codec.hpp"
#include "wire/random.hpp"

namespace {

using namespace cesrm;

int cmd_generate(const util::CliFlags& flags) {
  const int id = static_cast<int>(flags.get_int("trace"));
  const std::string out = flags.get_string("out");
  if (out.empty()) {
    std::cerr << "generate: --out=FILE is required\n";
    return 1;
  }
  trace::TraceSpec spec = trace::table1_spec(id);
  const auto cap = flags.get_int("packets-cap");
  if (cap > 0 && cap < spec.packets) {
    spec.losses = static_cast<std::int64_t>(
        static_cast<double>(spec.losses) * static_cast<double>(cap) /
        static_cast<double>(spec.packets));
    spec.packets = cap;
  }
  std::cout << "generating " << spec.name << " (" << spec.packets
            << " packets, target " << spec.losses << " losses)...\n";
  const auto gen = trace::generate_trace(spec);
  trace::save_trace(out, *gen.loss, &gen.true_drop_links);
  std::cout << "wrote " << out << ": " << gen.loss->total_losses()
            << " losses over " << gen.loss->receiver_count()
            << " receivers (tree " << gen.loss->tree().to_string() << ")\n";
  return 0;
}

int cmd_inspect(const util::CliFlags& flags) {
  const auto file = trace::load_trace(flags.get_string("in"));
  const auto& t = *file.loss;
  std::cout << "name:     " << t.name() << "\n"
            << "tree:     " << t.tree().to_string() << "\n"
            << "depth:    " << t.tree().max_depth() << "\n"
            << "period:   " << t.period().to_millis() << " ms\n"
            << "packets:  " << util::fmt_count(
                   static_cast<std::uint64_t>(t.packet_count()))
            << "  duration " << util::fmt_duration_hms(
                   t.duration().to_seconds())
            << "\n"
            << "losses:   " << util::fmt_count(t.total_losses()) << " ("
            << util::fmt_fixed(100.0 * t.loss_rate(), 2)
            << "% of receiver-packets)\n"
            << "locality: " << util::fmt_fixed(
                   100.0 * t.pattern_repeat_fraction(), 1)
            << "% pattern repeats, mean burst "
            << util::fmt_fixed(t.mean_burst_length(), 2) << "\n"
            << "truth:    " << (file.has_truth() ? "present" : "absent")
            << "\n\n";

  util::TextTable rx("Per-receiver losses:");
  rx.set_header({"receiver", "node", "losses", "rate %"});
  for (std::size_t r = 0; r < t.receiver_count(); ++r) {
    rx.add_row({std::to_string(r + 1), std::to_string(t.receiver_node(r)),
                util::fmt_count(t.receiver_losses(r)),
                util::fmt_fixed(100.0 * static_cast<double>(
                                            t.receiver_losses(r)) /
                                    static_cast<double>(t.packet_count()),
                                2)});
  }
  rx.print();

  const auto hist = t.pattern_histogram();
  util::TextTable pt("\nTop loss patterns (receiver bitmask):");
  pt.set_header({"pattern", "count"});
  std::vector<std::pair<std::uint64_t, trace::LossPattern>> sorted;
  for (const auto& [p, c] : hist) sorted.push_back({c, p});
  std::sort(sorted.rbegin(), sorted.rend());
  for (std::size_t i = 0; i < std::min<std::size_t>(10, sorted.size()); ++i) {
    std::string bits;
    for (std::size_t r = 0; r < t.receiver_count(); ++r)
      bits += (sorted[i].second >> r) & 1 ? '1' : '0';
    pt.add_row({bits, util::fmt_count(sorted[i].first)});
  }
  pt.print();
  return 0;
}

int cmd_estimate(const util::CliFlags& flags) {
  const auto file = trace::load_trace(flags.get_string("in"));
  const auto& t = *file.loss;
  const std::string method = flags.get_string("method");

  std::vector<double> rates;
  if (method == "minc") {
    rates = infer::estimate_links_minc(t).loss_rate;
  } else if (method == "yajnik") {
    rates = infer::estimate_links_yajnik(t).loss_rate;
  } else {
    std::cerr << "estimate: unknown --method '" << method
              << "' (valid: yajnik, minc)\n";
    return 1;
  }

  util::TextTable est("Per-link loss-rate estimates (" + method + "):");
  est.set_header({"link", "rate"});
  for (net::LinkId l : t.tree().links())
    est.add_row({std::to_string(l),
                 util::fmt_fixed(rates[static_cast<std::size_t>(l)], 4)});
  est.print();

  infer::LinkTraceRepresentation links(t, rates);
  std::cout << "\ncombination confidence: "
            << util::fmt_fixed(100.0 * links.fraction_confident(0.95), 1)
            << "% of lossy packets > 95%, "
            << util::fmt_fixed(100.0 * links.fraction_confident(0.98), 1)
            << "% > 98%\n";
  if (file.has_truth()) {
    std::cout << "ground-truth match: "
              << util::fmt_fixed(
                     100.0 * links.truth_match_fraction(file.true_drop_links),
                     1)
              << "% of lossy packets attributed to exactly the true links\n";
  }
  return 0;
}

// Builds the simulate/compare experiment config on top of `base` (the
// shared run flags main already read); nullopt (after a one-line friendly
// stderr message, not a CHECK crash) on bad flag values.
std::optional<harness::ExperimentConfig> config_from_flags(
    const util::CliFlags& flags, const harness::ExperimentConfig& base) {
  harness::ExperimentConfig cfg = base;
  cfg.cesrm.router_assist = flags.get_bool("router-assist");
  cfg.cesrm.policy = ::cesrm::cesrm::parse_policy(flags.get_string("policy"));
  // simulate/compare have no loss ground truth wired into the cache, so
  // the side-info policies would silently degrade to recency — refuse
  // them up front with a message instead.
  const auto cache_policy = cfg.cesrm.cache.policy;
  if (::cesrm::cesrm::cache_policy_needs_side_info(cache_policy)) {
    std::cerr << "--cache-policy "
              << ::cesrm::cesrm::cache_policy_name(cache_policy)
              << " needs cache side info, which this command does not "
                 "provide (policies needing side info: "
              << ::cesrm::cesrm::cache_policies_needing_side_info()
              << "); pick another policy\n";
    return std::nullopt;
  }
  cfg.cesrm.srm.adaptive_timers = flags.get_bool("adaptive");
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  return cfg;
}

// Writes the simulate/compare/netio-run artifacts the flags name: the
// outcomes to --json, the event capture to --trace-out (Chrome
// trace_event JSON, or JSONL when the path ends in .jsonl) and the merged
// metrics to --metrics-out.
void write_artifacts(const util::CliFlags& flags,
                     const std::vector<harness::JobOutcome>& outcomes,
                     const std::string& trace_name) {
  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    harness::JsonResultSink sink;
    for (const auto& o : outcomes)
      sink.add(o.result, o.wall_seconds,
               o.label.empty() ? trace_name : o.label);
    if (sink.write_file(json_path))
      std::cerr << "wrote " << json_path << "\n";
    else
      std::cerr << "error: could not write " << json_path << "\n";
  }
  const std::string trace_path = flags.get_string("trace-out");
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "error: could not write " << trace_path << "\n";
    } else if (trace_path.ends_with(".jsonl")) {
      for (const auto& o : outcomes)
        if (o.result.events) obs::write_events_jsonl(out, *o.result.events);
      std::cerr << "wrote " << trace_path << "\n";
    } else {
      std::vector<obs::ChromeTraceJob> trace_jobs;
      for (const auto& o : outcomes) {
        if (!o.result.events) continue;
        std::string name = o.result.trace_name;
        name += '/';
        name += protocol_name(o.protocol);
        trace_jobs.push_back({std::move(name), *o.result.events});
      }
      obs::write_chrome_trace(out, trace_jobs);
      std::cerr << "wrote " << trace_path << "\n";
    }
  }
  const std::string metrics_path = flags.get_string("metrics-out");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::cerr << "error: could not write " << metrics_path << "\n";
    } else {
      const auto merged = harness::merged_metrics(outcomes);
      merged.to_json(out);
      out << "\n";
      std::cerr << "wrote " << metrics_path << "\n";
    }
  }
}

// An ExperimentRunner honouring --jobs, with per-job progress on stderr.
harness::ExperimentRunner runner_from_flags(const util::CliFlags& flags) {
  harness::RunnerOptions ropts;
  ropts.jobs = static_cast<unsigned>(flags.get_int("jobs"));
  ropts.on_progress = [](const harness::JobOutcome& outcome, std::size_t done,
                         std::size_t total) {
    std::cerr << "[" << done << "/" << total << "] "
              << protocol_name(outcome.protocol) << " done in "
              << util::fmt_fixed(outcome.wall_seconds, 1) << "s\n";
  };
  return harness::ExperimentRunner(ropts);
}


// Replays `file` under each of `protocols` — the replays share the trace
// and its estimated link representation, and run concurrently with
// --jobs >= 2 — and writes the --json/--trace-out/--metrics-out artifacts.
std::vector<harness::JobOutcome> replay(
    const util::CliFlags& flags, const harness::ExperimentConfig& cfg,
    const trace::TraceFile& file, std::initializer_list<Protocol> protocols) {
  const auto est = infer::estimate_links_yajnik(*file.loss);
  const auto links = std::make_shared<infer::LinkTraceRepresentation>(
      *file.loss, est.loss_rate);
  std::vector<harness::ExperimentJob> jobs;
  for (const Protocol protocol : protocols) {
    harness::ExperimentJob& job = jobs.emplace_back();
    job.loss = file.loss;
    job.links = links;
    job.protocol = protocol;
    job.config = cfg;
  }
  const auto outcomes = runner_from_flags(flags).run(std::move(jobs));
  write_artifacts(flags, outcomes, file.loss->name());
  return outcomes;
}

int cmd_simulate(const util::CliFlags& flags,
                 const harness::ExperimentConfig& base) {
  const auto file = trace::load_trace(flags.get_string("in"));
  const auto cfg = config_from_flags(flags, base);
  if (!cfg) return 1;
  const std::string protocol = flags.get_string("protocol");
  const auto proto = try_parse_protocol(protocol);
  if (!proto) {
    std::cerr << "simulate: unknown --protocol '" << protocol
              << "' (valid: " << protocol_names() << ")\n";
    return 1;
  }

  const auto outcomes = replay(flags, *cfg, file, {*proto});
  const auto& result = outcomes.front().result;
  std::cout << protocol_name(*proto) << " on " << file.loss->name()
            << ":\n"
            << "  mean normalized recovery time: "
            << util::fmt_fixed(result.mean_normalized_recovery_time(), 3)
            << " RTT\n"
            << "  losses detected " << util::fmt_count(
                   result.total_losses_detected())
            << ", silent repairs " << util::fmt_count(
                   result.total_silent_repairs())
            << ", unrecovered " << util::fmt_count(result.total_unrecovered())
            << "\n"
            << "  requests " << util::fmt_count(result.total_requests_sent())
            << " multicast + " << util::fmt_count(
                   result.total_exp_requests_sent())
            << " expedited unicast\n"
            << "  replies  " << util::fmt_count(result.total_replies_sent())
            << " multicast + " << util::fmt_count(
                   result.total_exp_replies_sent())
            << " expedited\n"
            << "  events executed " << util::fmt_count(result.events_executed)
            << "\n";
  return 0;
}

int cmd_compare(const util::CliFlags& flags,
                const harness::ExperimentConfig& base) {
  const auto file = trace::load_trace(flags.get_string("in"));
  const auto cfg = config_from_flags(flags, base);
  if (!cfg) return 1;
  const auto outcomes =
      replay(flags, *cfg, file, {Protocol::kSrm, Protocol::kCesrm});
  const auto& srm = outcomes[0].result;
  const auto& cesrm = outcomes[1].result;

  util::TextTable table("Per-receiver avg normalized recovery time (RTTs):");
  table.set_header({"receiver", "SRM", "CESRM", "CESRM/SRM"});
  for (const auto& row : harness::figure1(srm, cesrm)) {
    table.add_row({std::to_string(row.receiver),
                   util::fmt_fixed(row.srm_avg_norm, 3),
                   util::fmt_fixed(row.cesrm_avg_norm, 3),
                   row.srm_avg_norm > 0 ? util::fmt_fixed(row.ratio(), 3)
                                        : "-"});
  }
  table.print();

  const auto f5 = harness::figure5(srm, cesrm);
  std::cout << "\nexpedited success "
            << util::fmt_fixed(f5.pct_successful_expedited, 1)
            << "%; retransmission overhead "
            << util::fmt_fixed(f5.retransmission_pct_of_srm, 1)
            << "% of SRM; control overhead "
            << util::fmt_fixed(f5.total_control_pct_of_srm(), 1)
            << "% of SRM ("
            << util::fmt_fixed(f5.control_unicast_pct_of_srm, 1)
            << " points unicast)\n";
  return 0;
}

// ---------------------------------------------------------- netio ------

// Runs the protocol over real loopback UDP sockets (src/netio) and prints
// the simulate-style recovery summary plus datagram accounting. Flag
// validation failures print a one-line hint and return 1; socket setup
// failures (port in use, refused multicast join, non-Linux build) surface
// through main's catch with the sockets' own friendly hints.
int cmd_netio_run(const util::CliFlags& flags,
                  const harness::ExperimentConfig& base) {
  // Reuse the simulate/compare validation for the shared protocol flags
  // (cache-policy side-info refusal, --trace-out extension, seed).
  const auto maybe_cfg = config_from_flags(flags, base);
  if (!maybe_cfg) return 1;

  netio::NetioRunConfig cfg;
  cfg.cesrm = maybe_cfg->cesrm;
  cfg.seed = maybe_cfg->seed;
  const std::string protocol = flags.get_string("protocol");
  const auto parsed = try_parse_protocol(protocol);
  if (!parsed || *parsed == Protocol::kLms) {
    std::cerr << "netio-run: unknown --protocol '" << protocol
              << "' (valid: srm, cesrm; lms needs router state no socket "
                 "backend provides)\n";
    return 1;
  }
  cfg.protocol = *parsed;

  cfg.tree_text = flags.get_string("tree");
  cfg.shape.receivers = static_cast<int>(flags.get_int("receivers"));
  cfg.shape.depth = static_cast<int>(flags.get_int("depth"));
  cfg.shape.max_branching = static_cast<int>(flags.get_int("branching"));

  const auto mcast_addr = netio::parse_ipv4(flags.get_string("mcast-addr"));
  if (!mcast_addr || !netio::is_multicast_addr(*mcast_addr)) {
    std::cerr << "netio-run: bad --mcast-addr '"
              << flags.get_string("mcast-addr")
              << "' (valid: an IPv4 group in 224.0.0.0-239.255.255.255; "
                 "the organization-local 239.192.0.0/16 range is a good "
                 "default)\n";
    return 1;
  }
  cfg.mcast_addr = *mcast_addr;
  const std::int64_t port = flags.get_int("mcast-port");
  if (port < 1024 || port > 65535) {
    std::cerr << "netio-run: bad --mcast-port " << port
              << " (valid: any free UDP port 1024-65535)\n";
    return 1;
  }
  cfg.mcast_port = static_cast<std::uint16_t>(port);

  cfg.shim.seed = cfg.seed;
  cfg.shim.data_loss = flags.get_double("data-loss");
  cfg.shim.control_loss = flags.get_double("control-loss");
  cfg.shim.link_delay = sim::SimTime::millis(flags.get_int("link-delay-ms"));
  cfg.shim.jitter = sim::SimTime::millis(flags.get_int("jitter-ms"));
  const std::string lossy = flags.get_string("lossy-links");
  if (!lossy.empty()) {
    for (const auto& part : util::split(lossy, ',')) {
      const auto link = util::parse_int(part);
      if (!link) {
        std::cerr << "netio-run: bad --lossy-links '" << lossy
                  << "' (valid: comma-separated link ids, each named by "
                     "its child node, e.g. --lossy-links=1,3)\n";
        return 1;
      }
      cfg.shim.lossy_links.push_back(static_cast<net::NodeId>(*link));
    }
  }

  cfg.packets = flags.get_int("packets");
  cfg.period = sim::SimTime::millis(flags.get_int("period-ms"));
  cfg.warmup = sim::SimTime::millis(flags.get_int("warmup-ms"));
  cfg.drain = sim::SimTime::millis(flags.get_int("drain-ms"));
  cfg.cesrm.srm.session_period =
      sim::SimTime::millis(flags.get_int("session-ms"));
  cfg.cesrm.srm.oracle_distances = flags.get_bool("oracle-distances");
  cfg.observe_trace = maybe_cfg->observe.trace;

  netio::NetioRunResult out = netio::run_netio(cfg);
  const harness::ExperimentResult& result = out.experiment;

  harness::JobOutcome outcome;
  outcome.protocol = cfg.protocol;
  outcome.label = result.trace_name;
  outcome.result = result;
  outcome.seed = cfg.seed;
  outcome.wall_seconds = out.wall_seconds;
  const std::vector<harness::JobOutcome> outcomes{std::move(outcome)};
  write_artifacts(flags, outcomes, result.trace_name);

  std::uint64_t send_failures = 0, self_filtered = 0, received = 0;
  for (const auto& s : out.sockets) {
    send_failures += s.send_failures;
    self_filtered += s.self_filtered;
    received += s.datagrams_received;
  }
  std::cout << protocol_name(cfg.protocol) << " over loopback UDP ("
            << result.members.size() << " members, tree "
            << (cfg.tree_text.empty() ? "random" : cfg.tree_text) << "):\n"
            << "  invariant oracle: all " << result.packets_sent
            << " packets at every member, zero unrecovered\n"
            << "  mean normalized recovery time: "
            << util::fmt_fixed(result.mean_normalized_recovery_time(), 3)
            << " RTT\n"
            << "  losses detected " << util::fmt_count(
                   result.total_losses_detected())
            << ", silent repairs " << util::fmt_count(
                   result.total_silent_repairs())
            << ", shim drops " << util::fmt_count(out.total_shim_dropped())
            << "\n"
            << "  requests " << util::fmt_count(result.total_requests_sent())
            << " multicast + " << util::fmt_count(
                   result.total_exp_requests_sent())
            << " expedited unicast\n"
            << "  datagrams " << util::fmt_count(out.total_datagrams_sent())
            << " sent, " << util::fmt_count(received) << " received, "
            << util::fmt_count(self_filtered) << " self-filtered, "
            << util::fmt_count(send_failures) << " send failures\n"
            << "  wall time " << util::fmt_fixed(out.wall_seconds, 2)
            << " s\n";
  return 0;
}

// ----------------------------------------------------------- wire ------

bool read_binary_file(const std::string& path,
                      std::vector<std::uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return !in.bad();
}

// One human-readable line per decoded frame.
void print_frame(std::size_t index, std::size_t offset,
                 const net::Packet& pkt) {
  std::cout << "[" << index << "] @" << offset << " "
            << net::packet_type_name(pkt.type) << " src=" << pkt.source
            << " seq=" << pkt.seq << " sender=" << pkt.sender;
  if (pkt.dest != net::kInvalidNode) std::cout << " dest=" << pkt.dest;
  if (pkt.size_bytes > 0) std::cout << " payload=" << pkt.size_bytes;
  if (pkt.type == net::PacketType::kSession && pkt.session)
    std::cout << " streams=" << pkt.session->streams.size()
              << " echoes=" << pkt.session->echoes.size();
  if (pkt.ann.requestor != net::kInvalidNode)
    std::cout << " ann=<q=" << pkt.ann.requestor << ",d_qs="
              << util::fmt_fixed(pkt.ann.dist_requestor_source, 4)
              << ",r=" << pkt.ann.replier << ",d_rq="
              << util::fmt_fixed(pkt.ann.dist_replier_requestor, 4)
              << ",tp=" << pkt.ann.turning_point << ">";
  std::cout << " (" << pkt.encoded_size() << " B)\n";
}

int print_decode_error(const wire::DecodeError& err) {
  std::cerr << "malformed frame: " << wire::decode_error_name(err.kind)
            << " at byte " << err.offset;
  if (err.field[0] != '\0') std::cerr << " (field: " << err.field << ")";
  std::cerr << "\n";
  return 2;
}

int cmd_wire_gen(const util::CliFlags& flags) {
  const std::string out_path = flags.get_string("out");
  if (out_path.empty()) {
    std::cerr << "wire-gen: --out=FILE is required\n";
    return 1;
  }
  const std::int64_t count = flags.get_int("count");
  if (count < 1) {
    std::cerr << "wire-gen: bad --count " << count << " (want >= 1)\n";
    return 1;
  }
  util::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  wire::Encoder enc;
  for (std::int64_t i = 0; i < count; ++i)
    enc.add(wire::random_packet(rng));
  std::ofstream out(out_path, std::ios::binary);
  if (!out ||
      !out.write(reinterpret_cast<const char*>(enc.bytes().data()),
                 static_cast<std::streamsize>(enc.bytes().size()))) {
    std::cerr << "wire-gen: could not write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << ": " << enc.total_count()
            << " frames, " << enc.total_bytes() << " bytes\n";
  for (int t = 0; t < net::kPacketTypeCount; ++t) {
    const auto type = static_cast<net::PacketType>(t);
    if (enc.count_of(type) == 0) continue;
    std::cout << "  " << net::packet_type_name(type) << ": "
              << enc.count_of(type) << " frames, " << enc.bytes_of(type)
              << " bytes\n";
  }
  return 0;
}

int cmd_wire_dump(const util::CliFlags& flags) {
  std::vector<std::uint8_t> buf;
  if (!read_binary_file(flags.get_string("in"), &buf)) {
    std::cerr << "wire-dump: could not read '" << flags.get_string("in")
              << "'\n";
    return 1;
  }
  const std::int64_t max = flags.get_int("max");
  wire::Decoder dec(buf);
  net::Packet pkt;
  std::size_t printed = 0;
  while (true) {
    const std::size_t offset = dec.offset();
    if (!dec.next(&pkt)) break;
    if (max <= 0 || static_cast<std::int64_t>(printed) < max)
      print_frame(dec.frames_decoded() - 1, offset, pkt);
    ++printed;
  }
  if (dec.error()) return print_decode_error(*dec.error());
  if (max > 0 && static_cast<std::int64_t>(printed) > max)
    std::cout << "... (" << printed - static_cast<std::size_t>(max)
              << " more frames)\n";
  std::cout << dec.frames_decoded() << " frames, " << dec.offset()
            << " bytes\n";
  return 0;
}

int cmd_wire_check(const util::CliFlags& flags) {
  std::vector<std::uint8_t> buf;
  if (!read_binary_file(flags.get_string("in"), &buf)) {
    std::cerr << "wire-check: could not read '" << flags.get_string("in")
              << "'\n";
    return 1;
  }
  wire::Decoder dec(buf);
  wire::Encoder reenc;
  net::Packet pkt;
  while (true) {
    const std::size_t offset = dec.offset();
    if (!dec.next(&pkt)) break;
    // Canonicality: the accepted frame must re-encode to its own bytes.
    const std::size_t size = reenc.add(pkt);
    const auto& re = reenc.bytes();
    if (size != dec.offset() - offset ||
        !std::equal(re.end() - static_cast<std::ptrdiff_t>(size), re.end(),
                    buf.begin() + static_cast<std::ptrdiff_t>(offset))) {
      std::cerr << "non-canonical frame at byte " << offset
                << ": re-encode differs\n";
      return 2;
    }
  }
  if (dec.error()) return print_decode_error(*dec.error());
  std::cout << "ok: " << dec.frames_decoded() << " frames, " << dec.offset()
            << " bytes, all canonical\n";
  return 0;
}

// ------------------------------------------------------ forensics ------

// Loads the JSONL event trace named by --in; false (after a friendly
// message) when the file is missing, not .jsonl, or malformed.
bool load_jsonl_events(const util::CliFlags& flags, const char* cmd,
                       std::vector<obs::TraceEvent>* out) {
  const std::string path = flags.get_string("in");
  if (path.empty()) {
    std::cerr << cmd << ": --in=FILE.jsonl is required (record one with "
                 "--trace-out=FILE.jsonl on a bench or simulate/compare)\n";
    return false;
  }
  if (!path.ends_with(".jsonl")) {
    std::cerr << cmd << ": '" << path
              << "' is not a .jsonl trace (forensics read the JSONL "
                 "format; Chrome traces are for the viewer)\n";
    return false;
  }
  std::ifstream in(path);
  if (!in) {
    std::cerr << cmd << ": could not read '" << path << "'\n";
    return false;
  }
  auto parsed = obs::read_events_jsonl(in);
  if (!parsed.ok) {
    std::cerr << cmd << ": " << path << " line " << parsed.error_line << ": "
              << parsed.error << "\n";
    return false;
  }
  if (parsed.events.empty()) {
    std::cerr << cmd << ": '" << path << "' holds no events\n";
    return false;
  }
  *out = std::move(parsed.events);
  return true;
}

// A JSONL artifact concatenates one stream per experiment job, each
// starting over at sim-time ~0; analyze_causal expects ONE run. Split at
// every time regression so each job is analyzed against its own clock.
std::vector<std::span<const obs::TraceEvent>> split_jobs(
    const std::vector<obs::TraceEvent>& events) {
  std::vector<std::span<const obs::TraceEvent>> jobs;
  std::size_t start = 0;
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].at < events[i - 1].at) {
      jobs.push_back(std::span(events).subspan(start, i - start));
      start = i;
    }
  }
  jobs.push_back(std::span(events).subspan(start));
  return jobs;
}

// One recovery, fully attributed: the header line plus a per-phase
// breakdown whose durations provably sum to the recovery latency.
void print_chain(const obs::CausalChain& c, int job, bool multi_job) {
  const obs::LossLifecycle& lc = c.lifecycle;
  if (multi_job) std::cout << "[job " << job << "] ";
  std::cout << "loss " << lc.source << ':' << lc.seq << " at node " << lc.node
            << " — " << util::fmt_fixed(
                   static_cast<double>(c.latency_ns) / 1e6, 3)
            << " ms (" << (lc.expedited ? "expedited" : "reactive");
  if (c.cache == obs::CacheConsult::kHit)
    std::cout << ", cache hit";
  else if (c.cache == obs::CacheConsult::kMiss)
    std::cout << ", cache miss";
  std::cout << "), repair from node " << c.replier << "\n"
            << "  detected at "
            << util::fmt_fixed(lc.detect_time.to_millis(), 3) << " ms; own: "
            << lc.requests << " requests, " << lc.suppressions
            << " suppressions; group-wide: " << c.group_requests
            << " requests, " << c.group_replies << " repairs\n";
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    if (c.phase_ns[p] == 0) continue;
    const double ms = static_cast<double>(c.phase_ns[p]) / 1e6;
    const double pct = c.latency_ns > 0
                           ? 100.0 * static_cast<double>(c.phase_ns[p]) /
                                 static_cast<double>(c.latency_ns)
                           : 0.0;
    std::cout << "    " << obs::phase_name(static_cast<obs::Phase>(p));
    for (std::size_t pad =
             std::char_traits<char>::length(
                 obs::phase_name(static_cast<obs::Phase>(p)));
         pad < 16; ++pad)
      std::cout << ' ';
    std::cout << util::fmt_fixed(ms, 3) << " ms  ("
              << util::fmt_fixed(pct, 1) << "%)\n";
  }
}

int cmd_explain(const util::CliFlags& flags) {
  std::vector<obs::TraceEvent> events;
  if (!load_jsonl_events(flags, "explain", &events)) return 1;
  const auto jobs = split_jobs(events);
  std::vector<obs::CausalReport> reports;
  reports.reserve(jobs.size());
  for (const auto& job : jobs) reports.push_back(obs::analyze_causal(job));
  const bool multi = reports.size() > 1;

  const std::string loss = flags.get_string("loss");
  if (!loss.empty()) {
    const auto parts = util::split(loss, ',');
    std::optional<std::int64_t> src, seq;
    if (parts.size() == 2) {
      src = util::parse_int(parts[0]);
      seq = util::parse_int(parts[1]);
    }
    if (!src || !seq) {
      std::cerr << "explain: bad --loss '" << loss
                << "' (want --loss=SOURCE,SEQ, e.g. --loss=0,1234)\n";
      return 1;
    }
    bool found = false;
    for (std::size_t j = 0; j < reports.size(); ++j) {
      for (const obs::CausalChain& c : reports[j].chains) {
        if (c.lifecycle.source != *src || c.lifecycle.seq != *seq) continue;
        print_chain(c, static_cast<int>(j), multi);
        found = true;
      }
    }
    if (!found) {
      std::cerr << "explain: no recovered loss " << *src << ':' << *seq
                << " in the trace\n";
      return 1;
    }
    return 0;
  }

  // No --loss: the N slowest recoveries across all jobs, slowest first.
  const std::int64_t top = flags.get_int("top");
  std::vector<std::pair<int, const obs::CausalChain*>> slowest;
  std::uint64_t recovered = 0;
  for (std::size_t j = 0; j < reports.size(); ++j) {
    recovered += reports[j].timeline.recovered;
    for (const obs::CausalChain& c : reports[j].chains)
      slowest.emplace_back(static_cast<int>(j), &c);
  }
  std::stable_sort(slowest.begin(), slowest.end(),
                   [](const auto& a, const auto& b) {
                     return a.second->latency_ns > b.second->latency_ns;
                   });
  if (top > 0 && static_cast<std::size_t>(top) < slowest.size())
    slowest.resize(static_cast<std::size_t>(top));
  std::cout << recovered << " recoveries in the trace; " << slowest.size()
            << " slowest:\n\n";
  for (const auto& [job, c] : slowest) print_chain(*c, job, multi);
  return 0;
}

int cmd_analyze(const util::CliFlags& flags) {
  std::vector<obs::TraceEvent> events;
  if (!load_jsonl_events(flags, "analyze", &events)) return 1;
  const auto jobs = split_jobs(events);
  std::vector<obs::CausalReport> reports;
  reports.reserve(jobs.size());
  for (const auto& job : jobs) reports.push_back(obs::analyze_causal(job));

  for (std::size_t j = 0; j < reports.size(); ++j) {
    const obs::CausalReport& report = reports[j];
    const obs::RecoveryTimeline& tl = report.timeline;
    if (reports.size() > 1) std::cout << "== job " << j << " ==\n";
    std::cout << "losses:      " << tl.losses << " detected, " << tl.recovered
              << " recovered, " << tl.unrecovered << " open, " << tl.abandoned
              << " abandoned at crashes\n"
              << "expedited:   " << tl.expedited_successes << " of "
              << tl.recovered << " recoveries\n"
              << "latency:     median "
              << util::fmt_fixed(
                     static_cast<double>(report.median_latency_ns) / 1e6, 3)
              << " ms (reactive median "
              << util::fmt_fixed(
                     static_cast<double>(report.median_reactive_latency_ns) /
                         1e6, 3)
              << " ms)\n"
              << "anomalies:   " << report.anomalies.size() << "\n";
    for (const obs::Anomaly& a : report.anomalies)
      std::cout << "  [" << obs::anomaly_kind_name(a.kind) << "] loss "
                << a.source << ':' << a.seq << " at node " << a.node << ": "
                << a.note << "\n";
    if (j + 1 < reports.size()) std::cout << "\n";
  }

  // The machine-readable report is always an array — one causal report per
  // job segment — so consumers need not care how many jobs the file held.
  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: could not write " << json_path << "\n";
      return 1;
    }
    out << "[";
    for (std::size_t j = 0; j < reports.size(); ++j) {
      if (j > 0) out << ",";
      out << "\n";
      obs::write_causal_report_json(out, reports[j]);
    }
    out << "]\n";
    std::cerr << "wrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags(
      "cesrm_cli — generate/inspect/estimate/simulate/compare CESRM traces, "
      "wire-gen/wire-dump/wire-check binary PDU frames");
  flags.add_int("trace", 1, "Table-1 trace id for 'generate'");
  flags.add_int("packets-cap", 0, "cap packets when generating (0 = full)");
  flags.add_string("out", "", "output trace file for 'generate'");
  flags.add_string("in", "", "input trace file");
  flags.add_string("method", "yajnik", "estimator: yajnik | minc");
  flags.add_string("protocol", "cesrm", "protocol for 'simulate': srm | cesrm | lms");
  flags.add_string("policy", "most-recent",
                   "expedition policy: most-recent | most-frequent");
  flags.add_string("cache-policy", "recency",
                   std::string("cache replacement policy: ") +
                       ::cesrm::cesrm::cache_policy_names());
  flags.add_string("durable", "off",
                   std::string("durable recovery state for 'simulate': ") +
                       ::cesrm::durable::durable_mode_names());
  flags.add_bool("router-assist", false, "enable §3.3 router assistance");
  flags.add_bool("adaptive", false, "enable adaptive SRM timers");
  flags.add_int("seed", 1, "experiment seed");
  flags.add_int("jobs", 0,
                "worker threads for simulate/compare (0 = hardware)");
  flags.add_string("json", "",
                   "write simulate/compare results to FILE as JSON");
  flags.add_string("trace-out", "",
                   "write the protocol-event trace of simulate/compare here "
                   "(Chrome trace_event JSON; JSONL when the path ends in "
                   ".jsonl)");
  flags.add_string("metrics-out", "",
                   "write simulate/compare run metrics here as JSON");
  flags.add_string("log-level", "warn",
                   "log threshold: trace|debug|info|warn|error|off");
  flags.add_string("tree", "",
                   "explicit netio-run topology, e.g. \"0(1(3 4) 2)\" "
                   "(empty: a random --receivers/--depth/--branching tree)");
  flags.add_int("receivers", 8, "random-tree receivers for 'netio-run'");
  flags.add_int("depth", 3, "random-tree depth for 'netio-run'");
  flags.add_int("branching", 4, "random-tree max branching for 'netio-run'");
  flags.add_string("mcast-addr", "239.192.58.1",
                   "multicast group for 'netio-run' (IPv4, on loopback)");
  flags.add_int("mcast-port", 47500,
                "shared UDP port every member's group socket binds");
  flags.add_double("data-loss", 0.0,
                   "seeded per-link DATA drop probability at the sockets");
  flags.add_double("control-loss", 0.0,
                   "seeded per-link control drop probability (requests/"
                   "replies; sessions are never dropped)");
  flags.add_int("link-delay-ms", 20,
                "emulated per-hop propagation delay (>= 1)");
  flags.add_int("jitter-ms", 0, "max extra seeded per-arrival jitter");
  flags.add_string("lossy-links", "",
                   "restrict seeded loss to these links (comma-separated "
                   "child-node ids; empty = every link)");
  flags.add_int("packets", 50, "data packets the netio-run source sends");
  flags.add_int("period-ms", 20, "data transmission period for 'netio-run'");
  flags.add_int("warmup-ms", 750,
                "session-only warm-up before the first data packet");
  flags.add_int("drain-ms", 3000,
                "tail-recovery window after the last data packet");
  flags.add_int("session-ms", 500,
                "session period for 'netio-run' (doubles as the tail-loss "
                "detection bound)");
  flags.add_bool("oracle-distances", false,
                 "skip session-based distance estimation in 'netio-run'");
  flags.add_int("count", 100, "frames to generate for 'wire-gen'");
  flags.add_int("max", 0, "max frames to print for 'wire-dump' (0 = all)");
  flags.add_string("loss", "",
                   "loss to explain as SOURCE,SEQ (default: slowest "
                   "recoveries)");
  flags.add_int("top", 10, "how many slowest recoveries 'explain' prints");
  if (!flags.parse(argc, argv)) return 1;
  harness::ExperimentConfig run_cfg;
  if (!harness::read_run_flags(flags, &run_cfg)) return 1;

  if (flags.positional().size() != 1) {
    std::cerr << "usage: cesrm_cli <generate|inspect|estimate|simulate|"
                 "compare|netio-run|explain|analyze|wire-gen|wire-dump|"
                 "wire-check> [flags]\n"
              << flags.usage();
    return 1;
  }
  const std::string& cmd = flags.positional()[0];
  try {
    if (cmd == "generate") return cmd_generate(flags);
    if (cmd == "inspect") return cmd_inspect(flags);
    if (cmd == "estimate") return cmd_estimate(flags);
    if (cmd == "simulate") return cmd_simulate(flags, run_cfg);
    if (cmd == "compare") return cmd_compare(flags, run_cfg);
    if (cmd == "netio-run") return cmd_netio_run(flags, run_cfg);
    if (cmd == "explain") return cmd_explain(flags);
    if (cmd == "analyze") return cmd_analyze(flags);
    if (cmd == "wire-gen") return cmd_wire_gen(flags);
    if (cmd == "wire-dump") return cmd_wire_dump(flags);
    if (cmd == "wire-check") return cmd_wire_check(flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown command: " << cmd << "\n";
  return 1;
}
