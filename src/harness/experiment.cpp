#include "harness/experiment.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "fault/fault_scheduler.hpp"
#include "fault/oracle.hpp"
#include "infer/link_estimator.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace cesrm::harness {

namespace {

/// One per-member counter summed over the members.
std::uint64_t sum_of(const std::vector<MemberResult>& members,
                     std::uint64_t srm::HostStats::*counter) {
  std::uint64_t n = 0;
  for (const auto& m : members) n += m.stats.*counter;
  return n;
}

/// Recovery records over all members whose outcome is `recovered`.
std::uint64_t count_recoveries(const std::vector<MemberResult>& members,
                               bool recovered) {
  std::uint64_t n = 0;
  for (const auto& m : members)
    for (const auto& r : m.stats.recoveries) n += r.recovered == recovered;
  return n;
}

}  // namespace

std::uint64_t ExperimentResult::total_losses_detected() const {
  return sum_of(members, &srm::HostStats::losses_detected);
}
std::uint64_t ExperimentResult::total_silent_repairs() const {
  return sum_of(members, &srm::HostStats::repairs_before_detection);
}
std::uint64_t ExperimentResult::total_recovered() const {
  return count_recoveries(members, true);
}
std::uint64_t ExperimentResult::total_unrecovered() const {
  return count_recoveries(members, false);
}
std::uint64_t ExperimentResult::total_requests_sent() const {
  return sum_of(members, &srm::HostStats::requests_sent);
}
std::uint64_t ExperimentResult::total_replies_sent() const {
  return sum_of(members, &srm::HostStats::replies_sent);
}
std::uint64_t ExperimentResult::total_exp_requests_sent() const {
  return sum_of(members, &srm::HostStats::exp_requests_sent);
}
std::uint64_t ExperimentResult::total_exp_replies_sent() const {
  return sum_of(members, &srm::HostStats::exp_replies_sent);
}

double ExperimentResult::mean_normalized_recovery_time() const {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const auto& m : members) {
    if (m.is_source || m.rtt_to_source <= 0.0) continue;
    for (const auto& r : m.stats.recoveries) {
      if (!r.recovered) continue;
      sum += r.latency_seconds() / m.rtt_to_source;
      ++count;
    }
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

namespace {

/// CacheSideInfo backed by the synthetic trace: the true injected loss
/// link per (receiver, packet), straight from the link trace
/// representation that also drives loss injection — so the oracle policy
/// sees exactly the links that drop.
class LinkTraceSideInfo final : public cesrm::CacheSideInfo {
 public:
  LinkTraceSideInfo(const trace::LossTrace& trace,
                    const infer::LinkTraceRepresentation& links)
      : trace_(trace), links_(links) {
    const auto& receivers = trace.receivers();
    for (std::size_t i = 0; i < receivers.size(); ++i)
      ridx_[receivers[i]] = i;
  }

  net::LinkId drop_link(net::NodeId observer, net::NodeId source,
                        net::SeqNo seq) const override {
    if (source != trace_.tree().root() || seq < 0 ||
        seq >= trace_.packet_count())
      return net::kInvalidLink;
    const auto it = ridx_.find(observer);
    if (it == ridx_.end()) return net::kInvalidLink;
    return links_.link_for(it->second, seq);
  }

 private:
  const trace::LossTrace& trace_;
  const infer::LinkTraceRepresentation& links_;
  std::map<net::NodeId, std::size_t> ridx_;  // receiver NodeId → index
};

ExperimentResult run_experiment_impl(
    const trace::LossTrace& loss_trace,
    const infer::LinkTraceRepresentation& links,
    const ExperimentConfig& config) {
  CESRM_CHECK_MSG(config.protocol != Protocol::kLms || config.faults.empty(),
                  "LMS runs take no fault plan: the invariant oracle's "
                  "stall check reads SRM request timers, which LmsAgent "
                  "disarms");
  const auto& tree = loss_trace.tree();
  sim::Simulator sim;

  // Observability: the recorder outlives the run (agents emit during
  // stop_session/finalize too) and must attach before any event fires.
  std::optional<obs::TraceRecorder> recorder;
  if (config.observe.enabled()) {
    recorder.emplace(config.observe);
    sim.set_recorder(&*recorder);
  }

  net::Network network(sim, tree, config.network);
  util::Rng rng(config.seed);

  const net::NodeId source = tree.root();
  const std::vector<net::NodeId> member_nodes = group_members(tree);

  // Side info for the oracle cache policy. Auto-installed from the trace
  // when the selected policy wants it and the caller did not supply its
  // own; declared before the agents so it outlives them.
  cesrm::CesrmConfig cesrm_cfg = config.cesrm;
  std::optional<LinkTraceSideInfo> side_info;
  if (config.protocol == Protocol::kCesrm &&
      cesrm_cfg.cache.side_info == nullptr &&
      cesrm::cache_policy_needs_side_info(cesrm_cfg.cache.policy)) {
    side_info.emplace(loss_trace, links);
    cesrm_cfg.cache.side_info = &*side_info;
  }

  std::optional<lms::LmsDirectory> directory;
  if (config.protocol == Protocol::kLms)
    directory.emplace(sim, tree, kLmsRepairDelay);

  std::vector<std::unique_ptr<srm::SrmAgent>> agents;
  agents.reserve(member_nodes.size());
  for (net::NodeId node : member_nodes)
    agents.push_back(make_agent(config.protocol, cesrm_cfg,
                                directory ? &*directory : nullptr, sim,
                                network, node, source, rng));

  // --- durable recovery state --------------------------------------------
  // Mode off constructs nothing: the agents keep their null sinks and the
  // run is byte-identical to a build without the durable subsystem.
  std::optional<durable::Manager> durable_mgr;
  if (config.durable.mode != durable::DurableMode::kOff) {
    durable_mgr.emplace(config.durable);
    for (auto& agent : agents) durable_mgr->attach(*agent);
  }

  // --- fault injection ---------------------------------------------------
  // A non-empty plan turns crashes/outages/bursts into simulator events
  // and arms the invariant oracle; an empty plan leaves the run untouched.
  std::optional<fault::FaultScheduler> faults;
  std::optional<fault::InvariantOracle> oracle;
  if (!config.faults.empty()) {
    faults.emplace(sim, network, config.faults, config.seed);
    oracle.emplace(sim, tree);
    for (std::size_t i = 0; i < agents.size(); ++i) {
      faults->add_member(member_nodes[i], agents[i].get());
      oracle->add_member(member_nodes[i], agents[i].get());
    }
    if (durable_mgr) {
      durable::Manager* mgr = &*durable_mgr;
      faults->set_crash_hooks(
          [mgr](net::NodeId, srm::SrmAgent& agent) { mgr->on_crash(agent); },
          [mgr](net::NodeId, srm::SrmAgent& agent) {
            mgr->before_recover(agent);
          });
    }
  }

  // --- loss injection ---------------------------------------------------
  // Data packets drop on exactly the links named by the link trace
  // representation (downstream crossings only — data flows down the tree).
  // Recovery packets are lossless unless lossy_recovery is on, in which
  // case each crossing flips a coin with the link's estimated loss rate.
  // Session packets are never dropped (§4.3).
  std::vector<double> recovery_rates;
  if (config.lossy_recovery)
    recovery_rates = infer::estimate_links_yajnik(loss_trace).loss_rate;
  util::Rng drop_rng = rng.fork(0x10551055ULL);

  net::DropFn base_drop = [&](const net::Packet& pkt, net::NodeId from,
                              net::NodeId to) {
    switch (pkt.type) {
      case net::PacketType::kData: {
        if (tree.parent(to) != from) return false;  // upstream: impossible
        const auto& drops = links.drop_links(pkt.seq);
        return std::binary_search(drops.begin(), drops.end(), to);
      }
      case net::PacketType::kSession:
        return false;
      default: {
        if (!config.lossy_recovery) return false;
        const net::LinkId link = tree.parent(to) == from ? to : from;
        return drop_rng.bernoulli(
            recovery_rates[static_cast<std::size_t>(link)]);
      }
    }
  };
  if (faults)
    faults->install(std::move(base_drop));  // layers fault drops on top
  else
    network.set_drop_fn(std::move(base_drop));

  // --- session warm-up ---------------------------------------------------
  for (auto& agent : agents)
    agent->start_session(session_offset(rng, config.cesrm.srm.session_period));

  // --- data transmission --------------------------------------------------
  net::SeqNo packet_count = loss_trace.packet_count();
  if (config.max_packets > 0)
    packet_count = std::min(packet_count, config.max_packets);
  srm::SrmAgent* src_agent = agents.front().get();
  // A blocked source (pause clause, or a crashed source) defers the
  // pending packet to the resume time, and a crash-stopped source simply
  // ends the transmission early.
  PeriodicSource data_source(
      sim, loss_trace.period(), packet_count,
      [src_agent](net::SeqNo seq) { src_agent->send_data(seq); },
      [&faults]() -> std::optional<sim::SimTime> {
        if (!faults || !faults->source_blocked()) return std::nullopt;
        return faults->source_resume_time();
      });
  data_source.start(config.warmup);

  sim::SimTime horizon =
      config.warmup +
      loss_trace.period() * static_cast<std::int64_t>(packet_count) +
      config.drain;
  if (!config.faults.empty())
    horizon += config.faults.horizon_slack() + config.fault_settle;
  if (oracle) {
    for (const fault::ResolvedCrash& crash : faults->crashes())
      oracle->note_crash(crash);
    oracle->start(horizon);
  }
  sim.run_until(horizon);
  if (oracle) oracle->finish(data_source.sent(), source);

  // --- collection ---------------------------------------------------------
  ExperimentResult result;
  result.trace_name = loss_trace.name();
  result.protocol = config.protocol;
  result.events_executed = sim.events_executed();
  result.sim_end = sim.now();
  result.packets_sent = data_source.sent();
  for (auto& agent : agents)
    result.members.push_back(collect_member(*agent, network, source));
  result.crossings = network.crossings();

  if (recorder) {
    if (config.observe.trace)
      result.events = std::make_shared<const std::vector<obs::TraceEvent>>(
          recorder->take_events());
    if (config.observe.stream) result.sketch = recorder->take_sketch();
    if (config.observe.metrics) {
      obs::MetricsRegistry reg;
      for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
        const auto kind = static_cast<obs::EventKind>(k);
        if (const std::uint64_t n = recorder->count(kind))
          reg.add(std::string("events.") + obs::event_kind_name(kind), n);
      }
      reg.add("sim.events_executed", sim.events_executed());
      reg.add("sim.events_scheduled", sim.events_scheduled());
      reg.add("sim.events_cancelled", sim.events_cancelled());
      reg.gauge_max("sim.queue_high_water",
                    static_cast<double>(sim.queue_high_water()));
      reg.add("protocol.losses_detected", result.total_losses_detected());
      reg.add("protocol.silent_repairs", result.total_silent_repairs());
      reg.add("protocol.recovered", result.total_recovered());
      reg.add("protocol.unrecovered", result.total_unrecovered());
      reg.add("protocol.requests_sent", result.total_requests_sent());
      reg.add("protocol.replies_sent", result.total_replies_sent());
      reg.add("protocol.exp_requests_sent", result.total_exp_requests_sent());
      reg.add("protocol.exp_replies_sent", result.total_exp_replies_sent());
      // Cache-policy counters. Only for non-default policies: with the
      // default recency policy every metrics artifact must stay
      // byte-identical to the pre-laboratory output.
      if (config.protocol == Protocol::kCesrm &&
          cesrm_cfg.cache.policy != cesrm::CachePolicyKind::kRecency) {
        const auto& ms = result.members;
        reg.add("cache.hits", sum_of(ms, &srm::HostStats::cache_hits));
        reg.add("cache.misses", sum_of(ms, &srm::HostStats::cache_misses));
        reg.add("cache.insertions",
                sum_of(ms, &srm::HostStats::cache_insertions));
        reg.add("cache.updates", sum_of(ms, &srm::HostStats::cache_updates));
        reg.add("cache.evictions",
                sum_of(ms, &srm::HostStats::cache_evictions));
        reg.add("cache.rejects", sum_of(ms, &srm::HostStats::cache_rejects));
      }
      // Durable-store counters. Only when durability is on: with the
      // default (off) every metrics artifact stays byte-identical to the
      // pre-durability output.
      if (durable_mgr) {
        const durable::DurableTotals t = durable_mgr->totals();
        reg.add("durable.records_appended", t.records_appended);
        reg.add("durable.bytes_appended", t.bytes_appended);
        reg.add("durable.records_dropped_at_crash",
                t.records_dropped_at_crash);
        reg.add("durable.records_restored", t.records_restored);
        reg.add("durable.records_skipped_invalid", t.records_skipped_invalid);
        reg.add("durable.truncated_scans", t.truncated_scans);
        reg.add("durable.retransmissions_suppressed",
                sum_of(result.members,
                       &srm::HostStats::retransmissions_suppressed));
        reg.add("durable.duplicate_retransmissions_served",
                sum_of(result.members,
                       &srm::HostStats::duplicate_retransmissions_served));
      }
      util::Histogram& lat =
          reg.histogram("recovery.latency_norm", 0.0, 50.0, 100);
      for (const auto& m : result.members) {
        if (m.is_source || m.rtt_to_source <= 0.0) continue;
        for (const auto& r : m.stats.recoveries)
          if (r.recovered) lat.add(r.latency_seconds() / m.rtt_to_source);
      }
      result.metrics = reg.take();
    }
  }
  return result;
}

}  // namespace

ExperimentResult run_experiment(const trace::LossTrace& loss_trace,
                                const infer::LinkTraceRepresentation& links,
                                const ExperimentConfig& config) {
  try {
    return run_experiment_impl(loss_trace, links, config);
  } catch (const util::CheckError& e) {
    // One-line reproduction recipe: the tuple below replays the failing
    // run exactly (the violation message itself carries the sim time).
    CESRM_LOG_ERROR << "[cesrm-repro] trace=" << loss_trace.name()
                    << " protocol=" << protocol_name(config.protocol)
                    << " seed=" << config.seed << " packets="
                    << (config.max_packets > 0 ? config.max_packets
                                               : loss_trace.packet_count())
                    << " faults=\"" << config.faults.summary() << "\""
                    << " durable="
                    << durable::durable_mode_name(config.durable.mode)
                    << " cache_policy="
                    << cesrm::cache_policy_name(config.cesrm.cache.policy)
                    << " lossy_recovery=" << (config.lossy_recovery ? 1 : 0)
                    << " — " << e.what();
    throw;
  }
}

}  // namespace cesrm::harness
