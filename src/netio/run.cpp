#include "netio/run.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <thread>
#include <utility>

#include "fault/oracle.hpp"
#include "netio/clock.hpp"
#include "netio/reactor.hpp"
#include "obs/trace_recorder.hpp"
#include "srm/srm_agent.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cesrm::netio {

namespace {

/// One group member: clock, reactor, socket pair, protocol agent — all
/// confined to this member's thread once the run starts.
struct Member {
  net::NodeId node;
  MonotonicClock clock;
  Reactor reactor;
  SocketTransport transport;
  std::unique_ptr<srm::SrmAgent> agent;
  std::unique_ptr<obs::TraceRecorder> recorder;

  Member(net::NodeId n, std::uint64_t epoch, const net::MulticastTree& tree,
         const AddressPlan& plan, const LossShim& shim)
      : node(n),
        clock(epoch),
        reactor(clock),
        transport(reactor, tree, plan, shim, n) {}
};

void check_rate(double rate, const char* flag) {
  CESRM_CHECK_MSG(rate >= 0.0 && rate < 1.0,
                  "bad " << flag << " " << rate
                         << " (valid: a probability in [0, 1))");
}

}  // namespace

NetioRunResult run_netio(const NetioRunConfig& config) {
  CESRM_CHECK_MSG(config.protocol != Protocol::kLms,
                  "netio runs support srm and cesrm only: lms needs router "
                  "replier state that no socket backend provides");
  CESRM_CHECK_MSG(config.packets > 0,
                  "netio run needs at least 1 data packet (valid: "
                  "--packets >= 1)");
  check_rate(config.shim.data_loss, "--data-loss");
  check_rate(config.shim.control_loss, "--control-loss");
  // Agents derive request/reply suppression delays from path_delay; a zero
  // link delay would zero every distance and re-arm recovery timers at +0
  // forever (a live-lock, not just a bad estimate).
  CESRM_CHECK_MSG(config.shim.link_delay > sim::SimTime::zero(),
                  "netio runs need a nonzero emulated link delay (valid: "
                  "--link-delay-ms >= 1)");

  util::Rng rng(config.seed);
  const net::MulticastTree tree =
      config.tree_text.empty() ? net::build_random_tree(config.shape, rng)
                               : net::parse_tree(config.tree_text);
  CESRM_CHECK_MSG(tree.size() >= 2,
                  "netio run needs a source and at least one receiver "
                  "(valid: a tree with >= 2 nodes)");
  const net::NodeId source = tree.root();
  const LossShim shim(tree, config.shim);

  AddressPlan plan;
  plan.mcast_addr = config.mcast_addr;
  plan.mcast_port = config.mcast_port;
  plan.unicast.assign(tree.size(), Endpoint{});

  // Phase 1 (main thread): bind every socket, then publish the actual
  // ephemeral unicast ports into the shared plan. Setup failures (port in
  // use, join refused) throw here, before any thread exists.
  const std::uint64_t epoch = MonotonicClock::raw_ns();
  std::vector<std::unique_ptr<Member>> members;
  for (net::NodeId node : harness::group_members(tree))
    members.push_back(
        std::make_unique<Member>(node, epoch, tree, plan, shim));
  for (const auto& m : members)
    plan.unicast[static_cast<std::size_t>(m->node)] =
        m->transport.unicast_endpoint();

  // Phase 2 (main thread): agents + initial schedule. Everything is armed
  // before the reactors run, so no agent is ever touched off-thread.
  for (auto& m : members) {
    m->agent = harness::make_agent(config.protocol, config.cesrm, nullptr,
                                   m->reactor.sim(), m->transport, m->node,
                                   source, rng);
    if (config.observe_trace) {
      obs::ObsConfig obs_cfg;
      obs_cfg.trace = true;
      m->recorder = std::make_unique<obs::TraceRecorder>(obs_cfg);
      m->reactor.sim().set_recorder(m->recorder.get());
    }
    m->agent->start_session(
        harness::session_offset(rng, config.cesrm.srm.session_period));
  }

  // The Figure-4 workload: chained fixed-period transmission from the
  // root, armed on the source reactor; it runs on the source's thread and
  // this frame outlives the join below.
  srm::SrmAgent* src_agent = members.front()->agent.get();
  harness::PeriodicSource data_source(
      members.front()->reactor.sim(), config.period, config.packets,
      [src_agent](net::SeqNo seq) { src_agent->send_data(seq); });
  data_source.start(config.warmup);

  // Phase 3: run. One thread per member until the shared wall horizon; a
  // throw anywhere stops every reactor and is rethrown after the join.
  const sim::SimTime horizon =
      config.warmup +
      config.period * static_cast<std::int64_t>(config.packets) +
      config.drain;
  std::vector<std::exception_ptr> errors(members.size());
  {
    std::vector<std::thread> threads;
    threads.reserve(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      Member* m = members[i].get();
      threads.emplace_back([m, horizon, i, &errors, &members] {
        try {
          m->reactor.run_until(horizon);
        } catch (...) {
          errors[i] = std::current_exception();
          for (const auto& other : members) other->reactor.stop();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);

  // Phase 4 (main thread again; the joins ordered everything): verdict
  // first — finish() inspects the want state finalize_stats() clears.
  if (config.check_invariants) {
    fault::InvariantOracle oracle(members.front()->reactor.sim(), tree);
    for (const auto& m : members) oracle.add_member(m->node, m->agent.get());
    oracle.finish(data_source.sent(), source);
  }

  NetioRunResult out;
  harness::ExperimentResult& result = out.experiment;
  result.trace_name = "netio-loopback";
  result.protocol = config.protocol;
  result.packets_sent = data_source.sent();
  std::vector<obs::TraceEvent> merged_events;
  for (const auto& m : members) {
    result.members.push_back(
        harness::collect_member(*m->agent, m->transport, source));
    result.events_executed += m->reactor.sim().events_executed();
    result.sim_end = std::max(result.sim_end, m->reactor.sim().now());
    result.crossings += m->transport.crossings();
    out.sockets.push_back(m->transport.stats());
    if (m->recorder) {
      auto events = m->recorder->take_events();
      merged_events.insert(merged_events.end(),
                           std::make_move_iterator(events.begin()),
                           std::make_move_iterator(events.end()));
    }
  }
  if (config.observe_trace) {
    // Per-member streams are each time-ordered; the merge sorts globally
    // (stable, so one member's same-instant events keep their order).
    std::stable_sort(merged_events.begin(), merged_events.end(),
                     [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                       return a.at < b.at;
                     });
    result.events = std::make_shared<const std::vector<obs::TraceEvent>>(
        std::move(merged_events));
  }
  out.wall_seconds =
      static_cast<double>(MonotonicClock::raw_ns() - epoch) / 1e9;
  return out;
}

}  // namespace cesrm::netio
