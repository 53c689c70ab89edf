// Tests for the group-run steps every run loop shares (harness/group.hpp):
// member order, the agent factory, session offsets, the periodic source
// with its blocked/resume hook, and member collection — plus the LMS path
// through run_experiment that the shared factory opened.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/group.hpp"
#include "infer/link_estimator.hpp"
#include "infer/link_trace.hpp"
#include "lms/lms_agent.hpp"
#include "net/network.hpp"
#include "net/topology_builder.hpp"
#include "trace/trace_generator.hpp"
#include "util/check.hpp"

namespace cesrm::harness {
namespace {

using net::NodeId;
using net::SeqNo;
using sim::SimTime;

TEST(GroupSteps, MembersComeSourceFirstThenReceivers) {
  EXPECT_EQ(group_members(net::parse_tree("0(1(3 4) 2(5))")),
            (std::vector<NodeId>{0, 3, 4, 5}));

  util::Rng rng(7);
  const net::MulticastTree tree = net::build_random_tree(
      {.receivers = 9, .depth = 4, .max_branching = 3}, rng);
  const std::vector<NodeId> members = group_members(tree);
  ASSERT_EQ(members.size(), tree.receivers().size() + 1);
  EXPECT_EQ(members.front(), tree.root());
  EXPECT_TRUE(std::equal(members.begin() + 1, members.end(),
                         tree.receivers().begin()));
}

TEST(GroupSteps, MakeAgentBuildsTheSelectedProtocol) {
  const net::MulticastTree tree = net::parse_tree("0(1(3 4) 2(5))");
  sim::ShardedEngine engine(tree.size());
  sim::Simulator& sim = engine.sim(0);
  net::Network network(engine, tree, {});
  lms::LmsDirectory directory(sim, tree, kLmsRepairDelay);
  const cesrm::CesrmConfig config;
  util::Rng rng(1);

  const auto srm = make_agent(Protocol::kSrm, config, nullptr, sim, network,
                              0, 0, rng);
  const auto ce = make_agent(Protocol::kCesrm, config, nullptr, sim, network,
                             3, 0, rng);
  const auto lms = make_agent(Protocol::kLms, config, &directory, sim,
                              network, 4, 0, rng);
  EXPECT_EQ(dynamic_cast<const cesrm::CesrmAgent*>(srm.get()), nullptr);
  EXPECT_EQ(dynamic_cast<const lms::LmsAgent*>(srm.get()), nullptr);
  EXPECT_NE(dynamic_cast<const cesrm::CesrmAgent*>(ce.get()), nullptr);
  EXPECT_NE(dynamic_cast<const lms::LmsAgent*>(lms.get()), nullptr);
  EXPECT_EQ(lms->node(), 4);
  // LMS members cannot exist without the group's replier directory.
  EXPECT_THROW(make_agent(Protocol::kLms, config, nullptr, sim, network, 5,
                          0, rng),
               util::CheckError);
}

TEST(GroupSteps, SessionOffsetsAreWholeMillisecondsWithinOnePeriod) {
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const SimTime offset = session_offset(rng, SimTime::millis(250));
    EXPECT_GE(offset, SimTime::zero());
    EXPECT_LT(offset, SimTime::millis(250));
    EXPECT_EQ(offset.ns() % 1000000, 0);
  }
  // A sub-millisecond period still yields a valid (zero) offset.
  EXPECT_EQ(session_offset(rng, SimTime::micros(300)), SimTime::zero());
}

TEST(GroupSteps, CollectMemberStopsTheSessionAndTakesRttFromItsTransport) {
  const net::MulticastTree tree = net::parse_tree("0(1(3 4) 2(5))");
  sim::ShardedEngine engine(tree.size());
  sim::Simulator& sim = engine.sim(0);
  net::NetworkConfig ncfg;
  ncfg.link_delay = SimTime::millis(15);
  net::Network network(engine, tree, ncfg);
  util::Rng rng(2);
  const cesrm::CesrmConfig config;
  auto source = make_agent(Protocol::kSrm, config, nullptr, sim, network, 0,
                           0, rng);
  auto receiver = make_agent(Protocol::kSrm, config, nullptr, sim, network,
                             3, 0, rng);
  source->start_session(SimTime::zero());
  receiver->start_session(SimTime::zero());
  sim.run_until(SimTime::seconds(3));

  const MemberResult rx = collect_member(*receiver, network, 0);
  EXPECT_EQ(rx.node, 3);
  EXPECT_FALSE(rx.is_source);
  EXPECT_FALSE(rx.failed);
  EXPECT_DOUBLE_EQ(rx.rtt_to_source,
                   2.0 * network.path_delay(3, 0).to_seconds());
  EXPECT_DOUBLE_EQ(rx.rtt_to_source, 0.06);  // two 15 ms links, both ways
  const MemberResult src = collect_member(*source, network, 0);
  EXPECT_TRUE(src.is_source);
  EXPECT_EQ(src.rtt_to_source, 0.0);

  // The sessions are stopped: no member sends another session message.
  const std::uint64_t sessions = receiver->stats().session_sent;
  EXPECT_GT(sessions, 0u);
  EXPECT_EQ(rx.stats.session_sent, sessions);
  sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(receiver->stats().session_sent, sessions);
}

using Sends = std::vector<std::pair<SeqNo, SimTime>>;

TEST(PeriodicSource, SendsExactlyCountPacketsAtThePeriod) {
  sim::Simulator sim;
  Sends sends;
  PeriodicSource source(sim, SimTime::millis(20), 5, [&](SeqNo seq) {
    sends.emplace_back(seq, sim.now());
  });
  source.start(SimTime::seconds(1));
  sim.run_until(SimTime::seconds(10));
  ASSERT_EQ(sends.size(), 5u);
  EXPECT_EQ(source.sent(), 5);
  for (SeqNo i = 0; i < 5; ++i)
    EXPECT_EQ(sends[static_cast<std::size_t>(i)],
              std::make_pair(i, SimTime::seconds(1) + SimTime::millis(20) * i));
  // The chain ends with the last packet.
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(PeriodicSource, DefersThePendingPacketAcrossABlockedWindow) {
  // Blocked during [1.05 s, 1.2 s): the packet due at 1.06 s waits for the
  // resume time and the sequence stays consecutive.
  sim::Simulator sim;
  Sends sends;
  const SimTime from = SimTime::millis(1050);
  const SimTime until = SimTime::millis(1200);
  PeriodicSource source(
      sim, SimTime::millis(20), 6,
      [&](SeqNo seq) { sends.emplace_back(seq, sim.now()); },
      [&]() -> std::optional<SimTime> {
        if (sim.now() >= from && sim.now() < until) return until;
        return std::nullopt;
      });
  source.start(SimTime::seconds(1));
  sim.run_until(SimTime::seconds(10));
  const Sends want{{0, SimTime::millis(1000)}, {1, SimTime::millis(1020)},
                   {2, SimTime::millis(1040)}, {3, SimTime::millis(1200)},
                   {4, SimTime::millis(1220)}, {5, SimTime::millis(1240)}};
  EXPECT_EQ(sends, want);
  EXPECT_EQ(source.sent(), 6);
}

TEST(PeriodicSource, BlockedForeverEndsTheTransmission) {
  // A crash-stopped source: the hook never lets the next packet go.
  sim::Simulator sim;
  Sends sends;
  PeriodicSource source(
      sim, SimTime::millis(20), 10,
      [&](SeqNo seq) { sends.emplace_back(seq, sim.now()); },
      [&]() -> std::optional<SimTime> {
        if (sim.now() >= SimTime::millis(50)) return SimTime::infinity();
        return std::nullopt;
      });
  source.start(SimTime::zero());
  sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(source.sent(), 3);  // at 0, 20 and 40 ms
  EXPECT_EQ(sends.back().first, 2);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// ---------------------------------------------- LMS through run_experiment --

// LmsProperty's seed-1 workload (tests/test_property.cpp), which drives LMS
// with its own hand-built loop as an independent reference.
trace::TraceSpec lms_spec() {
  trace::TraceSpec spec;
  spec.name = "LMSPROP";
  spec.receivers = 6;
  spec.depth = 4;
  spec.period_ms = 80;
  spec.packets = 2500;
  spec.losses = 2500 * spec.receivers / 20;
  spec.seed = 3001;
  return spec;
}

TEST(GroupRun, LmsRunsThroughTheExperimentPipeline) {
  const trace::TraceSpec spec = lms_spec();
  const auto gen = trace::generate_trace(spec);
  const auto est = infer::estimate_links_yajnik(*gen.loss);
  const infer::LinkTraceRepresentation links(*gen.loss, est.loss_rate);
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kLms;
  cfg.seed = spec.seed;
  const ExperimentResult r = run_experiment(*gen.loss, links, cfg);

  EXPECT_EQ(r.protocol, Protocol::kLms);
  EXPECT_EQ(r.packets_sent, spec.packets);
  ASSERT_EQ(r.members.size(), gen.loss->tree().receivers().size() + 1);
  EXPECT_EQ(r.total_unrecovered(), 0u);
  EXPECT_EQ(r.total_losses_detected() + r.total_silent_repairs(),
            gen.loss->total_losses());
  // LMS replaces SRM's multicast recovery entirely: every request is a
  // directed (expedited-path) unicast to a designated replier.
  EXPECT_GT(r.total_exp_requests_sent(), 0u);
  for (const MemberResult& m : r.members) {
    EXPECT_EQ(m.stats.requests_sent, 0u) << "node " << m.node;
    EXPECT_EQ(m.stats.replies_sent, 0u) << "node " << m.node;
  }
}

TEST(GroupRun, LmsRefusesAFaultPlan) {
  const trace::TraceSpec spec = lms_spec();
  const auto gen = trace::generate_trace(spec);
  const auto est = infer::estimate_links_yajnik(*gen.loss);
  const infer::LinkTraceRepresentation links(*gen.loss, est.loss_rate);
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kLms;
  cfg.max_packets = 10;
  cfg.faults.pauses.push_back({SimTime::seconds(6), SimTime::seconds(7)});
  try {
    run_experiment(*gen.loss, links, cfg);
    FAIL() << "lms with a fault plan should throw";
  } catch (const util::CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("LMS runs take no fault plan"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("SRM request timers"), std::string::npos) << msg;
  }
  // The same plan is fine for the SRM family.
  cfg.protocol = Protocol::kSrm;
  EXPECT_EQ(run_experiment(*gen.loss, links, cfg).packets_sent, 10);
}

}  // namespace
}  // namespace cesrm::harness
