// Tests for the fault-injection subsystem: FaultPlan resolution and
// validation, the shipped §3.3 scenarios under both protocols, the
// crash-with-in-flight-timers regression, crash-at-boundary cases
// (pending reply timers, cache churn under a warm durable restart,
// back-to-back and overlapping crash clauses), the oracle's ability to
// detect genuine liveness violations and name the failing run in its
// reproduction line, randomized fault-plan properties, and the runner's
// determinism contract for faulted jobs.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "durable/store.hpp"
#include "fault/fault_plan.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "infer/link_estimator.hpp"
#include "infer/link_trace.hpp"
#include "trace/trace_generator.hpp"
#include "util/check.hpp"

namespace cesrm {
namespace {

// Shared small workload (generation + inference dominate runtime, so it is
// built once per process and reused across the suites).
struct Workload {
  Workload() {
    trace::TraceSpec spec;
    spec.name = "FAULT";
    spec.receivers = 7;
    spec.depth = 4;
    spec.period_ms = 40;
    spec.packets = 2000;
    spec.losses = 700;  // 5% per-receiver average
    spec.seed = 404;
    gen = trace::generate_trace(spec);
    const auto est = infer::estimate_links_yajnik(*gen.loss);
    links = std::make_unique<infer::LinkTraceRepresentation>(*gen.loss,
                                                             est.loss_rate);
    context.receivers = spec.receivers;
    harness::ExperimentConfig cfg;
    context.data_start = cfg.warmup;
    context.data_end =
        cfg.warmup + sim::SimTime::millis(spec.period_ms) *
                         static_cast<std::int64_t>(spec.packets);
  }
  trace::GeneratedTrace gen;
  std::unique_ptr<infer::LinkTraceRepresentation> links;
  fault::ScenarioContext context;
};

const Workload& workload() {
  static Workload* w = new Workload();
  return *w;
}

harness::ExperimentResult run_with_plan(
    Protocol protocol, const fault::FaultPlan& plan, std::uint64_t seed = 5,
    durable::DurableMode durable_mode = durable::DurableMode::kOff) {
  const auto& w = workload();
  harness::ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.seed = seed;
  cfg.faults = plan;
  cfg.durable.mode = durable_mode;
  return run_experiment(*w.gen.loss, *w.links, cfg);
}

/// Unrecovered losses at members that are alive when the run ends
/// (crash-stopped members legitimately keep theirs).
std::uint64_t live_unrecovered(const harness::ExperimentResult& result) {
  std::uint64_t n = 0;
  for (const auto& m : result.members) {
    if (m.failed) continue;
    for (const auto& r : m.stats.recoveries)
      if (!r.recovered) ++n;
  }
  return n;
}

std::uint64_t total_zombie_fires(const harness::ExperimentResult& result) {
  std::uint64_t n = 0;
  for (const auto& m : result.members) n += m.stats.zombie_timer_fires;
  return n;
}

// ------------------------------------------------------ plan unit tests ----

TEST(FaultPlan, EmptyPlanIsEmptyAndValid) {
  fault::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.validate());
  EXPECT_EQ(plan.horizon_slack(), sim::SimTime::zero());
  EXPECT_EQ(plan.summary(), "none");
}

TEST(FaultPlan, ValidateRejectsMalformedClauses) {
  {
    fault::FaultPlan plan;
    fault::CrashEvent crash;
    crash.receiver_rank = -2;  // below kSourceRank
    crash.at = sim::SimTime::seconds(1);
    plan.crashes.push_back(crash);
    EXPECT_THROW(plan.validate(), util::CheckError);
  }
  {
    fault::FaultPlan plan;
    fault::LinkOutage outage;
    outage.receiver_rank = 0;
    outage.down_at = sim::SimTime::seconds(10);
    outage.up_at = sim::SimTime::seconds(5);  // heals before it fails
    plan.outages.push_back(outage);
    EXPECT_THROW(plan.validate(), util::CheckError);
  }
  {
    fault::FaultPlan plan;
    fault::ControlLossBurst burst;
    burst.from = sim::SimTime::seconds(1);
    burst.until = sim::SimTime::seconds(2);
    burst.loss_rate = 1.5;  // not a probability
    plan.control_bursts.push_back(burst);
    EXPECT_THROW(plan.validate(), util::CheckError);
  }
}

TEST(FaultPlan, ResolveMapsRanksAndClimbsHeights) {
  const auto& tree = workload().gen.loss->tree();
  EXPECT_EQ(fault::resolve_rank(fault::kSourceRank, tree), tree.root());
  for (std::size_t i = 0; i < tree.receivers().size(); ++i)
    EXPECT_EQ(fault::resolve_rank(static_cast<int>(i), tree),
              tree.receivers()[i]);
  EXPECT_THROW(
      fault::resolve_rank(static_cast<int>(tree.receivers().size()), tree),
      util::CheckError);

  // Height 0 severs the receiver's own access link (links are named by
  // their child endpoint); absurd heights clamp just below the root.
  fault::LinkOutage outage;
  outage.receiver_rank = 0;
  outage.down_at = sim::SimTime::seconds(1);
  const net::NodeId r0 = tree.receivers()[0];
  EXPECT_EQ(fault::resolve(outage, tree).link, r0);
  outage.height = 1000;
  const net::NodeId top = fault::resolve(outage, tree).link;
  EXPECT_EQ(tree.parent(top), tree.root());
  EXPECT_TRUE(tree.is_ancestor(top, r0));
}

TEST(FaultPlan, ShippedScenariosValidateAndSummarize) {
  const auto scenarios = fault::shipped_scenarios(workload().context);
  ASSERT_EQ(scenarios.size(), 6u);
  for (const auto& s : scenarios) {
    SCOPED_TRACE(s.name);
    EXPECT_FALSE(s.plan.empty());
    EXPECT_NO_THROW(s.plan.validate());
    EXPECT_NE(s.plan.summary(), "none");
    EXPECT_GE(s.plan.horizon_slack(), sim::SimTime::zero());
  }
}

// ----------------------------------------------------- scenario suites -----

class ShippedScenario
    : public ::testing::TestWithParam<std::tuple<std::size_t, Protocol>> {};

TEST_P(ShippedScenario, RecoversEverythingAtLiveMembers) {
  const auto [index, protocol] = GetParam();
  const auto scenarios = fault::shipped_scenarios(workload().context);
  ASSERT_LT(index, scenarios.size());
  SCOPED_TRACE(scenarios[index].name);

  // The invariant oracle is armed inside run_experiment and throws on any
  // liveness/safety violation, so "no throw" is the primary assertion.
  harness::ExperimentResult result;
  ASSERT_NO_THROW(result = run_with_plan(protocol, scenarios[index].plan));
  EXPECT_EQ(live_unrecovered(result), 0u);
  EXPECT_EQ(total_zombie_fires(result), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllScenariosBothProtocols, ShippedScenario,
    ::testing::Combine(::testing::Range<std::size_t>(0, 6),
                       ::testing::Values(Protocol::kSrm, Protocol::kCesrm)));

// --------------------------------------------- crash-specific regression ----

TEST(FaultCrash, CrashedAgentsFireNoZombieTimers) {
  // Crash-stop a third of the receivers mid-transmission: at that moment
  // the protocol has request/reply/session timers in flight on them. The
  // crash must disarm everything — any timer callback that still runs on a
  // failed member is counted as a zombie fire.
  const auto result = run_with_plan(
      Protocol::kCesrm, fault::replier_crash_plan(workload().context, 0.3));
  std::uint64_t crashed = 0;
  for (const auto& m : result.members) {
    EXPECT_EQ(m.stats.zombie_timer_fires, 0u) << "node " << m.node;
    if (m.failed) ++crashed;
  }
  // Every member's session timer is armed when the crash hits (it re-arms
  // every second), so zombie_timer_fires == 0 above proves the disarm; the
  // crash count pins the plan's resolution: ceil(0.3 * 7) receivers.
  EXPECT_EQ(crashed, 3u);
}

TEST(FaultCrash, RecoveredAgentCatchesUpOnCrashTimeLosses) {
  // Regression for the recovery blind spot: a packet whose recovery was in
  // flight at crash time sits below the member's sequence horizon, so
  // ordinary gap detection never re-notices it. recover() must re-detect
  // every known-missing packet; the oracle's eventual-delivery check then
  // proves they all arrive.
  for (const Protocol protocol : {Protocol::kSrm, Protocol::kCesrm}) {
    const auto result = run_with_plan(
        protocol, fault::crash_recover_plan(workload().context));
    for (const auto& m : result.members)
      EXPECT_FALSE(m.failed) << "node " << m.node << " never recovered";
    EXPECT_EQ(live_unrecovered(result), 0u);
  }
}

// -------------------------------------------------- crash-at-boundary -------

TEST(FaultCrash, OverlappingCrashClausesSkipRecoverOfLiveMember) {
  // Two hand-edited clauses for the same member whose intervals nest:
  // clause A crashes rank 0 at 40% of the stream and recovers it at 70%;
  // clause B "crashes" it again at 45% (a no-op — fail() is idempotent on
  // an already-down member) and recovers it early at 55%. When A's
  // recover event then fires at 70% the member is already live; the
  // scheduler must log and skip it instead of aborting inside
  // SrmAgent::recover()'s live-member CHECK.
  const auto& ctx = workload().context;
  const sim::SimTime span = ctx.data_end - ctx.data_start;
  fault::FaultPlan plan;
  plan.crashes.push_back(fault::CrashEvent{0, ctx.data_start + span * 0.40,
                                           ctx.data_start + span * 0.70});
  plan.crashes.push_back(fault::CrashEvent{0, ctx.data_start + span * 0.45,
                                           ctx.data_start + span * 0.55});
  ASSERT_NO_THROW(plan.validate());
  for (const Protocol protocol : {Protocol::kSrm, Protocol::kCesrm}) {
    harness::ExperimentResult result;
    ASSERT_NO_THROW(result = run_with_plan(protocol, plan));
    for (const auto& m : result.members)
      EXPECT_FALSE(m.failed) << "node " << m.node;
    EXPECT_EQ(live_unrecovered(result), 0u);
    EXPECT_EQ(total_zombie_fires(result), 0u);
  }
}

TEST(FaultCrash, CrashWithPendingReplyTimersThenWarmRecover) {
  // Crash half the receivers at the busiest point of the stream: with 5%
  // loss across 7 receivers they are constantly serving each other's
  // repairs, so the crash lands while reply (and request) timers are
  // pending on the crashed members. fail() must disarm them all, and a
  // warm restart must replay the reply-served ledger without re-serving a
  // retransmission the member already sent — the oracle enforces both the
  // zombie-timer and the duplicate-retransmission invariants.
  const auto& ctx = workload().context;
  const sim::SimTime span = ctx.data_end - ctx.data_start;
  fault::FaultPlan plan;
  for (int rank = 0; rank < ctx.receivers / 2; ++rank)
    plan.crashes.push_back(fault::CrashEvent{
        rank, ctx.data_start + span * 0.50, ctx.data_start + span * 0.75});
  harness::ExperimentResult result;
  ASSERT_NO_THROW(result = run_with_plan(Protocol::kCesrm, plan, 5,
                                         durable::DurableMode::kWarm));
  std::uint64_t replies_from_recovered = 0;
  for (const auto& m : result.members) {
    EXPECT_FALSE(m.failed) << "node " << m.node;
    EXPECT_EQ(m.stats.zombie_timer_fires, 0u) << "node " << m.node;
    EXPECT_EQ(m.stats.duplicate_retransmissions_served, 0u)
        << "node " << m.node;
    replies_from_recovered += m.stats.replies_sent;
  }
  EXPECT_EQ(live_unrecovered(result), 0u);
  // The workload really does exercise the reply path around the crash.
  EXPECT_GT(replies_from_recovered, 0u);
}

TEST(FaultCrash, WarmRestartReplaysCacheAcrossAdmissionEvictionChurn) {
  // The write-behind journal records cache admissions but not the
  // evictions that follow (a restore re-applies the admission sequence
  // and lets the cache's own policy re-evict), so a
  // member that crashes mid-churn replays tuples whose cache slots had
  // already been recycled. The restore path must treat those as ordinary
  // updates — the run must stay oracle-clean with a populated, evicting
  // cache on both sides of the crash.
  const auto plan = fault::crash_recover_plan(workload().context);
  harness::ExperimentResult result;
  ASSERT_NO_THROW(result = run_with_plan(Protocol::kCesrm, plan, 5,
                                         durable::DurableMode::kWarm));
  std::uint64_t insertions = 0, evictions = 0;
  for (const auto& m : result.members) {
    EXPECT_FALSE(m.failed) << "node " << m.node;
    EXPECT_EQ(m.stats.duplicate_retransmissions_served, 0u)
        << "node " << m.node;
    insertions += m.stats.cache_insertions;
    evictions += m.stats.cache_evictions;
  }
  EXPECT_EQ(live_unrecovered(result), 0u);
  // Churn actually happened: the caches admitted and recycled entries.
  EXPECT_GT(insertions, 0u);
  EXPECT_GT(evictions, 0u);
}

TEST(FaultCrash, BackToBackCrashRecoverOfSameMember) {
  // The same member crashes and recovers twice in quick succession; the
  // second crash lands while the first recovery's catch-up is still
  // draining. Every restart must re-detect the union of its losses, and
  // with warm durable state the second restore replays a journal that was
  // itself written partly during catch-up.
  const auto& ctx = workload().context;
  const sim::SimTime span = ctx.data_end - ctx.data_start;
  fault::FaultPlan plan;
  plan.crashes.push_back(fault::CrashEvent{0, ctx.data_start + span * 0.35,
                                           ctx.data_start + span * 0.45});
  plan.crashes.push_back(fault::CrashEvent{0, ctx.data_start + span * 0.50,
                                           ctx.data_start + span * 0.60});
  ASSERT_NO_THROW(plan.validate());
  for (const durable::DurableMode mode :
       {durable::DurableMode::kOff, durable::DurableMode::kWarm}) {
    harness::ExperimentResult result;
    ASSERT_NO_THROW(
        result = run_with_plan(Protocol::kCesrm, plan, 5, mode));
    for (const auto& m : result.members) {
      EXPECT_FALSE(m.failed) << "node " << m.node;
      EXPECT_EQ(m.stats.zombie_timer_fires, 0u) << "node " << m.node;
      EXPECT_EQ(m.stats.duplicate_retransmissions_served, 0u)
          << "node " << m.node;
    }
    EXPECT_EQ(live_unrecovered(result), 0u);
  }
}

// ------------------------------------------------- oracle true positives ----

/// A subtree cut that never heals: live receivers miss packets that live
/// members hold — exactly the liveness violation the oracle exists to
/// catch.
fault::FaultPlan permanent_partition_plan() {
  fault::FaultPlan plan;
  fault::LinkOutage outage;
  outage.receiver_rank = 0;
  outage.height = 1;
  outage.down_at = workload().context.data_start;
  // up_at stays infinity(): the partition never heals.
  plan.outages.push_back(outage);
  return plan;
}

TEST(FaultOracle, PermanentPartitionIsReportedAsLivenessViolation) {
  // The CheckError carries the reproduction line.
  EXPECT_THROW(run_with_plan(Protocol::kCesrm, permanent_partition_plan()),
               util::CheckError);
}

TEST(FaultOracle, ReproLineNamesEveryKnobOfTheFailingRun) {
  // The [cesrm-repro] line must describe the run that failed: a violation
  // under a warm journal, a non-default cache policy and lossy recovery
  // prints those settings, not a recipe for a default-config run.
  const auto& w = workload();
  harness::ExperimentConfig cfg;
  cfg.protocol = Protocol::kCesrm;
  cfg.seed = 5;
  cfg.faults = permanent_partition_plan();
  cfg.durable.mode = durable::DurableMode::kWarm;
  cfg.cesrm.cache.policy = cesrm::CachePolicyKind::kSharded;
  cfg.lossy_recovery = true;
  ::testing::internal::CaptureStderr();
  EXPECT_THROW(run_experiment(*w.gen.loss, *w.links, cfg), util::CheckError);
  const std::string err = ::testing::internal::GetCapturedStderr();
  const std::size_t at = err.find("[cesrm-repro]");
  ASSERT_NE(at, std::string::npos) << err;
  const std::string line = err.substr(at, err.find('\n', at) - at);
  for (const char* field :
       {"trace=FAULT", "protocol=CESRM", "seed=5", "packets=2000",
        "faults=\"", "durable=warm", "cache_policy=sharded",
        "lossy_recovery=1"})
    EXPECT_NE(line.find(field), std::string::npos) << field << " in " << line;
}

// ---------------------------------------------- randomized plan property ----

fault::FaultPlan random_recoverable_plan(util::Rng& rng,
                                         const fault::ScenarioContext& ctx) {
  // Draw a plan whose every fault is survivable — crashes of a strict
  // minority, outages that heal, finite control/perturb bursts — so the
  // oracle's guarantees must hold no matter the draw.
  fault::FaultPlan plan;
  const sim::SimTime span = ctx.data_end - ctx.data_start;
  auto at = [&](double lo, double hi) {
    return ctx.data_start + span * rng.uniform(lo, hi);
  };

  const int n_crashes = static_cast<int>(rng.uniform_int(0, 2));
  for (int i = 0; i < n_crashes; ++i) {
    fault::CrashEvent crash;
    crash.receiver_rank =
        static_cast<int>(rng.uniform_int(0, ctx.receivers - 1));
    crash.at = at(0.2, 0.6);
    if (rng.bernoulli(0.5)) crash.recover_at = crash.at + span * 0.2;
    plan.crashes.push_back(crash);
  }
  if (rng.bernoulli(0.7)) {
    fault::LinkOutage outage;
    outage.receiver_rank =
        static_cast<int>(rng.uniform_int(0, ctx.receivers - 1));
    outage.height = static_cast<int>(rng.uniform_int(0, 1));
    outage.down_at = at(0.2, 0.5);
    outage.up_at = outage.down_at + span * rng.uniform(0.05, 0.2);
    plan.outages.push_back(outage);
  }
  if (rng.bernoulli(0.5)) {
    fault::ControlLossBurst burst;
    burst.from = at(0.1, 0.4);
    burst.until = burst.from + span * rng.uniform(0.1, 0.3);
    burst.loss_rate = rng.uniform(0.05, 0.35);
    burst.mean_burst = rng.uniform(1.5, 6.0);
    plan.control_bursts.push_back(burst);
  }
  if (rng.bernoulli(0.5)) {
    fault::SourcePause pause;
    pause.at = at(0.3, 0.6);
    pause.until = pause.at + span * rng.uniform(0.05, 0.15);
    plan.pauses.push_back(pause);
  }
  if (rng.bernoulli(0.5)) {
    fault::PerturbBurst perturb;
    perturb.from = at(0.1, 0.5);
    perturb.until = perturb.from + span * rng.uniform(0.1, 0.4);
    perturb.dup_probability = rng.uniform(0.0, 0.1);
    perturb.max_extra_delay = sim::SimTime::millis(
        rng.uniform_int(0, 20));
    plan.perturb_bursts.push_back(perturb);
  }
  return plan;
}

class RandomFaultPlanProperty
    : public ::testing::TestWithParam<std::tuple<int, Protocol>> {};

TEST_P(RandomFaultPlanProperty, OracleHoldsUnderRandomSurvivableFaults) {
  const auto [seed, protocol] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 7919u + 13u);
  const auto plan = random_recoverable_plan(rng, workload().context);
  SCOPED_TRACE(plan.summary());
  ASSERT_NO_THROW(plan.validate());

  harness::ExperimentResult result;
  ASSERT_NO_THROW(result = run_with_plan(
                      protocol, plan, static_cast<std::uint64_t>(seed)));
  EXPECT_EQ(live_unrecovered(result), 0u);
  EXPECT_EQ(total_zombie_fires(result), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomFaultPlanProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(Protocol::kSrm, Protocol::kCesrm)));

// ------------------------------------------------- runner determinism -------

TEST(FaultRunner, FaultedJobsAreIdenticalAcrossWorkerCounts) {
  const auto scenarios = fault::shipped_scenarios(workload().context);
  auto make_jobs = [&] {
    std::vector<harness::ExperimentJob> jobs;
    for (const auto& s : {scenarios[0], scenarios[4]}) {
      for (const Protocol protocol : {Protocol::kSrm, Protocol::kCesrm}) {
        harness::ExperimentJob job;
        job.loss = workload().gen.loss;
        job.links = std::shared_ptr<const infer::LinkTraceRepresentation>(
            workload().links.get(), [](const auto*) {});
        job.protocol = protocol;
        job.config.faults = s.plan;
        job.label = s.name;
        jobs.push_back(std::move(job));
      }
    }
    return jobs;
  };

  harness::RunnerOptions serial, parallel;
  serial.jobs = 1;
  parallel.jobs = 4;
  const auto a = harness::ExperimentRunner(serial).run(make_jobs());
  const auto b = harness::ExperimentRunner(parallel).run(make_jobs());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].label);
    EXPECT_EQ(a[i].result.events_executed, b[i].result.events_executed);
    EXPECT_EQ(a[i].result.sim_end, b[i].result.sim_end);
    EXPECT_EQ(a[i].result.packets_sent, b[i].result.packets_sent);
    EXPECT_EQ(a[i].result.total_recovered(), b[i].result.total_recovered());
    EXPECT_EQ(a[i].result.total_exp_replies_sent(),
              b[i].result.total_exp_replies_sent());
    EXPECT_EQ(a[i].result.total_unrecovered(),
              b[i].result.total_unrecovered());
  }
}

}  // namespace
}  // namespace cesrm
