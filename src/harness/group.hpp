// group.hpp — the steps of one group run, shared by every run loop.
//
// The paper's evaluation has one shape (§4.3, and the LMS comparison of
// §3.3/§5): a member at the source and at every receiver, staggered
// session starts, a fixed-period transmission, a drain, and per-member
// statistics. run_experiment, netio::run_netio, bench_lms and run_scale
// build it from these steps, and nothing else in the repository builds
// members; each keeps its own RNG draw order and event-scheduling order,
// which is why they are steps and not one loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cesrm/cesrm_agent.hpp"
#include "lms/directory.hpp"
#include "net/transport.hpp"
#include "protocol.hpp"
#include "sim/simulator.hpp"
#include "srm/srm_agent.hpp"
#include "util/rng.hpp"

namespace cesrm::harness {

/// Per-member outcome. Members are ordered source first, then receivers
/// in tree order — matching the figures' "receiver 0 is the source".
struct MemberResult {
  net::NodeId node = net::kInvalidNode;
  bool is_source = false;
  /// Crashed (and not recovered) when the run ended.
  bool failed = false;
  srm::HostStats stats;
  /// True RTT to the source in seconds (normalization unit of Figures 1-2).
  double rtt_to_source = 0.0;
};

/// Repair delay of the replier directory an LMS group's members share.
inline constexpr sim::SimTime kLmsRepairDelay = sim::SimTime::seconds(10);

/// The source (the tree root) first, then the tree's receivers in order.
std::vector<net::NodeId> group_members(const net::MulticastTree& tree);

/// Builds the `protocol` member at `node`, seeded with
/// `group_rng.fork(node + 1)`. `config.srm` configures SRM members and
/// the substrate of LMS members, which need the group's `directory`.
std::unique_ptr<srm::SrmAgent> make_agent(
    Protocol protocol, const cesrm::CesrmConfig& config,
    lms::LmsDirectory* directory, sim::Simulator& sim,
    net::Transport& transport, net::NodeId node, net::NodeId source,
    util::Rng& group_rng);

/// A staggered session start: whole milliseconds drawn uniformly from one
/// session period (one draw from `rng`).
sim::SimTime session_offset(util::Rng& rng, sim::SimTime session_period);

/// A fixed-period transmission: emit(seq) for seq = 0 .. count - 1, the
/// first at start(at), each next one `period` later. Chained, so one send
/// is pending at a time; a send still pending when the run ends never
/// fires. The optional `blocked` hook is asked before every send: a time
/// defers the pending packet to it (infinity: never), so sequence numbers
/// stay consecutive; nullopt lets it go.
class PeriodicSource {
 public:
  using Blocked = std::function<std::optional<sim::SimTime>()>;

  PeriodicSource(sim::Simulator& sim, sim::SimTime period, net::SeqNo count,
                 std::function<void(net::SeqNo)> emit,
                 Blocked blocked = nullptr)
      : sim_(sim),
        period_(period),
        count_(count),
        emit_(std::move(emit)),
        blocked_(std::move(blocked)) {}
  // Scheduled sends hold `this`.
  PeriodicSource(const PeriodicSource&) = delete;
  PeriodicSource& operator=(const PeriodicSource&) = delete;

  void start(sim::SimTime at) {
    sim_.schedule_at(at, [this] { send(0); });
  }
  /// Packets emitted so far.
  net::SeqNo sent() const { return sent_; }

 private:
  void send(net::SeqNo seq);

  sim::Simulator& sim_;
  const sim::SimTime period_;
  const net::SeqNo count_;
  const std::function<void(net::SeqNo)> emit_;
  const Blocked blocked_;
  net::SeqNo sent_ = 0;
};

/// Ends a member's run — stop_session(), finalize_stats() — and returns
/// its outcome; rtt_to_source is twice its path delay to `source` on its
/// own `transport`.
MemberResult collect_member(srm::SrmAgent& agent,
                            const net::Transport& transport,
                            net::NodeId source);

}  // namespace cesrm::harness
