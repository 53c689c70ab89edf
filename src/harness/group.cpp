#include "harness/group.hpp"

#include <algorithm>

#include "lms/lms_agent.hpp"
#include "util/check.hpp"

namespace cesrm::harness {

std::vector<net::NodeId> group_members(const net::MulticastTree& tree) {
  std::vector<net::NodeId> nodes{tree.root()};
  for (net::NodeId r : tree.receivers()) nodes.push_back(r);
  return nodes;
}

std::unique_ptr<srm::SrmAgent> make_agent(
    Protocol protocol, const cesrm::CesrmConfig& config,
    lms::LmsDirectory* directory, sim::Simulator& sim,
    net::Transport& transport, net::NodeId node, net::NodeId source,
    util::Rng& group_rng) {
  util::Rng rng = group_rng.fork(static_cast<std::uint64_t>(node) + 1);
  if (protocol == Protocol::kCesrm)
    return std::make_unique<cesrm::CesrmAgent>(sim, transport, node, source,
                                               config, rng);
  if (protocol == Protocol::kSrm)
    return std::make_unique<srm::SrmAgent>(sim, transport, node, source,
                                           config.srm, rng);
  CESRM_CHECK_MSG(directory != nullptr,
                  "an LMS member needs its group's replier directory");
  lms::LmsConfig lms_config;
  lms_config.srm = config.srm;
  return std::make_unique<lms::LmsAgent>(sim, transport, node, source,
                                         lms_config, *directory, rng);
}

sim::SimTime session_offset(util::Rng& rng, sim::SimTime session_period) {
  const std::int64_t period_ms =
      std::max<std::int64_t>(1, session_period.ns() / 1000000);
  return sim::SimTime::millis(rng.uniform_int(0, period_ms - 1));
}

void PeriodicSource::send(net::SeqNo seq) {
  if (const auto resume = blocked_ ? blocked_() : std::nullopt) {
    if (*resume < sim::SimTime::infinity())
      sim_.schedule_at(*resume, [this, seq] { send(seq); });
    return;
  }
  emit_(seq);
  ++sent_;
  if (seq + 1 < count_)
    sim_.schedule_in(period_, [this, seq] { send(seq + 1); });
}

MemberResult collect_member(srm::SrmAgent& agent,
                            const net::Transport& transport,
                            net::NodeId source) {
  agent.stop_session();
  agent.finalize_stats();
  MemberResult m;
  m.node = agent.node();
  m.is_source = m.node == source;
  m.failed = agent.failed();
  m.stats = agent.stats();
  m.rtt_to_source = 2.0 * transport.path_delay(m.node, source).to_seconds();
  return m;
}

}  // namespace cesrm::harness
