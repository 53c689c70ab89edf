#include "api/session.hpp"

#include "util/check.hpp"

namespace cesrm::api {

namespace {

/// Agent subclasses that surface packet availability to the session.
/// The protocol machinery is untouched; only the on_packet_available hook
/// is chained into the application upcall path.
class SrmAppAgent final : public srm::SrmAgent {
 public:
  SrmAppAgent(MulticastSession& session, sim::Simulator& sim,
              net::Transport& network, net::NodeId self,
              net::NodeId primary_source, const srm::SrmConfig& config,
              util::Rng rng,
              std::function<void(net::NodeId, net::SeqNo)> on_available)
      : SrmAgent(sim, network, self, primary_source, config, rng),
        on_available_(std::move(on_available)) {
    (void)session;
  }

 protected:
  void on_packet_available(net::NodeId source, net::SeqNo seq) override {
    on_available_(source, seq);
  }

 private:
  std::function<void(net::NodeId, net::SeqNo)> on_available_;
};

class CesrmAppAgent final : public cesrm::CesrmAgent {
 public:
  CesrmAppAgent(sim::Simulator& sim, net::Transport& network, net::NodeId self,
                net::NodeId primary_source, const cesrm::CesrmConfig& config,
                util::Rng rng,
                std::function<void(net::NodeId, net::SeqNo)> on_available)
      : CesrmAgent(sim, network, self, primary_source, config, rng),
        on_available_(std::move(on_available)) {}

 protected:
  void on_packet_available(net::NodeId source, net::SeqNo seq) override {
    CesrmAgent::on_packet_available(source, seq);
    on_available_(source, seq);
  }

 private:
  std::function<void(net::NodeId, net::SeqNo)> on_available_;
};

}  // namespace

// ---------------------------------------------------------------------------
// MulticastSession
// ---------------------------------------------------------------------------

MulticastSession::MulticastSession(MulticastGroup& group, net::NodeId node,
                                   const SessionConfig& config)
    : group_(&group), config_(config) {
  auto on_available = [this](net::NodeId source, net::SeqNo seq) {
    this->on_available(source, seq);
  };
  util::Rng rng = group.rng_.fork(static_cast<std::uint64_t>(node) + 1);
  const net::NodeId primary = group.tree().root();
  if (config.protocol == Protocol::kCesrm) {
    agent_ = std::make_unique<CesrmAppAgent>(
        group.simulator(), group.network_, node, primary, config.cesrm, rng,
        on_available);
  } else {
    agent_ = std::make_unique<SrmAppAgent>(
        *this, group.simulator(), group.network_, node, primary,
        config.cesrm.srm, rng, on_available);
  }
  agent_->start_session(sim::SimTime::millis(
      group.rng_.uniform_int(0, config.cesrm.srm.session_period.ns() /
                                    1000000 -
                                1)));
}

void MulticastSession::set_delivery_handler(DeliveryHandler handler) {
  handler_ = std::move(handler);
}

net::SeqNo MulticastSession::send() {
  const net::SeqNo seq = next_send_++;
  agent_->send_data(seq);
  return seq;
}

void MulticastSession::fail() { agent_->fail(); }

net::NodeId MulticastSession::node() const { return agent_->node(); }

bool MulticastSession::has(net::NodeId source, net::SeqNo seq) const {
  return agent_->has_packet(source, seq);
}

const srm::HostStats& MulticastSession::transport_stats() const {
  return agent_->stats();
}

cesrm::CacheStats MulticastSession::cache_stats() const {
  if (const auto* agent =
          dynamic_cast<const cesrm::CesrmAgent*>(agent_.get()))
    return agent->cache_stats();
  return {};
}

void MulticastSession::on_available(net::NodeId source, net::SeqNo seq) {
  if (!config_.ordered_delivery) {
    deliver(source, seq);
    return;
  }
  // Ordered mode: the agent stores every packet, so the holdback buffer is
  // implicit — release the contiguous prefix.
  net::SeqNo& next = next_expected_.try_emplace(source, 0).first->second;
  while (agent_->has_packet(source, next)) {
    deliver(source, next);
    ++next;
  }
}

void MulticastSession::deliver(net::NodeId source, net::SeqNo seq) {
  ++delivered_count_;
  if (!handler_) return;
  Adu adu;
  adu.source = source;
  adu.seq = seq;
  adu.delivered_at = group_->simulator().now();
  handler_(adu);
}

// ---------------------------------------------------------------------------
// MulticastGroup
// ---------------------------------------------------------------------------

MulticastGroup::MulticastGroup(
    std::shared_ptr<const net::MulticastTree> tree,
    net::NetworkConfig net_config)
    : tree_(std::move(tree)),
      engine_(tree_->size()),
      network_(engine_, *tree_, net_config) {
  CESRM_CHECK(tree_ != nullptr);
}

MulticastGroup::~MulticastGroup() = default;

MulticastSession& MulticastGroup::join(net::NodeId node,
                                       SessionConfig config) {
  CESRM_CHECK_MSG(members_.count(node) == 0,
                  "node " << node << " already joined");
  CESRM_CHECK_MSG(config.protocol != Protocol::kLms,
                  "api sessions support srm and cesrm only: lms needs a "
                  "router replier directory, which a session group does "
                  "not model");
  // Fail fast with a friendly message instead of silently degrading: api
  // sessions have no loss ground truth to back a CacheSideInfo, so the
  // policies that need one cannot do better than recency here.
  CESRM_CHECK_MSG(
      config.protocol != Protocol::kCesrm ||
          !cesrm::cache_policy_needs_side_info(config.cesrm.cache.policy) ||
          config.cesrm.cache.side_info != nullptr,
      "cache policy '"
          << cesrm::cache_policy_name(config.cesrm.cache.policy)
          << "' needs cache side info, which api sessions do not provide"
          << " (policies needing side info: "
          << cesrm::cache_policies_needing_side_info() << ")");
  auto session = std::unique_ptr<MulticastSession>(
      new MulticastSession(*this, node, config));
  auto [it, inserted] = members_.emplace(node, std::move(session));
  CESRM_CHECK(inserted);
  return *it->second;
}

void MulticastGroup::set_drop_fn(net::DropFn fn) {
  network_.set_drop_fn(std::move(fn));
}

void MulticastGroup::run_for(sim::SimTime duration) {
  engine_.run_until(simulator().now() + duration);
}

void MulticastGroup::run_until(sim::SimTime when) {
  engine_.run_until(when);
}

MulticastSession& MulticastGroup::at(net::NodeId node) {
  const auto it = members_.find(node);
  CESRM_CHECK_MSG(it != members_.end(), "no member at node " << node);
  return *it->second;
}

}  // namespace cesrm::api
