// session.hpp — the application-facing reliable-multicast API.
//
// SRM was designed as "a reliable multicast framework for light-weight
// sessions and application level framing" (ALF): the transport recovers
// named application data units and hands them to the application as they
// arrive, in any order, letting the application decide what order means.
// This facade packages the protocol agents behind that model:
//
//   MulticastGroup group(tree);                 // one simulated session
//   auto& alice = group.join(nodeA);            // members join
//   auto& bob   = group.join(nodeB);
//   bob.set_delivery_handler([](Adu adu) { ... });
//   alice.send();                               // originate ADUs
//   group.run_for(sim::SimTime::seconds(10));
//
// Each member originates its own stream (stream id = node id) and receives
// everyone else's — the many-to-many model of SRM's whiteboard. Delivery
// is ALF-style out of order by default; ordered_delivery enables a
// per-stream holdback buffer that releases ADUs in sequence order.
//
// The facade is simulation-first (it owns the engine and Network), but
// the session surface — join / send / delivery handler / delivered — is
// the API a native transport would expose.
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "cesrm/cesrm_agent.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "protocol.hpp"
#include "sim/sharded.hpp"
#include "srm/srm_agent.hpp"

namespace cesrm::api {

struct SessionConfig {
  /// Which protocol recovers losses for this member (shared enum — the
  /// same selector the experiment harness uses).
  Protocol protocol = Protocol::kCesrm;
  cesrm::CesrmConfig cesrm;  ///< cesrm.srm also configures SRM members
  /// When true, ADUs of each stream are delivered in sequence order
  /// (holdback buffer); default is ALF-style immediate delivery.
  bool ordered_delivery = false;
};

/// One delivered application data unit.
struct Adu {
  net::NodeId source = net::kInvalidNode;  ///< originating member
  net::SeqNo seq = net::kNoSeq;
  sim::SimTime delivered_at;
};

class MulticastGroup;

/// A member's handle on the reliable multicast session.
class MulticastSession {
 public:
  using DeliveryHandler = std::function<void(const Adu&)>;

  /// Registers the upcall invoked for every delivered ADU. With ordered
  /// delivery the upcall sees each stream's ADUs in sequence order.
  void set_delivery_handler(DeliveryHandler handler);

  /// Originates the next ADU on this member's stream; returns its
  /// sequence number. The member's own ADUs are not delivered to itself.
  net::SeqNo send();

  /// Crash-stops this member (it stops receiving, repairing, and sending).
  void fail();

  net::NodeId node() const;
  /// True once the ADU is locally available (delivered or held back).
  bool has(net::NodeId source, net::SeqNo seq) const;
  /// Number of ADUs delivered to the application so far.
  std::uint64_t delivered_count() const { return delivered_count_; }
  /// Protocol-level statistics of this member.
  const srm::HostStats& transport_stats() const;
  /// CESRM cache-effectiveness counters summed over this member's
  /// per-source requestor/replier caches (all zero for SRM members).
  cesrm::CacheStats cache_stats() const;

 private:
  friend class MulticastGroup;
  MulticastSession(MulticastGroup& group, net::NodeId node,
                   const SessionConfig& config);

  void on_available(net::NodeId source, net::SeqNo seq);
  void deliver(net::NodeId source, net::SeqNo seq);

  MulticastGroup* group_;
  SessionConfig config_;
  std::unique_ptr<srm::SrmAgent> agent_;  // SrmAgent or CesrmAgent
  DeliveryHandler handler_;
  net::SeqNo next_send_ = 0;
  std::uint64_t delivered_count_ = 0;
  /// Ordered mode: next sequence expected per stream.
  std::map<net::NodeId, net::SeqNo> next_expected_;
};

/// The simulated session: topology, network, clock, and members.
class MulticastGroup {
 public:
  /// `tree`'s root and leaves are the joinable member positions.
  explicit MulticastGroup(std::shared_ptr<const net::MulticastTree> tree,
                          net::NetworkConfig net_config = {});
  ~MulticastGroup();

  /// Joins a member at `node` (the tree root or a leaf). Session messages
  /// start immediately, staggered per member.
  MulticastSession& join(net::NodeId node, SessionConfig config = {});

  /// Installs a per-link-crossing loss function (see net::DropFn);
  /// typically a Gilbert–Elliott process per link.
  void set_drop_fn(net::DropFn fn);

  sim::Simulator& simulator() { return engine_.sim(0); }
  net::Transport& network() { return network_; }
  const net::MulticastTree& tree() const { return *tree_; }

  void run_for(sim::SimTime duration);
  void run_until(sim::SimTime when);

  MulticastSession& at(net::NodeId node);

 private:
  friend class MulticastSession;

  std::shared_ptr<const net::MulticastTree> tree_;
  sim::ShardedEngine engine_;
  net::Network network_;
  util::Rng rng_{0xA11CE5EEDULL};
  std::map<net::NodeId, std::unique_ptr<MulticastSession>> members_;
};

}  // namespace cesrm::api
