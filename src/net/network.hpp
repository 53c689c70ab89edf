// network.hpp — the simulated IP multicast network.
//
// The Network marries the MulticastTree topology to store-and-forward
// links (propagation delay + serialization at a configured bandwidth with
// per-direction FIFO queueing) and provides the three delivery primitives
// the protocols need:
//
//  * multicast(from, pkt)  — shared-tree flooding: the packet spreads from
//    the sender's attachment node over every tree edge (each node forwards
//    to all neighbours except the one it arrived from), exactly like
//    ns-2's dense-mode multicast over a fixed tree;
//  * unicast(from, pkt)    — hop-by-hop along the unique tree path;
//  * unicast_subcast(from, router, pkt) — router-assist (§3.3): unicast to
//    the turning-point router, which subcasts downstream only.
//
// A pluggable DropFn decides per link crossing whether the packet is lost;
// the experiment harness injects data-packet losses on exactly the links
// named by the link trace representation, and (optionally) random losses
// on recovery traffic. Fault injection (src/fault) layers two more knobs
// on top: administrative per-link up/down state (a down link loses every
// crossing in both directions — the §3.3 partition model) and a PerturbFn
// that duplicates packets or adds delay jitter per crossing. All link
// crossings are tallied per packet type and per delivery primitive — the
// Figure-5 "1 unit per link crossing" transmission-overhead metric falls
// directly out of these counters.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace cesrm::net {

/// Per-direction link crossing decision: return true to drop the packet on
/// the edge `from` → `to` (always a tree edge).
using DropFn = std::function<bool(const Packet& pkt, NodeId from, NodeId to)>;

/// Per-crossing perturbation decision (fault injection): the packet's
/// arrival is delayed by `extra_delay` and, when `duplicate` is set, a
/// second copy of the crossing is transmitted (consuming link bandwidth
/// like any other packet, so duplicates also queue).
struct Perturbation {
  sim::SimTime extra_delay = sim::SimTime::zero();
  bool duplicate = false;
};
using PerturbFn =
    std::function<Perturbation(const Packet& pkt, NodeId from, NodeId to)>;

struct NetworkConfig {
  double link_bandwidth_bps = 1.5e6;       ///< 1.5 Mbps (§4.3)
  sim::SimTime link_delay = sim::SimTime::millis(20);  ///< per-link, one-way
  /// When false, serialization time is ignored (pure-delay links); the
  /// default models the paper's 1 KB payloads on 1.5 Mbps links.
  bool model_bandwidth = true;
};

/// Link-crossing counters, indexed by PacketType.
struct CrossingStats {
  std::array<std::uint64_t, kPacketTypeCount> multicast{};
  std::array<std::uint64_t, kPacketTypeCount> unicast{};
  std::array<std::uint64_t, kPacketTypeCount> subcast{};
  std::array<std::uint64_t, kPacketTypeCount> dropped{};
  /// Extra copies injected by the perturbation hook (fault injection).
  std::array<std::uint64_t, kPacketTypeCount> duplicated{};
  /// Encoded wire bytes per link crossing (Packet::encoded_size(), the
  /// canonical v1 frame size), counted at the same point as the crossing
  /// counters — before the loss decision, across every delivery primitive.
  std::array<std::uint64_t, kPacketTypeCount> wire_bytes{};

  std::uint64_t multicast_of(PacketType t) const {
    return multicast[static_cast<std::size_t>(t)];
  }
  std::uint64_t unicast_of(PacketType t) const {
    return unicast[static_cast<std::size_t>(t)];
  }
  std::uint64_t subcast_of(PacketType t) const {
    return subcast[static_cast<std::size_t>(t)];
  }
  std::uint64_t total_of(PacketType t) const {
    const auto i = static_cast<std::size_t>(t);
    return multicast[i] + unicast[i] + subcast[i];
  }
  std::uint64_t wire_bytes_of(PacketType t) const {
    return wire_bytes[static_cast<std::size_t>(t)];
  }

  CrossingStats& operator+=(const CrossingStats& o) {
    for (std::size_t i = 0; i < kPacketTypeCount; ++i) {
      multicast[i] += o.multicast[i];
      unicast[i] += o.unicast[i];
      subcast[i] += o.subcast[i];
      dropped[i] += o.dropped[i];
      duplicated[i] += o.duplicated[i];
      wire_bytes[i] += o.wire_bytes[i];
    }
    return *this;
  }
};

class Network : public Transport {
 public:
  Network(sim::Simulator& sim, const MulticastTree& tree,
          NetworkConfig config);

  const MulticastTree& tree() const override { return tree_; }
  const NetworkConfig& config() const { return config_; }

  /// Attaches the protocol agent for member node `node` (must be the root
  /// or a leaf). At most one agent per node.
  void attach(NodeId node, Agent* agent) override;

  /// Installs the per-crossing loss decision; nullptr = lossless.
  void set_drop_fn(DropFn fn) { drop_fn_ = std::move(fn); }

  /// Switches the network onto a sharded parallel engine: every hop event
  /// is scheduled through the engine with a deterministic ⟨origin node,
  /// counter⟩ tag (same-shard locally, cross-shard via the window-barrier
  /// mailboxes), crossing stats and the serialization memo become
  /// per-shard, and the subcast leg is event-chained hop by hop instead
  /// of walked synchronously (the walk would mutate busy horizons owned
  /// by other shards). Legacy mode (no engine, the default) is untouched
  /// and byte-identical. Requirements in sharded mode: the drop function
  /// must be pure/thread-safe, no perturbation hook, no administrative
  /// link-state changes after the run starts, and the engine's lookahead
  /// must not exceed config().link_delay.
  void enable_sharding(sim::ShardedEngine* engine);

  /// Installs the per-crossing perturbation decision (duplication and
  /// delay jitter); nullptr = undisturbed. Consulted after link state and
  /// the drop decision, so a dropped packet is never duplicated.
  void set_perturb_fn(PerturbFn fn) { perturb_fn_ = std::move(fn); }

  /// Administrative link state (fault injection): a down link drops every
  /// crossing in either direction, counted under CrossingStats::dropped.
  /// Links are identified by their child endpoint, as everywhere else.
  void set_link_up(LinkId link, bool up);
  bool link_up(LinkId link) const;

  /// Floods `pkt` over the shared tree from `from`'s attachment point.
  /// The sender does not receive its own packet.
  void multicast(NodeId from, const Packet& pkt) override;

  /// Sends `pkt` along the tree path from `from` to `pkt.dest`.
  void unicast(NodeId from, const Packet& pkt) override;

  /// Router-assisted delivery: unicast from `from` to `router`, then
  /// subcast from `router` to its entire subtree (§3.3).
  void unicast_subcast(NodeId from, NodeId router, const Packet& pkt) override;

  /// One-way propagation delay along the tree path a → b (sums link
  /// delays; excludes serialization). Used for oracle distances and for
  /// RTT normalization in reports.
  sim::SimTime path_delay(NodeId a, NodeId b) const override;

  const CrossingStats& crossings() const { return stats_; }
  void reset_crossings() { stats_ = CrossingStats{}; }

  /// Crossing totals across the legacy counters and every shard's — what
  /// the sharded harness collects (identical to crossings() without an
  /// engine). Summed shard 0..S-1; uint64 adds, so layout-independent.
  CrossingStats total_crossings() const;

 private:
  enum class Mode { kMulticast, kUnicast, kSubcast };

  /// Internal ref-counted packet handle: an N-node flood materializes the
  /// Packet once and every hop closure shares it, instead of copying the
  /// packet into a fresh closure per tree edge.
  using PacketRef = std::shared_ptr<const Packet>;

  /// Schedules the hop `from` → `to`; on arrival delivers to the agent at
  /// `to` (if any) and, in flood/subcast modes, keeps forwarding.
  void send_hop(NodeId from, NodeId to, const PacketRef& pkt, Mode mode);
  void arrive(NodeId at, NodeId came_from, const PacketRef& pkt, Mode mode);

  /// Sharded-mode subcast leg: one event-chained unicast-accounted hop of
  /// `pkt` from `cur` toward `router`; on reaching the router, fans out
  /// downstream as a subcast.
  void leg_hop(NodeId cur, NodeId router, const PacketRef& pkt);

  /// Shared per-crossing loss accounting (link state + DropFn): returns
  /// true (and tallies the drop) when the crossing `from` → `to` loses the
  /// packet. Used by send_hop and the unicast_subcast leg walk.
  bool crossing_lost(const Packet& pkt, NodeId from, NodeId to);

  /// Queueing link model: returns the arrival time of a packet handed to
  /// the edge `from`→`to` now, advancing the edge's busy horizon.
  sim::SimTime transmit(NodeId from, NodeId to, int size_bytes);

  /// Serialization delay of a `size_bytes` packet on a configured link;
  /// memoized per distinct size (the sweep uses only a couple of sizes,
  /// and the division-plus-round is hot on every hop of every packet).
  sim::SimTime serialization_time(int size_bytes);

  /// Per-direction busy horizon: index [child][0]=down (parent→child),
  /// [child][1]=up.
  sim::SimTime& busy_until(NodeId from, NodeId to);

  /// The clock/scheduler of the calling context: the ctor simulator in
  /// legacy mode, the current shard's in sharded mode.
  sim::Simulator& cur_sim() {
    return engine_ ? engine_->current_sim() : sim_;
  }
  CrossingStats& cur_stats() {
    return engine_ ? shard_stats_[static_cast<std::size_t>(
                         engine_->current_shard())]
                   : stats_;
  }

  sim::Simulator& sim_;
  const MulticastTree& tree_;
  NetworkConfig config_;
  std::vector<Agent*> agents_;
  std::vector<std::array<sim::SimTime, 2>> busy_;
  /// Indexed by child endpoint. Deliberately not vector<bool>: concurrent
  /// shards read distinct links, and packed bits would share bytes.
  std::vector<char> link_up_;
  std::vector<std::pair<int, sim::SimTime>> ser_cache_;
  DropFn drop_fn_;
  PerturbFn perturb_fn_;
  CrossingStats stats_;
  sim::ShardedEngine* engine_ = nullptr;
  std::vector<CrossingStats> shard_stats_;  ///< one per shard when sharded
  /// Per-shard serialization memo (the legacy ser_cache_ is shared
  /// mutable state and the sizes seen differ per shard anyway).
  std::vector<std::vector<std::pair<int, sim::SimTime>>> shard_ser_;
};

}  // namespace cesrm::net
