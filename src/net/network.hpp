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
  /// Runs on `engine`: every hop event is scheduled through it with a
  /// deterministic ⟨origin node, counter⟩ tag (same-shard into a link
  /// lane, cross-shard via the window-barrier mailboxes), and crossing
  /// stats and the serialization memo are per shard. With two or more
  /// shards the drop function must be pure/thread-safe, no administrative
  /// link-state change may follow the start of the run, and the engine's
  /// lookahead must not exceed config.link_delay.
  Network(sim::ShardedEngine& engine, const MulticastTree& tree,
          NetworkConfig config);

  const MulticastTree& tree() const override { return tree_; }
  const NetworkConfig& config() const { return config_; }

  /// Attaches the protocol agent for member node `node` (must be the root
  /// or a leaf). At most one agent per node.
  void attach(NodeId node, Agent* agent) override;

  /// Installs the per-crossing loss decision; nullptr = lossless.
  void set_drop_fn(DropFn fn) { drop_fn_ = std::move(fn); }

  /// Installs the per-crossing perturbation decision (duplication and
  /// delay jitter); nullptr = undisturbed. Consulted after link state and
  /// the drop decision, so a dropped packet is never duplicated. Needs a
  /// one-shard engine: the hook is stateful and jitter can undercut the
  /// lookahead.
  void set_perturb_fn(PerturbFn fn);

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

  /// Crossing totals summed over every shard's counters (uint64 adds, so
  /// independent of the shard layout).
  CrossingStats crossings() const;
  void reset_crossings();

 private:
  enum class Mode { kMulticast, kUnicast, kSubcast };

  /// Internal ref-counted packet handle, one box per sent packet; see
  /// network.cpp.
  class PacketRef;

  /// Schedules the hop `from` → `to`; on arrival delivers to the agent at
  /// `to` (if any) and, in flood/subcast modes, keeps forwarding.
  void send_hop(NodeId from, NodeId to, const PacketRef& pkt, Mode mode);
  void arrive(NodeId at, NodeId came_from, const PacketRef& pkt, Mode mode);

  /// LaneClient callbacks: a lane is a directed link (lane_base_ +
  /// link_dir), its word a PacketRef::to_word hop.
  static void fire_hop(void* self, std::uint32_t lane, std::uint64_t word);
  static void drop_hop(std::uint64_t word);
  sim::LaneClient lane_client() { return {&fire_hop, &drop_hop, this}; }

  /// Schedules the arrival of `pkt` at `to` over the directed link `dir`
  /// from `from`: a lane word on the calling shard, or a mailbox event
  /// carrying its own box into another shard.
  void schedule_hop(NodeId from, NodeId to, std::uint32_t dir,
                    sim::SimTime arrival, const PacketRef& pkt, Mode mode);

  /// Subcast leg: one event-chained unicast-accounted hop of `pkt` from
  /// `cur` toward `router`; on reaching the router, fans out downstream as
  /// a subcast.
  void leg_hop(NodeId cur, NodeId router, const PacketRef& pkt);

  /// Shared per-crossing loss accounting (link state + DropFn): returns
  /// true (and tallies the drop) when the crossing `from` → `to` loses the
  /// packet. Used by send_hop and leg_hop.
  bool crossing_lost(const Packet& pkt, NodeId from, NodeId to);

  /// Queueing link model: returns the arrival time of a packet handed to
  /// the directed link `dir` (see link_dir) now, advancing its busy
  /// horizon. Arrivals on one directed link therefore never decrease,
  /// which is what lets each link's hops share one event-queue lane.
  sim::SimTime transmit(std::uint32_t dir, int size_bytes);

  /// Serialization delay of a `size_bytes` packet on a configured link;
  /// memoized per distinct size (the sweep uses only a couple of sizes,
  /// and the division-plus-round is hot on every hop of every packet).
  sim::SimTime serialization_time(int size_bytes);

  /// Index of the directed tree edge `from` → `to`: 2·child + direction
  /// (0 = down, parent→child; 1 = up). Indexes busy_; the edge's
  /// event-queue lane is lane_base_ + link_dir.
  std::uint32_t link_dir(NodeId from, NodeId to) const;

  /// The calling shard's clock/scheduler and crossing counters.
  sim::Simulator& cur_sim() { return engine_.current_sim(); }
  CrossingStats& cur_stats() {
    return shard_stats_[static_cast<std::size_t>(engine_.current_shard())];
  }

  sim::ShardedEngine& engine_;
  const MulticastTree& tree_;
  NetworkConfig config_;
  std::vector<Agent*> agents_;
  std::vector<sim::SimTime> busy_;  ///< per directed link, see link_dir
  /// First of the 2·tree.size() lanes reserved at the same id on every
  /// shard's simulator.
  std::uint32_t lane_base_;
  /// Indexed by child endpoint. Deliberately not vector<bool>: concurrent
  /// shards read distinct links, and packed bits would share bytes.
  std::vector<char> link_up_;
  DropFn drop_fn_;
  PerturbFn perturb_fn_;
  std::vector<CrossingStats> shard_stats_;  ///< one per shard
  /// Per-shard serialization memo: it is mutable, and each shard only
  /// ever consults its own.
  std::vector<std::vector<std::pair<int, sim::SimTime>>> shard_ser_;
};

}  // namespace cesrm::net
