#include "net/network.hpp"

#include "obs/trace_recorder.hpp"
#include "util/check.hpp"

namespace cesrm::net {

/// Internal ref-counted packet handle: an N-node flood materializes the
/// Packet once, with its encoded size, in a box that every hop shares,
/// instead of copying the packet into a fresh event per tree edge. The
/// count is not atomic: a box is only ever touched by the shard that
/// made it, and a hop into another shard carries a fresh box. A pending
/// lane hop holds one reference inside its lane word.
class Network::PacketRef {
 public:
  static PacketRef make(const Packet& pkt) {
    return PacketRef(new Box{pkt, pkt.encoded_size(), 1});
  }
  PacketRef(const PacketRef& o) noexcept : box_(o.box_) { ++box_->refs; }
  PacketRef(PacketRef&& o) noexcept : box_(o.box_) { o.box_ = nullptr; }
  PacketRef& operator=(const PacketRef&) = delete;
  PacketRef& operator=(PacketRef&&) = delete;
  ~PacketRef() {
    if (box_ != nullptr && --box_->refs == 0) delete box_;
  }

  const Packet& operator*() const { return box_->pkt; }
  const Packet* operator->() const { return &box_->pkt; }
  /// Packet::encoded_size(), computed once when the box was made.
  std::size_t wire_bytes() const { return box_->wire_bytes; }

  /// A lane word: one new reference to the box, with `mode` in the low
  /// bits. Ownership passes to the word until from_word() adopts it.
  std::uint64_t to_word(Mode mode) const {
    ++box_->refs;
    return reinterpret_cast<std::uintptr_t>(box_) |
           static_cast<std::uintptr_t>(mode);
  }
  /// Adopts the reference a to_word() word owns.
  static PacketRef from_word(std::uint64_t word) {
    return PacketRef(reinterpret_cast<Box*>(
        static_cast<std::uintptr_t>(word & ~kModeMask)));
  }
  static Mode mode_of(std::uint64_t word) {
    return static_cast<Mode>(word & kModeMask);
  }

 private:
  struct Box {
    Packet pkt;
    std::size_t wire_bytes;
    std::uint32_t refs;
  };
  static constexpr std::uint64_t kModeMask = 7;
  static_assert(alignof(Box) > kModeMask, "mode bits need aligned boxes");

  explicit PacketRef(Box* box) : box_(box) {}

  Box* box_;
};

namespace {
void record_drop(sim::Simulator& sim, const Packet& pkt, NodeId from,
                 NodeId to) {
  if (auto* rec = sim.recorder())
    rec->emit(sim.now(), obs::EventKind::kPacketDropped, to, pkt.source,
              pkt.seq, from, static_cast<std::int64_t>(pkt.type));
}
}  // namespace

Network::Network(sim::ShardedEngine& engine, const MulticastTree& tree,
                 NetworkConfig config)
    : engine_(engine),
      tree_(tree),
      config_(config),
      agents_(tree.size(), nullptr),
      busy_(2 * tree.size(), sim::SimTime::zero()),
      lane_base_(engine.sim(0).add_lanes(
          static_cast<std::uint32_t>(busy_.size()), lane_client())),
      link_up_(tree.size(), 1),
      shard_stats_(static_cast<std::size_t>(engine.shards())),
      shard_ser_(static_cast<std::size_t>(engine.shards())) {
  CESRM_CHECK(config_.link_bandwidth_bps > 0.0);
  CESRM_CHECK(config_.link_delay >= sim::SimTime::zero());
  CESRM_CHECK_MSG(engine.locations() >= tree.size(),
                  "engine has fewer locations than the tree has nodes");
  CESRM_CHECK_MSG(
      engine.shards() == 1 || engine.lookahead() <= config_.link_delay,
      "engine lookahead exceeds the link delay");
  // Hop words must find this network at the same lane id on any shard.
  for (int shard = 1; shard < engine.shards(); ++shard)
    CESRM_CHECK_MSG(
        engine.sim(shard).add_lanes(static_cast<std::uint32_t>(busy_.size()),
                                    lane_client()) == lane_base_,
        "shard " << shard << " cannot reserve this network's lane block");
}

void Network::attach(NodeId node, Agent* agent) {
  CESRM_CHECK(node >= 0 && static_cast<std::size_t>(node) < agents_.size());
  CESRM_CHECK_MSG(agents_[static_cast<std::size_t>(node)] == nullptr,
                  "agent already attached at node " << node);
  CESRM_CHECK_MSG(tree_.is_root(node) || tree_.is_leaf(node),
                  "members attach only at the source or receivers");
  agents_[static_cast<std::size_t>(node)] = agent;
}

void Network::set_link_up(LinkId link, bool up) {
  CESRM_CHECK_MSG(link > 0 && static_cast<std::size_t>(link) < link_up_.size(),
                  "not a link (child endpoint): " << link);
  link_up_[static_cast<std::size_t>(link)] = up ? 1 : 0;
}

bool Network::link_up(LinkId link) const {
  CESRM_CHECK(link >= 0 && static_cast<std::size_t>(link) < link_up_.size());
  return link_up_[static_cast<std::size_t>(link)] != 0;
}

void Network::set_perturb_fn(PerturbFn fn) {
  CESRM_CHECK_MSG(fn == nullptr || engine_.shards() == 1,
                  "a perturbation hook needs a one-shard engine");
  perturb_fn_ = std::move(fn);
}

CrossingStats Network::crossings() const {
  CrossingStats total;
  for (const CrossingStats& s : shard_stats_) total += s;
  return total;
}

void Network::reset_crossings() {
  for (CrossingStats& s : shard_stats_) s = CrossingStats{};
}

std::uint32_t Network::link_dir(NodeId from, NodeId to) const {
  // The edge is identified by its child endpoint; direction 0 = downstream.
  if (tree_.parent(to) == from) return 2 * static_cast<std::uint32_t>(to);
  CESRM_CHECK_MSG(tree_.parent(from) == to,
                  "not a tree edge: " << from << " -> " << to);
  return 2 * static_cast<std::uint32_t>(from) + 1;
}

sim::SimTime Network::serialization_time(int size_bytes) {
  if (!config_.model_bandwidth || size_bytes <= 0) return sim::SimTime::zero();
  // A sweep sees only a handful of distinct sizes (payload and control),
  // so a tiny linear-scan memo beats recomputing the division + rounding
  // on every hop of every packet.
  auto& cache = shard_ser_[static_cast<std::size_t>(engine_.current_shard())];
  for (const auto& [size, tx] : cache)
    if (size == size_bytes) return tx;
  const sim::SimTime tx = sim::SimTime::from_seconds(
      static_cast<double>(size_bytes) * 8.0 / config_.link_bandwidth_bps);
  cache.emplace_back(size_bytes, tx);
  return tx;
}

sim::SimTime Network::transmit(std::uint32_t dir, int size_bytes) {
  sim::SimTime& busy = busy_[dir];
  const sim::SimTime start = std::max(cur_sim().now(), busy);
  const sim::SimTime tx = serialization_time(size_bytes);
  busy = start + tx;
  return start + tx + config_.link_delay;
}

bool Network::crossing_lost(const Packet& pkt, NodeId from, NodeId to) {
  const auto type_idx = static_cast<std::size_t>(pkt.type);
  // Administrative link state: a down link loses the crossing outright,
  // in either direction.
  const LinkId link = tree_.parent(to) == from ? to : from;
  if (!link_up_[static_cast<std::size_t>(link)]) {
    ++cur_stats().dropped[type_idx];
    record_drop(cur_sim(), pkt, from, to);
    return true;
  }
  if (drop_fn_ && drop_fn_(pkt, from, to)) {
    ++cur_stats().dropped[type_idx];
    record_drop(cur_sim(), pkt, from, to);
    return true;
  }
  return false;
}

void Network::send_hop(NodeId from, NodeId to, const PacketRef& pkt,
                       Mode mode) {
  const auto type_idx = static_cast<std::size_t>(pkt->type);
  CrossingStats& stats = cur_stats();
  switch (mode) {
    case Mode::kMulticast: ++stats.multicast[type_idx]; break;
    case Mode::kUnicast: ++stats.unicast[type_idx]; break;
    case Mode::kSubcast: ++stats.subcast[type_idx]; break;
  }
  stats.wire_bytes[type_idx] += pkt.wire_bytes();
  if (crossing_lost(*pkt, from, to)) return;
  const std::uint32_t dir = link_dir(from, to);
  sim::SimTime arrival = transmit(dir, pkt->size_bytes);
  if (perturb_fn_) {
    const Perturbation p = perturb_fn_(*pkt, from, to);
    CESRM_CHECK(p.extra_delay >= sim::SimTime::zero());
    arrival += p.extra_delay;
    if (p.duplicate) {
      ++stats.duplicated[type_idx];
      schedule_hop(from, to, dir, transmit(dir, pkt->size_bytes), pkt, mode);
    }
  }
  schedule_hop(from, to, dir, arrival, pkt, mode);
}

void Network::schedule_hop(NodeId from, NodeId to, std::uint32_t dir,
                           sim::SimTime arrival, const PacketRef& pkt,
                           Mode mode) {
  // Jitter can put `arrival` before an earlier hop's on this link; the
  // queue then keeps it off the lane, so the pop order stays exact.
  if (engine_.shard_of(to) == engine_.current_shard()) {
    engine_.schedule_in_lane_from(from, arrival, lane_base_ + dir,
                                  pkt.to_word(mode));
  } else {
    // Box counts are not atomic: the receiving shard gets its own box.
    engine_.schedule_from(
        from, to, arrival,
        [this, from, to, ref = PacketRef::make(*pkt), mode] {
          arrive(to, from, ref, mode);
        });
  }
}

void Network::fire_hop(void* self, std::uint32_t lane, std::uint64_t word) {
  auto& net = *static_cast<Network*>(self);
  const std::uint32_t dir = lane - net.lane_base_;
  const auto child = static_cast<NodeId>(dir >> 1);
  const NodeId parent = net.tree_.parent(child);
  const PacketRef pkt = PacketRef::from_word(word);
  if (dir & 1)
    net.arrive(parent, child, pkt, PacketRef::mode_of(word));
  else
    net.arrive(child, parent, pkt, PacketRef::mode_of(word));
}

void Network::drop_hop(std::uint64_t word) {
  PacketRef::from_word(word);  // adopts the word's reference and releases it
}

void Network::arrive(NodeId at, NodeId came_from, const PacketRef& pkt,
                     Mode mode) {
  switch (mode) {
    case Mode::kMulticast: {
      if (Agent* agent = agents_[static_cast<std::size_t>(at)]) {
        // Router assistance (§3.3): annotate replies with the turning-point
        // router for this recipient — the node at which the packet turned
        // from travelling "up" (toward the source) to "down". For a tree
        // path that is lca(sender, recipient).
        if (pkt->type == PacketType::kReply ||
            pkt->type == PacketType::kExpReply) {
          Packet annotated = *pkt;
          annotated.ann.turning_point = tree_.lca(pkt->sender, at);
          agent->on_packet(annotated);
        } else {
          agent->on_packet(*pkt);
        }
      }
      for (NodeId next : tree_.neighbors(at))
        if (next != came_from) send_hop(at, next, pkt, Mode::kMulticast);
      break;
    }
    case Mode::kUnicast: {
      if (at == pkt->dest) {
        if (Agent* agent = agents_[static_cast<std::size_t>(at)])
          agent->on_packet(*pkt);
        return;
      }
      const NodeId next = tree_.next_hop_toward(at, pkt->dest);
      CESRM_CHECK_MSG(next != kInvalidNode, "no route from " << at << " to "
                                                             << pkt->dest);
      send_hop(at, next, pkt, Mode::kUnicast);
      break;
    }
    case Mode::kSubcast: {
      if (Agent* agent = agents_[static_cast<std::size_t>(at)])
        agent->on_packet(*pkt);
      for (NodeId c : tree_.children(at)) send_hop(at, c, pkt, Mode::kSubcast);
      break;
    }
  }
}

void Network::multicast(NodeId from, const Packet& pkt) {
  CESRM_CHECK(from >= 0 && static_cast<std::size_t>(from) < agents_.size());
  // One materialization; every hop shares the box.
  const PacketRef ref = PacketRef::make(pkt);
  for (NodeId next : tree_.neighbors(from))
    send_hop(from, next, ref, Mode::kMulticast);
}

void Network::unicast(NodeId from, const Packet& pkt) {
  CESRM_CHECK(pkt.dest != kInvalidNode);
  const PacketRef ref = PacketRef::make(pkt);
  if (from == pkt.dest) {
    // Degenerate self-send: deliver after zero hops at the next tick.
    engine_.schedule_from(from, from, cur_sim().now(), [this, from, ref] {
      if (Agent* agent = agents_[static_cast<std::size_t>(from)])
        agent->on_packet(*ref);
    });
    return;
  }
  send_hop(from, tree_.next_hop_toward(from, pkt.dest), ref, Mode::kUnicast);
}

void Network::leg_hop(NodeId cur, NodeId router, const PacketRef& pkt) {
  const NodeId next = tree_.next_hop_toward(cur, router);
  CESRM_CHECK(next != kInvalidNode);
  const auto type_idx = static_cast<std::size_t>(pkt->type);
  CrossingStats& stats = cur_stats();
  ++stats.unicast[type_idx];
  stats.wire_bytes[type_idx] += pkt.wire_bytes();
  if (crossing_lost(*pkt, cur, next)) return;  // leg lost: no subcast
  const sim::SimTime arrival = transmit(link_dir(cur, next), pkt->size_bytes);
  // The leg continues to something other than arrive(), so it is a heap
  // closure rather than a lane word; into another shard it carries its
  // own box.
  PacketRef leg = engine_.shard_of(next) == engine_.current_shard()
                      ? pkt
                      : PacketRef::make(*pkt);
  engine_.schedule_from(cur, next, arrival,
                        [this, next, router, ref = std::move(leg)] {
                          if (next == router) {
                            for (NodeId c : tree_.children(router))
                              send_hop(router, c, ref, Mode::kSubcast);
                          } else {
                            leg_hop(next, router, ref);
                          }
                        });
}

void Network::unicast_subcast(NodeId from, NodeId router, const Packet& pkt) {
  CESRM_CHECK(router >= 0 &&
              static_cast<std::size_t>(router) < agents_.size());
  const PacketRef ref = PacketRef::make(pkt);
  if (from == router) {
    // Already at the turning point: subcast immediately.
    engine_.schedule_from(from, from, cur_sim().now(), [this, router, ref] {
      for (NodeId c : tree_.children(router))
        send_hop(router, c, ref, Mode::kSubcast);
    });
    return;
  }
  leg_hop(from, router, ref);
}

sim::SimTime Network::path_delay(NodeId a, NodeId b) const {
  return config_.link_delay * static_cast<std::int64_t>(
                                  tree_.hop_distance(a, b));
}

}  // namespace cesrm::net
