#include "harness/scale.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>

#include "harness/group.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "net/topology_builder.hpp"
#include "obs/sketch.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "srm/receiver_block.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cesrm::harness {

std::vector<int> partition_tree(const net::MulticastTree& tree, int shards) {
  std::vector<int> shard_of(tree.size(), 0);
  if (shards <= 1) return shard_of;
  struct Sub {
    net::NodeId child = net::kInvalidNode;
    std::size_t size = 0;
  };
  std::vector<Sub> subs;
  for (net::NodeId c : tree.children(tree.root())) {
    std::size_t n = 0;
    std::vector<net::NodeId> stack{c};
    while (!stack.empty()) {
      const net::NodeId v = stack.back();
      stack.pop_back();
      ++n;
      for (net::NodeId w : tree.children(v)) stack.push_back(w);
    }
    subs.push_back({c, n});
  }
  std::stable_sort(subs.begin(), subs.end(), [](const Sub& a, const Sub& b) {
    return a.size != b.size ? a.size > b.size : a.child < b.child;
  });
  std::vector<std::size_t> load(static_cast<std::size_t>(shards), 0);
  for (const Sub& s : subs) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < load.size(); ++i)
      if (load[i] < load[best]) best = i;
    load[best] += s.size;
    std::vector<net::NodeId> stack{s.child};
    while (!stack.empty()) {
      const net::NodeId v = stack.back();
      stack.pop_back();
      shard_of[static_cast<std::size_t>(v)] = static_cast<int>(best);
      for (net::NodeId w : tree.children(v)) stack.push_back(w);
    }
  }
  return shard_of;
}

namespace {

constexpr sim::SimTime kWarmup = sim::SimTime::seconds(1);

/// The data source of a scale run: emits the transmission, answers repair
/// requests. Root-attached, so in sharded runs it executes exclusively on
/// shard 0's thread — its state needs no synchronization.
class ScaleSource : public net::Agent {
 public:
  ScaleSource(sim::Simulator& sim, net::Network& network, net::NodeId node,
              sim::SimTime reply_guard)
      : sim_(sim), network_(network), node_(node), reply_guard_(reply_guard) {
    network_.attach(node_, this);
  }

  void on_packet(const net::Packet& pkt) override {
    switch (pkt.type) {
      case net::PacketType::kRequest: {
        // SRM-style multicast repair — but at most one retransmission of
        // a seq per guard window: concurrent requestors are served by the
        // same flood, exactly like timer suppression would arrange.
        if (!should_reply(pkt.seq)) return;
        net::RecoveryAnnotation ann = pkt.ann;
        ann.replier = node_;
        network_.multicast(node_,
                           net::make_reply_packet(node_, node_, pkt.seq, ann));
        break;
      }
      case net::PacketType::kExpRequest: {
        // CESRM expedited repair: the *request* came unicast from the
        // cached requestor, but the repair itself is multicast like every
        // SRM-family retransmission — one flood serves all blocks that
        // lost the packet, so the source's downlinks carry O(1) repairs
        // per seq instead of O(blocks). Shares the per-seq guard with the
        // kRequest path: a flood is a flood, whoever triggered it.
        if (!should_reply(pkt.seq)) return;
        net::RecoveryAnnotation ann = pkt.ann;
        ann.replier = node_;
        network_.multicast(
            node_, net::make_exp_reply_packet(node_, node_, pkt.seq, ann));
        break;
      }
      case net::PacketType::kSession:
        ++sessions_received_;
        break;
      default:
        break;
    }
  }

  std::uint64_t sessions_received() const { return sessions_received_; }

 private:
  /// One retransmission flood of a seq per guard window, shared across
  /// the plain and expedited request paths.
  bool should_reply(net::SeqNo seq) {
    const sim::SimTime last = last_reply_.count(seq)
                                  ? last_reply_[seq]
                                  : sim::SimTime::zero() - reply_guard_;
    if (sim_.now() - last < reply_guard_) return false;
    last_reply_[seq] = sim_.now();
    return true;
  }

  sim::Simulator& sim_;
  net::Network& network_;
  const net::NodeId node_;
  const sim::SimTime reply_guard_;
  std::map<net::SeqNo, sim::SimTime> last_reply_;
  std::uint64_t sessions_received_ = 0;
};

net::MulticastTree build_scale_tree(std::uint64_t blocks, int depth,
                                    std::uint64_t seed) {
  net::TreeShape shape;
  shape.receivers = static_cast<int>(blocks);
  shape.depth = depth;
  // Widen the branching cap until `depth` levels can carry every leaf.
  while (std::pow(static_cast<double>(shape.max_branching), depth) <
         static_cast<double>(blocks))
    ++shape.max_branching;
  util::Rng rng(seed);
  return net::build_random_tree(shape, rng);
}

}  // namespace

ScaleResult run_scale(const ScaleConfig& config) {
  CESRM_CHECK_MSG(config.protocol != Protocol::kLms,
                  "scale runs support srm and cesrm only: lms needs router "
                  "replier state that receiver blocks do not model");
  CESRM_CHECK_MSG(config.receivers >= 1, "scale run needs >= 1 receiver");
  CESRM_CHECK_MSG(config.block_members >= 1, "block size must be >= 1");
  CESRM_CHECK_MSG(config.packets >= 1, "scale run needs >= 1 data packet");
  const std::uint64_t blocks =
      (config.receivers + config.block_members - 1) / config.block_members;
  CESRM_CHECK_MSG(blocks <= 1u << 22, "too many blocks for one tree");

  const net::MulticastTree tree =
      build_scale_tree(blocks, config.tree_depth, config.seed);
  const net::NodeId root = tree.root();
  CESRM_CHECK(tree.receivers().size() == blocks);

  net::NetworkConfig netcfg;  // the paper's 1.5 Mbps / 20 ms defaults
  const int shards = std::max(config.shards, 1);
  sim::ShardedEngine engine(partition_tree(tree, shards), shards,
                            netcfg.link_delay);
  sim::Simulator& root_sim = engine.sim(0);
  const auto sim_of = [&](net::NodeId node) -> sim::Simulator& {
    return engine.sim(engine.shard_of(node));
  };

  net::Network network(engine, tree, netcfg);

  // Reply-suppression guard: one retransmission flood covers every
  // requestor, so suppress duplicates for a full deepest-path round trip.
  sim::SimTime max_path = sim::SimTime::zero();
  for (net::NodeId leaf : tree.receivers())
    max_path = std::max(max_path, network.path_delay(root, leaf));
  ScaleSource source(root_sim, network, root, max_path * std::int64_t{4});

  // --- receiver blocks, struct-of-arrays, one per leaf ------------------
  std::vector<std::unique_ptr<srm::ReceiverBlock>> block_agents;
  block_agents.reserve(blocks);
  std::uint64_t remaining = config.receivers;
  for (net::NodeId leaf : tree.receivers()) {
    srm::ReceiverBlockConfig bc;
    bc.members = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(remaining, config.block_members));
    remaining -= bc.members;
    bc.member_loss = config.member_loss;
    bc.expedited = config.protocol == Protocol::kCesrm;
    std::uint64_t h = config.seed ^
                      (static_cast<std::uint64_t>(leaf) *
                       0x9E3779B97F4A7C15ULL);
    block_agents.push_back(std::make_unique<srm::ReceiverBlock>(
        sim_of(leaf), network, leaf, root, bc, util::splitmix64(h)));
  }
  CESRM_CHECK(remaining == 0);

  const sim::SimTime data_end =
      kWarmup + config.period * static_cast<std::int64_t>(config.packets);
  const sim::SimTime horizon = data_end + config.drain;

  // --- pre-aggregated session traffic: one packet per block per period --
  // Each block's rounds run on its own shard's simulator and count only
  // themselves, so sharded runs never share mutable state. Rounds go on
  // while the next one starts no later than the end of the data.
  std::vector<std::unique_ptr<PeriodicSource>> sessions;
  sessions.reserve(blocks);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const net::NodeId leaf = block_agents[b]->node();
    // Stagger offsets deterministically across the period.
    const sim::SimTime first =
        kWarmup + sim::SimTime::nanos(static_cast<std::int64_t>(
                      static_cast<std::uint64_t>(config.session_period.ns()) *
                      b / blocks));
    const net::SeqNo rounds =
        1 + std::max<std::int64_t>(
                0, (data_end - first).ns() / config.session_period.ns());
    sessions.push_back(std::make_unique<PeriodicSource>(
        sim_of(leaf), config.session_period, rounds,
        [&network, leaf, root](net::SeqNo) {
          net::Packet p = net::make_session_packet(leaf, root, nullptr);
          p.dest = root;
          network.unicast(leaf, p);
        }));
    sessions.back()->start(first);
  }

  // --- the transmission -------------------------------------------------
  PeriodicSource data_source(root_sim, config.period, config.packets,
                             [&network, root](net::SeqNo seq) {
                               network.multicast(
                                   root, net::make_data_packet(root, seq));
                             });
  data_source.start(kWarmup);

  const auto t0 = std::chrono::steady_clock::now();
  engine.run_until(horizon);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // --- collection -------------------------------------------------------
  ScaleResult r;
  r.receivers = config.receivers;
  r.blocks = blocks;
  r.tree_nodes = tree.size();
  r.events_executed = engine.events_executed();
  r.events_scheduled = engine.events_scheduled();
  r.queue_high_water = engine.queue_high_water();
  r.heap_high_water = engine.heap_high_water();
  r.wall_seconds = wall;

  obs::LogHistogram latency;
  std::vector<srm::SessionSummary> leaf_summary(tree.size());
  for (std::uint64_t b = 0; b < blocks; ++b) {
    const auto& blk = *block_agents[b];
    r.losses += blk.losses();
    r.recovered += blk.recovered();
    r.outstanding += blk.outstanding();
    r.window_overflows += blk.window_overflows();
    r.requests_sent += blk.requests_sent();
    latency.merge(blk.recovery_latency());
    leaf_summary[static_cast<std::size_t>(blk.node())] = blk.summary();
    const auto rounds = static_cast<std::uint64_t>(sessions[b]->sent());
    r.session_rounds += rounds;
    r.flat_session_crossings +=
        rounds * leaf_summary[static_cast<std::size_t>(blk.node())].members *
        static_cast<std::uint64_t>(tree.link_count());
  }
  r.recovery_p50_ns = latency.quantile(0.5);
  r.recovery_p99_ns = latency.quantile(0.99);
  r.session_crossings =
      network.crossings().unicast_of(net::PacketType::kSession);
  r.root_summary = srm::aggregate_up(tree, leaf_summary)[
      static_cast<std::size_t>(root)];
  for (const auto& blk : block_agents) r.member_state_bytes += blk->state_bytes();
  r.bytes_per_receiver =
      static_cast<double>(r.member_state_bytes) /
      static_cast<double>(config.receivers);
  return r;
}

}  // namespace cesrm::harness
