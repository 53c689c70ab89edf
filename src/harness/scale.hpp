// scale.hpp — the million-receiver scale driver.
//
// The Table-1 experiment harness (experiment.hpp) attaches a full SrmAgent
// per member — faithful, but kilobytes and many timers per receiver. This
// driver is the scale path: receivers live in struct-of-arrays
// srm::ReceiverBlock populations (F members behind each leaf, ~16 bytes of
// per-member state), session state flows pre-aggregated (one summary
// packet per block per period instead of one flood per member — see
// srm/session_aggregate.hpp), and the whole simulation can run sharded
// over N event queues (sim::ShardedEngine) with identical results for any
// shard count. 10⁵ receivers fit in a laptop's cache slack; 10⁶ are a
// matter of patience, not feasibility.
//
// The driver measures what the scale story claims: simulator throughput
// (events/s), bytes of member state per receiver, total and per-period
// session crossings versus the flat-SRM O(members × links) cost, and the
// block-level recovery-latency distribution (p50/p99) under SRM and
// CESRM-expedited recovery.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "protocol.hpp"
#include "sim/time.hpp"
#include "srm/session_aggregate.hpp"

namespace cesrm::harness {

/// Deterministic shard map for a multicast tree: root on shard 0, each
/// root-child subtree wholly on one shard by greedy longest-first
/// bin-packing. Used by run_scale's sharded engine; any map is
/// correct, this one keeps floods mostly intra-shard.
std::vector<int> partition_tree(const net::MulticastTree& tree, int shards);

struct ScaleConfig {
  Protocol protocol = Protocol::kCesrm;
  /// Total receiver population N; hosted as ceil(N / block_members)
  /// leaf blocks of up to block_members each.
  std::uint64_t receivers = 100000;
  std::uint32_t block_members = 100;
  int tree_depth = 6;
  net::SeqNo packets = 200;
  sim::SimTime period = sim::SimTime::millis(40);
  /// Independent per-member last-hop loss probability.
  double member_loss = 0.01;
  sim::SimTime session_period = sim::SimTime::seconds(1);
  std::uint64_t seed = 1;
  /// Engine shards, each on its own thread; 0 and 1 both run one shard
  /// on the caller's thread. Results are identical for every count (the
  /// scale suite asserts it).
  int shards = 1;
  sim::SimTime drain = sim::SimTime::seconds(30);
};

struct ScaleResult {
  std::uint64_t receivers = 0;
  std::uint64_t blocks = 0;
  std::uint64_t tree_nodes = 0;
  std::uint64_t events_executed = 0;
  /// Event-queue work, summed (scheduled) or maxed (peaks) over shards:
  /// events ever scheduled, peak pending events and peak heap entries.
  /// The heap peak sits far below the pending peak because each link's
  /// queued hops wait in a FIFO lane behind one heap entry.
  std::uint64_t events_scheduled = 0;
  std::uint64_t queue_high_water = 0;
  std::uint64_t heap_high_water = 0;
  double wall_seconds = 0;  ///< host timing — never part of determinism

  // --- recovery outcome over all members ---
  std::uint64_t losses = 0;
  std::uint64_t recovered = 0;
  std::uint64_t outstanding = 0;
  std::uint64_t window_overflows = 0;
  std::uint64_t requests_sent = 0;
  std::int64_t recovery_p50_ns = 0;
  std::int64_t recovery_p99_ns = 0;

  // --- session economics ---
  std::uint64_t session_rounds = 0;
  /// Measured session-packet link crossings (aggregated path).
  std::uint64_t session_crossings = 0;
  /// What flat SRM would have crossed for the same rounds: one session
  /// flood per member per round — members × links × rounds.
  std::uint64_t flat_session_crossings = 0;

  /// Bytes of member-proportional SoA state, summed over blocks.
  std::uint64_t member_state_bytes = 0;
  double bytes_per_receiver = 0;

  /// Root-of-tree aggregate folded from the blocks' final summaries via
  /// aggregate_up (bit-exact vs the flat reference; tested).
  srm::SessionSummary root_summary;

  double events_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(events_executed) /
                                  wall_seconds
                            : 0.0;
  }
};

ScaleResult run_scale(const ScaleConfig& config);

}  // namespace cesrm::harness
