// sharded.hpp — conservative parallel discrete-event engine.
//
// The ShardedEngine partitions the model's scheduling locations (tree
// nodes, in this codebase) across S shards, each with its own Simulator
// (clock + 4-ary heap + slot pool), and runs them on S threads in
// lookahead windows:
//
//   W0 = min over shards of the earliest pending event
//   W1 = min(W0 + lookahead, horizon + 1 tick)
//
// Every shard executes its events with time < W1, then all shards meet at
// a barrier. Cross-shard event handoff goes through per-(src, dst) mailbox
// vectors: a shard posts {when, tag, callback} during its window and the
// destination shard drains its mailboxes into its own queue after the
// barrier, before the next window is computed. The scheme is conservative
// — correct-by-construction, no rollback — because every cross-shard
// event is a packet arrival over a link of delay >= lookahead: an event
// posted at local time t >= W0 arrives at t + lookahead >= W0 + lookahead
// >= W1, i.e. always beyond the current window, so no shard can receive
// an event for a time it has already passed.
//
// With one shard there is nothing to synchronize: run_until() runs the
// shard's simulator inline on the caller's thread, with no windows, no
// thread and no lookahead. That is the engine every full-agent run
// (Table-1, churn, LMS) uses; the (when, tag, seq) order
// below is the one event order of every simulated run.
//
// Determinism for ANY shard count (including 1) rests on the event tags
// (EventQueue::schedule_tagged). A queue's schedule sequence is an
// artifact of execution interleaving and differs across layouts, so all
// model events scheduled while processing location L carry the tag
// ⟨L, per-L counter⟩; ties at one instant then resolve by tag — a total
// order fixed by the model, not by the layout. Per-location counters are
// themselves deterministic by induction: each location's events execute
// in exactly one shard in (time, tag) order, and untagged (tag-0) events
// — setup and protocol timers, which always fire in their own location's
// shard — sort before all tagged events, with tag-0 ties at one instant
// either belonging to one location (FIFO by that location's own
// deterministic arming order) or touching disjoint per-location state.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace cesrm::sim {

class ShardedEngine {
 public:
  /// `shard_of_location[l]` maps location l to its owning shard in
  /// [0, shards). With two or more shards `lookahead` must be positive and
  /// no larger than the minimum cross-shard link delay (the harness passes
  /// the link delay); one shard runs no windows and ignores it.
  ShardedEngine(std::vector<int> shard_of_location, int shards,
                SimTime lookahead);
  /// One shard owning `locations` locations.
  explicit ShardedEngine(std::size_t locations);
  ~ShardedEngine();
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int shards() const { return shards_; }
  SimTime lookahead() const { return lookahead_; }
  std::size_t locations() const { return shard_of_location_.size(); }
  int shard_of(int location) const {
    return shard_of_location_[static_cast<std::size_t>(location)];
  }

  /// The shard's simulator. Before run_until() this is the setup surface
  /// (single-threaded); during the run each shard thread owns its own.
  Simulator& sim(int shard) { return *sims_[static_cast<std::size_t>(shard)]; }

  /// The calling shard thread's simulator / shard index. Valid only on a
  /// shard thread inside run_until(), and off those threads — setup, and
  /// a one-shard run on the caller's thread — where it resolves to shard
  /// 0's simulator with shard index 0 (setup happens before any
  /// cross-shard traffic exists).
  Simulator& current_sim() { return *sims_[current_shard_index()]; }
  int current_shard() const { return static_cast<int>(current_shard_index()); }

  /// Deterministic ordering tag for an event scheduled while processing
  /// location `from`. Call only from the shard that owns `from`.
  std::uint64_t next_tag(int from) {
    return (static_cast<std::uint64_t>(from) + 2) << kTagShift |
           ++tag_counter_[static_cast<std::size_t>(from)];
  }

  /// Schedules `cb` at `when` at location `dest`, tagged from location
  /// `from` (the location being processed). Same-shard destinations go
  /// straight into the current queue; cross-shard destinations are posted
  /// to the mailbox and drained at the window barrier — `when` must then
  /// lie at or beyond the current window's end (conservative lookahead).
  void schedule_from(int from, int dest, SimTime when,
                     EventQueue::Callback&& cb) {
    const std::uint64_t tag = next_tag(from);
    const std::size_t me = current_shard_index();
    if (shard_of(dest) == static_cast<int>(me))
      sims_[me]->schedule_at_tagged(when, tag, std::move(cb));
    else
      post(me, dest, when, tag, std::move(cb));
  }

  /// Schedules a non-cancellable event carrying `word` at `when` on FIFO
  /// lane `lane` of the calling shard's simulator, tagged from location
  /// `from` like schedule_from (see Simulator::schedule_in_lane). The
  /// destination must live on the calling shard: a cross-shard event
  /// goes through schedule_from's mailbox instead.
  void schedule_in_lane_from(int from, SimTime when, std::uint32_t lane,
                             std::uint64_t word) {
    const std::uint64_t tag = next_tag(from);
    sims_[current_shard_index()]->schedule_in_lane(lane, when, tag, word);
  }

  /// Runs all shards to `horizon` (inclusive, like Simulator::run_until)
  /// on shards() threads, then clamps every shard clock to `horizon`. One
  /// shard runs inline: Simulator::run_until on the caller's thread.
  void run_until(SimTime horizon);

  // --- aggregate diagnostics (valid after run_until) ---
  std::uint64_t events_executed() const;
  std::uint64_t events_scheduled() const;
  std::uint64_t events_cancelled() const;
  /// Largest per-shard peaks of pending events / heap entries.
  std::size_t queue_high_water() const;
  std::size_t heap_high_water() const;
  std::uint64_t windows_run() const { return windows_; }
  std::uint64_t cross_shard_posts() const { return posts_; }

 private:
  static constexpr int kTagShift = 40;

  /// The running shard thread's index; -1 off the engine's threads (and
  /// for a one-shard run, which stays on the caller's thread). One engine
  /// runs at a time per thread tree (each experiment spawns its own
  /// workers), so a plain thread_local is unambiguous.
  static inline thread_local int tls_shard_ = -1;

  struct Posted {
    SimTime when;
    std::uint64_t tag = 0;
    EventQueue::Callback cb;
  };

  /// Inline: every network hop asks for its shard several times.
  std::size_t current_shard_index() const {
    return tls_shard_ >= 0 ? static_cast<std::size_t>(tls_shard_) : 0;
  }
  /// Posts a cross-shard event from shard `me` to `dest`'s shard mailbox.
  void post(std::size_t me, int dest, SimTime when, std::uint64_t tag,
            EventQueue::Callback&& cb);
  void drain_mailboxes(int me);

  std::vector<int> shard_of_location_;
  int shards_ = 1;
  SimTime lookahead_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  std::vector<std::uint64_t> tag_counter_;  ///< per location, owner-written
  /// mail_[src * shards + dst]: written by src during its window, drained
  /// by dst after the barrier — the barrier is the only synchronization.
  std::vector<std::vector<Posted>> mail_;
  SimTime window_end_ = SimTime::zero();  ///< written by barrier completion
  bool done_ = false;                     ///< likewise
  std::uint64_t windows_ = 0;
  std::uint64_t posts_ = 0;  ///< summed from per-shard counts after the run
  std::vector<std::uint64_t> shard_posts_;
};

}  // namespace cesrm::sim
