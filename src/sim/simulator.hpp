// simulator.hpp — single-threaded discrete-event simulation driver.
//
// The Simulator owns the virtual clock and the event queue. All model
// components (links, protocol agents, traffic sources) schedule closures;
// the driver pops them in (time, FIFO) order and advances the clock. This
// is the same execution model as ns-2, which the paper used, minus the
// Tcl layer.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace cesrm::obs {
class TraceRecorder;
}  // namespace cesrm::obs

namespace cesrm::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time. Monotonically non-decreasing.
  SimTime now() const { return now_; }

  /// Schedules `cb` at `now() + delay`; negative delays are clamped to now
  /// (a zero-delay event still runs after the current event completes).
  EventId schedule_in(SimTime delay, EventQueue::Callback&& cb) {
    if (delay.is_negative()) delay = SimTime::zero();
    return queue_.schedule(now_ + delay, std::move(cb));
  }

  /// Schedules `cb` at absolute time `when`; `when` must be >= now().
  EventId schedule_at(SimTime when, EventQueue::Callback&& cb) {
    check_not_past(when);
    return queue_.schedule(when, std::move(cb));
  }

  /// Schedules `cb` at `when` with an explicit ordering tag (see
  /// EventQueue::schedule_tagged). The sharded engine routes cross-shard
  /// arrivals through this so same-instant ties order identically for any
  /// shard count; plain schedule_at/in use tag 0 (historical FIFO).
  EventId schedule_at_tagged(SimTime when, std::uint64_t tag,
                             EventQueue::Callback&& cb) {
    check_not_past(when);
    return queue_.schedule_tagged(when, tag, std::move(cb));
  }

  /// Reserves a block of `count` lanes for `client`; returns its first
  /// lane id (see EventQueue::add_lanes).
  std::uint32_t add_lanes(std::uint32_t count, const LaneClient& client) {
    return queue_.add_lanes(count, client);
  }

  /// Schedules a non-cancellable event carrying `word` at `when` with
  /// ordering tag `tag` on FIFO lane `lane` (see
  /// EventQueue::schedule_in_lane). It fires exactly when
  /// schedule_at_tagged would have fired it; the network puts each
  /// directed link's arrivals on one lane.
  void schedule_in_lane(std::uint32_t lane, SimTime when, std::uint64_t tag,
                        std::uint64_t word) {
    check_not_past(when);
    queue_.schedule_in_lane(lane, when, tag, word);
  }

  /// Cancels a pending event; returns true if it had not yet fired.
  bool cancel(EventId id) { return queue_.cancel(id); }
  bool is_pending(EventId id) const { return queue_.is_pending(id); }

  /// Runs a single event. Returns false when the queue is empty.
  bool step() {
    SimTime when;
    EventQueue::Callback cb;
    EventId id;
    if (!queue_.pop(when, cb, id)) return false;
    execute(when, cb);
    return true;
  }

  /// Runs until the queue empties (or stop() is called).
  void run();

  /// Runs events with time <= `until`, then sets the clock to `until`
  /// (if the simulation did not already pass it). Pending later events stay
  /// queued.
  void run_until(SimTime until);

  /// Runs events with time strictly < `end`, leaving the clock at the last
  /// executed event; later events stay queued. The sharded engine's
  /// lookahead-window body (run_until is inclusive and clamps the clock,
  /// which a mid-simulation window must not do).
  void run_window(SimTime end);

  /// Earliest pending event's time; infinity() when the queue is empty.
  /// Non-const: lazily discards cancelled heap tops.
  SimTime next_event_time() { return queue_.next_time(); }

  /// Clamps the clock forward to `t` if it is behind (the sharded engine's
  /// end-of-run epilogue, mirroring run_until's final clamp).
  void advance_clock(SimTime t) {
    if (now_ < t) now_ = t;
  }

  /// Makes run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  /// Number of events executed so far.
  std::uint64_t events_executed() const { return executed_; }
  /// Number of events currently pending.
  std::size_t pending_events() const { return queue_.size(); }
  /// Lifetime queue diagnostics (see EventQueue).
  std::uint64_t events_scheduled() const { return queue_.scheduled_total(); }
  std::uint64_t events_cancelled() const { return queue_.cancelled_total(); }
  std::size_t queue_high_water() const { return queue_.high_water(); }
  std::size_t heap_high_water() const { return queue_.heap_high_water(); }

  /// Observability hook. The recorder is owned by the harness; sim only
  /// forward-declares it so the event loop has no obs dependency. Null
  /// (the default) means tracing is disabled and hook sites reduce to one
  /// pointer test.
  void set_recorder(obs::TraceRecorder* rec) { recorder_ = rec; }
  obs::TraceRecorder* recorder() const { return recorder_; }

 private:
  void check_not_past(SimTime when) const {
    CESRM_CHECK_MSG(when >= now_, "scheduling into the past: when="
                                      << when << " now=" << now_);
  }

  /// Runs one popped event at `when`.
  void execute(SimTime when, EventQueue::Callback& cb) {
    CESRM_CHECK(when >= now_);
    now_ = when;
    ++executed_;
    cb();
  }

  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  obs::TraceRecorder* recorder_ = nullptr;
};

}  // namespace cesrm::sim
