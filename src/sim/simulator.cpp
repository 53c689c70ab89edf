#include "sim/simulator.hpp"

#include <chrono>

namespace cesrm::sim {

namespace {
double wall_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

void Simulator::enable_profiling(bool on) {
  profile_ = on;
  if (on) {
    profile_second_ = now_.ns() / SimTime::seconds(1).ns();
    profile_last_wall_ = wall_now_seconds();
  }
}

void Simulator::profile_tick() {
  // Attribute wall time to each completed whole sim-second as the clock
  // crosses its boundary.
  const std::int64_t sec = now_.ns() / SimTime::seconds(1).ns();
  while (profile_second_ < sec) {
    const double wall = wall_now_seconds();
    if (wall_per_sim_second_.size() <=
        static_cast<std::size_t>(profile_second_)) {
      wall_per_sim_second_.resize(
          static_cast<std::size_t>(profile_second_) + 1, 0.0);
    }
    wall_per_sim_second_[static_cast<std::size_t>(profile_second_)] +=
        wall - profile_last_wall_;
    profile_last_wall_ = wall;
    ++profile_second_;
  }
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_window(SimTime end) {
  stopped_ = false;
  SimTime when;
  while (!stopped_) {
    EventQueue::Callback cb;  // per event: captures die when it returns
    if (!queue_.pop_before(end, when, cb)) break;
    execute(when, cb);
  }
}

void Simulator::run_until(SimTime until) {
  run_window(until < SimTime::infinity() ? until + SimTime::nanos(1)
                                         : until);
  if (now_ < until) now_ = until;
}

}  // namespace cesrm::sim
