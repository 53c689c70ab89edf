#include "sim/simulator.hpp"

namespace cesrm::sim {

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
