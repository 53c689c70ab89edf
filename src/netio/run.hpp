// run.hpp — the loopback integration harness for the netio backend.
//
// run_netio() stands up a complete SRM/CESRM group on one host: one
// thread per member, each owning a wall-clock Reactor, a SocketTransport
// (multicast-group + unicast socket pair on the loopback interface), and
// an unmodified protocol agent. The workload is the repo's Figure-4 shape
// — a session warm-up, then a fixed-period data transmission from the
// root with seeded losses injected by the LossShim, then a drain window
// for tail recoveries — and the outcome is the same
// harness::ExperimentResult the simulated pipeline produces, so every
// existing report (figure tables, JSON, JSONL/Chrome trace export) works
// on real-socket runs unchanged. Members, agents, session offsets, the
// source and the collection come from the shared steps of
// harness/group.hpp. LMS is refused: it needs router replier state that
// no socket backend provides.
//
// Determinism contract, weaker than the simulator's by nature: DATA-loss
// verdicts are a pure function of (shim seed, packet identity), so *which*
// packets are lost where is exactly reproducible; arrival timestamps and
// therefore timer races are wall-clock and are not. The post-run
// fault::InvariantOracle::finish() check (on by default) holds regardless:
// a run that ends with any member missing any packet throws.
//
// End-of-run verdict: the oracle's watchdog cannot run (it would need one
// simulator spanning all members), so only the post-run finish() checks
// apply — eventual delivery of every packet to every member, no stalled
// recoveries, no zombie timers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cesrm/cesrm_agent.hpp"
#include "harness/experiment.hpp"
#include "net/topology_builder.hpp"
#include "netio/shim.hpp"
#include "netio/transport.hpp"
#include "protocol.hpp"

namespace cesrm::netio {

struct NetioRunConfig {
  Protocol protocol = Protocol::kCesrm;
  /// Protocol parameters; `cesrm.srm` also configures plain SRM runs.
  /// Note the session period doubles as the tail-loss detection bound —
  /// wall-clock runs usually want it well below the simulator's 1 s.
  ::cesrm::cesrm::CesrmConfig cesrm;
  /// Explicit topology in the "0(1(3 4) 2)" format; empty = a random tree
  /// of `shape` seeded by `seed`.
  std::string tree_text;
  net::TreeShape shape{.receivers = 8, .depth = 3, .max_branching = 4};
  std::uint64_t seed = 1;
  /// Group + port every member shares; unicast ports are ephemeral.
  std::uint32_t mcast_addr = kDefaultMcastGroup;
  std::uint16_t mcast_port = 47500;
  /// Loss/delay model applied at the sockets (seed defaults from `seed`
  /// when left at its default).
  ShimConfig shim;
  /// Figure-4 workload: `packets` DATA packets at `period` from the root.
  net::SeqNo packets = 50;
  sim::SimTime period = sim::SimTime::millis(20);
  /// Session-only warm-up before the first data packet (all wall-clock).
  sim::SimTime warmup = sim::SimTime::millis(750);
  /// Window after the last data packet for tail recoveries to finish.
  sim::SimTime drain = sim::SimTime::seconds(3);
  /// Capture the merged protocol-event trace into the result (JSONL /
  /// Chrome-trace exportable, exactly like a simulated run's).
  bool observe_trace = false;
  /// Run fault::InvariantOracle::finish() after the threads join; any
  /// unrecovered loss, stalled recovery, or zombie timer throws.
  bool check_invariants = true;
};

struct NetioRunResult {
  /// Same shape the simulated pipeline emits; see SocketTransport::
  /// crossings() for the datagrams-vs-link-crossings unit difference.
  harness::ExperimentResult experiment;
  /// Per-member datagram accounting, members ordered source first.
  std::vector<SocketStats> sockets;
  double wall_seconds = 0.0;

  std::uint64_t total_shim_dropped() const {
    std::uint64_t n = 0;
    for (const auto& s : sockets) n += s.shim_dropped;
    return n;
  }
  std::uint64_t total_datagrams_sent() const {
    std::uint64_t n = 0;
    for (const auto& s : sockets) n += s.datagrams_sent;
    return n;
  }
};

/// Runs one loopback transmission. Throws util::CheckError on socket
/// setup failures (port in use, multicast join refused, non-Linux build)
/// — before any thread starts — and on invariant violations after.
NetioRunResult run_netio(const NetioRunConfig& config);

}  // namespace cesrm::netio
