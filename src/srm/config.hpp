// config.hpp — SRM protocol parameters (§2, §4.3).
//
// Defaults are the paper's simulation settings, which in turn are the
// typical values of Floyd et al.: C1 = C2 = 2, C3 = 1.5, D1 = D2 = 1,
// D3 = 1.5, session period 1 s.
#pragma once

#include "sim/time.hpp"

namespace cesrm::srm {

struct SrmConfig {
  // --- request scheduling (§2.1) ---
  /// Deterministic request suppression weight: requests are delayed at
  /// least C1·d̂hs.
  double c1 = 2.0;
  /// Probabilistic request suppression weight: the request interval width
  /// is C2·d̂hs.
  double c2 = 2.0;
  /// Back-off abstinence weight: after (re)scheduling a round-k request,
  /// further requests heard within 2^k·C3·d̂hs do not back it off again.
  double c3 = 1.5;

  // --- reply scheduling (§2.2) ---
  /// Deterministic reply suppression weight (×d̂hh').
  double d1 = 1.0;
  /// Probabilistic reply suppression weight (×d̂hh').
  double d2 = 1.0;
  /// Reply abstinence weight: after sending/receiving a reply, requests
  /// arriving within D3·d̂hh' are discarded.
  double d3 = 1.5;

  // --- session protocol (§2, §4.3) ---
  sim::SimTime session_period = sim::SimTime::seconds(1);
  /// When true, hosts read exact tree-path distances from the network
  /// instead of estimating them via session timing echoes. The paper's
  /// setup (lossless, pre-converged session exchange) makes the two
  /// equivalent; the oracle is faster and useful in unit tests.
  bool oracle_distances = false;

  /// Enables Floyd et al.'s dynamic timer-parameter adjustment (ToN 1997
  /// §V): each host adapts its request parameters (seeded from C1, C2)
  /// from observed duplicate requests and request delays, and its reply
  /// parameters (seeded from D1, D2) likewise. Off by default — the CESRM
  /// paper simulates the fixed "typical settings".
  bool adaptive_timers = false;
};

}  // namespace cesrm::srm
