// lms_agent.hpp — a Light-weight Multicast Services member (baseline).
//
// LMS [13] is the router-assisted alternative the CESRM paper positions
// itself against: instead of SRM's suppression or CESRM's caching, every
// loss is reported straight to the *designated replier* of the smallest
// enclosing subtree (router state, see LmsDirectory); the reply is unicast
// to that turning-point router and subcast downstream. Recovery is fast
// and perfectly localized — as long as the router state is fresh.
//
// LmsAgent reuses the SRM substrate for everything except recovery
// scheduling: data handling, loss detection (gaps + session messages),
// distance estimation, and statistics come from SrmAgent; the SRM request
// timer is disarmed the moment a loss is detected and an LMS exchange
// starts instead:
//
//   * request: unicast to the designated replier of the lowest ancestor
//     router whose replier is not the requestor itself;
//   * retry: if the reply does not arrive within an RTT-scaled timeout the
//     request escalates one router level upward (doubling the timeout) —
//     LMS's hierarchy walk; if the designated replier is stale (crashed),
//     requests black-hole until the directory repairs, which is exactly
//     the failure mode the churn comparison measures;
//   * reply: a replier holding the packet unicasts it to the turning-point
//     router, which subcasts it to the subtree (exp-reply packets, so the
//     delivery plumbing is shared with router-assisted CESRM).
#pragma once

#include "lms/directory.hpp"
#include "srm/srm_agent.hpp"

namespace cesrm::lms {

struct LmsConfig {
  srm::SrmConfig srm;  ///< substrate configuration (sessions, distances)
  /// Base request-retry timeout in units of the requestor→replier RTT.
  double retry_rtt_multiple = 2.0;
  /// Floor for the retry timeout (covers subcast fan-out and jitter).
  sim::SimTime retry_floor = sim::SimTime::millis(50);
};

class LmsAgent : public srm::SrmAgent {
 public:
  /// All members of one session share the `directory` (the routers'
  /// replier state).
  LmsAgent(sim::Simulator& sim, net::Transport& network, net::NodeId self,
           net::NodeId primary_source, const LmsConfig& config,
           LmsDirectory& directory, util::Rng rng);

  /// Total LMS request (re)transmissions (== exp_requests_sent stat).
  std::uint64_t lms_requests() const { return stats().exp_requests_sent; }

 protected:
  void on_loss_detected(WantState& want) override;
  void on_exp_request(const net::Packet& pkt) override;

 private:
  /// Sends `want`'s request at its escalation level and arms the retry.
  void send_lms_request(WantState& want);
  void retry_timer_fired(net::NodeId source, net::SeqNo seq);

  LmsConfig lms_config_;
  LmsDirectory& directory_;
};

}  // namespace cesrm::lms
