// recovery_window.hpp — one member's per-stream recovery state, by seq.
//
// Sequence numbers of a stream are dense from 0, so the per-packet state of
// SRM and CESRM (§2–3) lives in a window indexed by seq, the way a receiver
// keeps its out-of-order window, instead of in per-packet hash maps:
//
//  * a 16-byte record per seq, in fixed-size pages allocated on first touch:
//    the reply abstinence time plus the pool slots of the packet's open loss
//    (WantState) and scheduled reply (PendingReply), zero when absent;
//  * two bit planes per page: "received" and CESRM's "lost ever" mark;
//  * WantStates and PendingReplies in pools sized by the number of *open*
//    recoveries and *scheduled* replies, not by the stream's length — a
//    reply is scheduled on about one reply-state touch in seven, and is
//    pending only for its suppression delay.
//
// The window grows only through page(), shared by every plane. Open losses
// are bracketed by a low-water mark (the lowest seq that may hold one) and a
// high mark, so the scans the fault oracle runs on every watchdog tick
// (stalled_losses) and the crash/finalize paths cost the open range, not
// the whole stream. Records and WantStates never move once created (pages
// are allocated individually, the want pool is a deque), so a reference
// stays valid while the window grows; PendingReplies are copied out.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "net/ids.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace cesrm::srm {

/// Request-side state for a packet this member lost.
struct WantState {
  net::NodeId source = net::kInvalidNode;
  net::SeqNo seq = net::kNoSeq;
  int backoff = 0;  ///< k: times a request has been scheduled
  sim::EventId request_event = sim::kInvalidEventId;
  sim::SimTime abstinence_until = sim::SimTime::zero();
  sim::SimTime detect_time;
  // --- adaptive-timer bookkeeping (Floyd et al. §V) ---
  int requests_seen = 0;  ///< own + foreign requests during this episode
  sim::SimTime first_own_request = sim::SimTime::infinity();
  // --- CESRM expedited request / LMS retry ---
  /// The last expedited (CESRM) or retry (LMS) event armed for this loss;
  /// kInvalidEventId until the first is armed. Kept after it fires, so
  /// "armed once, no longer pending" identifies a sent expedited request.
  sim::EventId exp_event = sim::kInvalidEventId;
  net::NodeId exp_replier = net::kInvalidNode;
  net::RecoveryAnnotation exp_ann;
  int escalation = 0;  ///< LMS: router levels climbed so far
};

/// Reply-side state for a packet this member holds.
struct ReplyState {
  sim::SimTime abstinence_until = sim::SimTime::zero();
  /// 1 + the PendingReply pool slot while a reply is scheduled, else 0.
  std::uint32_t pending = 0;

  bool scheduled() const { return pending != 0; }
};

/// A reply this member has scheduled and not yet sent or suppressed.
struct PendingReply {
  sim::EventId event = sim::kInvalidEventId;
  net::NodeId requestor = net::kInvalidNode;
  double requestor_dist_to_src = 0.0;
  sim::SimTime request_arrival;  ///< adaptive: when the reply was scheduled
};

class RecoveryWindow {
 public:
  static constexpr unsigned kPageBits = 9;
  static constexpr std::size_t kPageSize = std::size_t{1} << kPageBits;

  // --- reception and CESRM's lost-ever mark ---
  bool received(net::SeqNo seq) const {
    const Page* p = find_page(seq);
    return p != nullptr && test(p->received, seq);
  }
  /// Marks `seq` received; returns false when it already was.
  bool set_received(net::SeqNo seq) { return set(page(seq).received, seq); }
  /// Highest received seq; kNoSeq when none.
  net::SeqNo highest_received() const;

  bool lost_ever(net::SeqNo seq) const {
    const Page* p = find_page(seq);
    return p != nullptr && test(p->lost_ever, seq);
  }
  void mark_lost_ever(net::SeqNo seq) { set(page(seq).lost_ever, seq); }
  void clear_lost_ever();

  // --- reply side ---
  ReplyState& reply(net::SeqNo seq) { return record(seq).reply; }
  /// Schedules a reply for `rs`: returns its fresh pool entry. The
  /// reference is valid only until the next schedule_reply().
  PendingReply& schedule_reply(ReplyState& rs);
  /// Unschedules the reply of `rs` and returns it.
  PendingReply unschedule_reply(ReplyState& rs);
  std::size_t scheduled_replies() const {
    return pending_.size() - free_pending_.size();
  }
  /// Resets every reply record (abstinence and schedule); calls
  /// `on_scheduled(const PendingReply&)` for each reply still scheduled.
  template <class F>
  void clear_replies(F&& on_scheduled);

  // --- request side ---
  /// The open loss of `seq`, or null.
  WantState* want(net::SeqNo seq) {
    const std::uint32_t slot = want_slot(seq);
    return slot == 0 ? nullptr : &wants_[slot - 1];
  }
  const WantState* want(net::SeqNo seq) const {
    const std::uint32_t slot = want_slot(seq);
    return slot == 0 ? nullptr : &wants_[slot - 1];
  }
  /// Opens a loss for `seq` (none may be open) with `source` and `seq` set.
  WantState& open_want(net::NodeId source, net::SeqNo seq);
  /// Closes the open loss of `seq`. The caller cancels its events first.
  void close_want(net::SeqNo seq);
  /// Closes every open loss. The caller cancels their events first.
  void close_all_wants();
  std::size_t open_wants() const { return open_; }
  /// Calls `f(const WantState&)` for every open loss in seq order. `f`
  /// must not open or close losses.
  template <class F>
  void for_each_want(F&& f) const;
  /// [low, high): every open loss lies in this range (empty when none).
  net::SeqNo low_water() const { return low_; }
  net::SeqNo high_water() const { return high_; }

 private:
  struct Record {
    ReplyState reply;
    std::uint32_t want = 0;  ///< 1 + WantState pool slot, 0 when none open
  };
  static constexpr std::size_t kWords = kPageSize / 64;
  struct Page {
    Record rec[kPageSize];
    std::uint64_t received[kWords] = {};
    std::uint64_t lost_ever[kWords] = {};
  };

  static std::size_t offset(net::SeqNo seq) {
    return static_cast<std::size_t>(seq) & (kPageSize - 1);
  }
  static bool test(const std::uint64_t* bits, net::SeqNo seq) {
    const std::size_t i = offset(seq);
    return (bits[i / 64] >> (i % 64)) & 1u;
  }
  static bool set(std::uint64_t* bits, net::SeqNo seq) {
    const std::size_t i = offset(seq);
    const std::uint64_t mask = std::uint64_t{1} << (i % 64);
    if (bits[i / 64] & mask) return false;
    bits[i / 64] |= mask;
    return true;
  }

  const Page* find_page(net::SeqNo seq) const {
    if (seq < 0) return nullptr;
    const auto i = static_cast<std::size_t>(seq) >> kPageBits;
    return i < pages_.size() ? pages_[i].get() : nullptr;
  }
  /// The page holding `seq`, allocated on first touch: the one place the
  /// window grows.
  Page& page(net::SeqNo seq) {
    CESRM_CHECK_MSG(seq >= 0, "recovery window seq " << seq);
    const auto i = static_cast<std::size_t>(seq) >> kPageBits;
    if (i >= pages_.size()) pages_.resize(i + 1);
    if (!pages_[i]) pages_[i] = std::make_unique<Page>();
    return *pages_[i];
  }
  Record& record(net::SeqNo seq) { return page(seq).rec[offset(seq)]; }
  std::uint32_t want_slot(net::SeqNo seq) const {
    const Page* p = find_page(seq);
    return p == nullptr ? 0 : p->rec[offset(seq)].want;
  }

  std::vector<std::unique_ptr<Page>> pages_;
  std::deque<WantState> wants_;  ///< deque: slots never move
  std::vector<std::uint32_t> free_wants_;
  std::vector<PendingReply> pending_;
  std::vector<std::uint32_t> free_pending_;
  std::size_t open_ = 0;
  net::SeqNo low_ = 0;
  net::SeqNo high_ = 0;
};

template <class F>
void RecoveryWindow::clear_replies(F&& on_scheduled) {
  for (auto& p : pages_) {
    if (!p) continue;
    for (Record& r : p->rec) {
      if (r.reply.scheduled()) on_scheduled(pending_[r.reply.pending - 1]);
      r.reply = ReplyState{};
    }
  }
  pending_.clear();
  free_pending_.clear();
}

template <class F>
void RecoveryWindow::for_each_want(F&& f) const {
  for (net::SeqNo seq = low_; seq < high_; ++seq)
    if (const WantState* w = want(seq)) f(*w);
}

}  // namespace cesrm::srm
