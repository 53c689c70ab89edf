#include "srm/recovery_window.hpp"

#include <algorithm>
#include <bit>

namespace cesrm::srm {

net::SeqNo RecoveryWindow::highest_received() const {
  for (std::size_t i = pages_.size(); i-- > 0;) {
    if (!pages_[i]) continue;
    for (std::size_t w = kWords; w-- > 0;) {
      const std::uint64_t bits = pages_[i]->received[w];
      if (bits == 0) continue;
      return static_cast<net::SeqNo>((i << kPageBits) + w * 64 + 63 -
                                     static_cast<std::size_t>(
                                         std::countl_zero(bits)));
    }
  }
  return net::kNoSeq;
}

void RecoveryWindow::clear_lost_ever() {
  for (auto& p : pages_)
    if (p) std::fill(std::begin(p->lost_ever), std::end(p->lost_ever), 0);
}

PendingReply& RecoveryWindow::schedule_reply(ReplyState& rs) {
  CESRM_DCHECK(!rs.scheduled());
  std::uint32_t slot;
  if (!free_pending_.empty()) {
    slot = free_pending_.back();
    free_pending_.pop_back();
    pending_[slot] = PendingReply{};
  } else {
    slot = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  }
  rs.pending = slot + 1;
  return pending_[slot];
}

PendingReply RecoveryWindow::unschedule_reply(ReplyState& rs) {
  CESRM_DCHECK(rs.scheduled());
  const std::uint32_t slot = rs.pending - 1;
  rs.pending = 0;
  free_pending_.push_back(slot);
  return pending_[slot];
}

WantState& RecoveryWindow::open_want(net::NodeId source, net::SeqNo seq) {
  Record& r = record(seq);
  CESRM_CHECK_MSG(r.want == 0, "loss of seq " << seq << " already open");
  std::uint32_t slot;
  if (!free_wants_.empty()) {
    slot = free_wants_.back();
    free_wants_.pop_back();
    wants_[slot] = WantState{};
  } else {
    slot = static_cast<std::uint32_t>(wants_.size());
    wants_.emplace_back();
  }
  r.want = slot + 1;
  WantState& w = wants_[slot];
  w.source = source;
  w.seq = seq;
  if (open_++ == 0) {
    low_ = seq;
    high_ = seq + 1;
  } else {
    low_ = std::min(low_, seq);
    high_ = std::max(high_, seq + 1);
  }
  return w;
}

void RecoveryWindow::close_want(net::SeqNo seq) {
  Record& r = record(seq);
  CESRM_CHECK_MSG(r.want != 0, "no open loss of seq " << seq);
  free_wants_.push_back(r.want - 1);
  r.want = 0;
  if (--open_ == 0) {
    low_ = high_ = 0;
    return;
  }
  // Some loss is still open inside [low, high), so both walks stop there.
  while (want_slot(low_) == 0) ++low_;
  while (want_slot(high_ - 1) == 0) --high_;
}

void RecoveryWindow::close_all_wants() {
  for (net::SeqNo seq = low_; seq < high_; ++seq)
    if (want_slot(seq) != 0) record(seq).want = 0;
  wants_.clear();
  free_wants_.clear();
  open_ = 0;
  low_ = high_ = 0;
}

}  // namespace cesrm::srm
