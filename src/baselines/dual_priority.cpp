#include "baselines/dual_priority.hpp"

namespace rtec {

DualPrioritySender::DualPrioritySender(Simulator& sim,
                                       CanController& controller)
    : sim_{sim}, controller_{controller} {}

void DualPrioritySender::queue(NodeId node, Etag etag,
                               std::uint8_t static_priority, int dlc,
                               TimePoint deadline, Duration promotion_lead) {
  const std::uint64_t uid = next_uid_++;
  Pending p;
  p.frame.id = encode_can_id(
      {static_cast<Priority>(kLowMin + static_priority), node, etag});
  p.frame.dlc = static_cast<std::uint8_t>(dlc);
  p.frame.data.fill(0xAA);  // match StaticPrioritySender's frame length
  p.high_priority = static_cast<Priority>(kHighMin + static_priority);
  p.deadline = deadline;
  p.uid = uid;
  pending_.emplace(uid, p);

  const TimePoint promote_at = deadline - promotion_lead;
  const NodeId node_copy = node;
  const Etag etag_copy = etag;
  sim_.schedule_at(promote_at < sim_.now() ? sim_.now() : promote_at,
                   [this, uid, node_copy, etag_copy] {
                     const std::uint32_t high_id = [&] {
                       const auto it = pending_.find(uid);
                       const Priority hp = it != pending_.end()
                                               ? it->second.high_priority
                                               : Priority{0};
                       return encode_can_id({hp, node_copy, etag_copy});
                     }();
                     if (in_flight_ && in_flight_uid_ == uid && mailbox_) {
                       if (controller_.rewrite_id(*mailbox_, high_id))
                         ++outcome_.promotions;
                       return;
                     }
                     const auto it = pending_.find(uid);
                     if (it == pending_.end()) return;  // already sent
                     it->second.frame.id = high_id;
                     ++outcome_.promotions;
                   });
  pump();
}

void DualPrioritySender::pump() {
  if (in_flight_ || pending_.empty()) return;
  // Stage the most dominant current identifier (what a multi-mailbox
  // controller would offer to arbitration).
  auto best = pending_.begin();
  for (auto it = pending_.begin(); it != pending_.end(); ++it)
    if (it->second.frame.id < best->second.frame.id) best = it;

  const Pending p = best->second;
  const auto r = controller_.submit(
      p.frame, TxMode::kAutoRetransmit,
      [this](CanController::MailboxId, const CanFrame&, bool success,
             TimePoint end) {
        in_flight_ = false;
        mailbox_.reset();
        if (success) {
          ++outcome_.sent;
          if (end <= in_flight_deadline_) ++outcome_.sent_by_deadline;
        }
        pump();
      });
  if (!r) return;
  pending_.erase(best);
  in_flight_ = true;
  in_flight_uid_ = p.uid;
  mailbox_ = *r;
  in_flight_deadline_ = p.deadline;
}

}  // namespace rtec
