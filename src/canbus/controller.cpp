#include "canbus/controller.hpp"

#include <cassert>

#include "canbus/bus.hpp"
#include "sim/simulator.hpp"

namespace rtec {

CanController::CanController(Simulator& sim, NodeId node, Config cfg)
    : sim_{sim}, node_{node}, cfg_{cfg} {
  assert(node <= kMaxNodeId);
}

void CanController::add_acceptance_filter(AcceptanceFilter f) {
  filters_.push_back(f);
  if (bus_ != nullptr) bus_->notify_filters_changed();
}

void CanController::clear_acceptance_filters() {
  filters_.clear();
  if (bus_ != nullptr) bus_->notify_filters_changed();
}

Expected<CanController::MailboxId, TxError> CanController::submit(
    const CanFrame& frame, TxMode mode, TxResultHandler on_result) {
  if (!online_) return Unexpected{TxError::kOffline};
  if (bus_off_) return Unexpected{TxError::kBusOff};
  if (frame.dlc > 8 ||
      (frame.extended ? frame.id > kMaxExtendedId : frame.id > kMaxBaseId))
    return Unexpected{TxError::kInvalidFrame};

  for (MailboxId mb = 0; mb < mailboxes_.size(); ++mb) {
    Mailbox& box = mailboxes_[mb];
    if (box.pending) continue;
    box.pending = true;
    box.transmitting = false;
    box.frame = frame;
    box.mode = mode;
    box.attempts = 0;
    box.on_result = std::move(on_result);
    invalidate_arb_cache();
    if (bus_ != nullptr) bus_->notify_tx_request(*this);
    return mb;
  }
  return Unexpected{TxError::kNoFreeMailbox};
}

bool CanController::abort(MailboxId mb) {
  assert(mb < mailboxes_.size());
  Mailbox& box = mailboxes_[mb];
  if (!box.pending || box.transmitting) return false;
  box.pending = false;
  invalidate_arb_cache();
  return true;
}

bool CanController::rewrite_id(MailboxId mb, std::uint32_t new_id) {
  assert(mb < mailboxes_.size());
  Mailbox& box = mailboxes_[mb];
  if (!box.pending || box.transmitting) return false;
  assert(box.frame.extended ? new_id <= kMaxExtendedId : new_id <= kMaxBaseId);
  box.frame.id = new_id;
  invalidate_arb_cache();
  // May change the arbitration order.
  if (bus_ != nullptr) bus_->notify_tx_request(*this);
  return true;
}

bool CanController::mailbox_pending(MailboxId mb) const {
  assert(mb < mailboxes_.size());
  return mailboxes_[mb].pending;
}

bool CanController::has_free_mailbox() const {
  for (const Mailbox& box : mailboxes_)
    if (!box.pending) return true;
  return false;
}

std::size_t CanController::pending_count() const {
  std::size_t n = 0;
  for (const Mailbox& box : mailboxes_)
    if (box.pending) ++n;
  return n;
}

void CanController::set_online(bool online) {
  if (online_ == online) return;
  online_ = online;
  if (!online) {
    // Crash: lose all pending traffic. A frame currently on the wire is
    // finished by the bus (the transceiver drives it to completion in this
    // model; a mid-frame crash would surface as a fault-model corruption).
    for (Mailbox& box : mailboxes_) {
      if (!box.transmitting) {
        box.pending = false;
        box.on_result = nullptr;
      }
    }
    invalidate_arb_cache();
  } else {
    tec_ = 0;
    rec_ = 0;
    bus_off_ = false;
    if (bus_ != nullptr) bus_->notify_tx_request(*this);
  }
}

void CanController::reset_errors() {
  tec_ = 0;
  rec_ = 0;
  bus_off_ = false;
  if (bus_ != nullptr) bus_->notify_tx_request(*this);
}

std::optional<CanController::MailboxId> CanController::arbitration_candidate()
    const {
  if (!online_ || bus_off_) return std::nullopt;
  if (!arb_cache_valid_) {
    std::optional<MailboxId> best;
    for (MailboxId mb = 0; mb < mailboxes_.size(); ++mb) {
      const Mailbox& box = mailboxes_[mb];
      if (!box.pending) continue;
      if (!best || box.frame.id < mailboxes_[*best].frame.id) best = mb;
    }
    arb_cache_ = best;
    arb_cache_valid_ = true;
  }
  return arb_cache_;
}

const CanFrame& CanController::mailbox_frame(MailboxId mb) const {
  assert(mb < mailboxes_.size() && mailboxes_[mb].pending);
  return mailboxes_[mb].frame;
}

int CanController::mailbox_attempts(MailboxId mb) const {
  assert(mb < mailboxes_.size());
  return mailboxes_[mb].attempts;
}

void CanController::on_tx_started(MailboxId mb) {
  assert(mb < mailboxes_.size());
  Mailbox& box = mailboxes_[mb];
  assert(box.pending && !box.transmitting);
  box.transmitting = true;
  ++box.attempts;
}

void CanController::on_tx_completed(MailboxId mb, bool success, TimePoint now) {
  assert(mb < mailboxes_.size());
  Mailbox& box = mailboxes_[mb];
  assert(box.pending && box.transmitting);
  box.transmitting = false;

  if (success) {
    tec_ = tec_ > 0 ? tec_ - 1 : 0;
    release_mailbox(mb, true, now);
    return;
  }

  tec_ += 8;
  if (tec_ >= kBusOffThreshold) {
    enter_bus_off(now);
    return;
  }
  if (box.mode == TxMode::kSingleShot) {
    release_mailbox(mb, false, now);
  }
  // kAutoRetransmit: stays pending; the bus will re-arbitrate it.
}

void CanController::deliver(const CanFrame& frame, TimePoint now) {
  if (!online_ || bus_off_) return;
  assert(accepts(frame.id));
  for (const RxHandler& listener : rx_listeners_) listener(frame, now);
}

void CanController::heal_rec() {
  if (online_ && !bus_off_ && rec_ > 0) --rec_;
}

void CanController::on_rx_error() {
  if (!online_ || bus_off_) return;
  ++rec_;
}

bool CanController::accepts(std::uint32_t id) const {
  if (filters_.empty()) return true;
  for (const AcceptanceFilter& f : filters_)
    if ((id & f.mask) == (f.match & f.mask)) return true;
  return false;
}

void CanController::release_mailbox(MailboxId mb, bool success, TimePoint now) {
  Mailbox& box = mailboxes_[mb];
  const CanFrame frame = box.frame;
  // Move the handler out before invoking: the callback may resubmit into
  // this same mailbox.
  TxResultHandler handler = std::move(box.on_result);
  box.on_result = nullptr;
  box.pending = false;
  invalidate_arb_cache();
  if (handler) handler(mb, frame, success, now);
}

void CanController::enter_bus_off(TimePoint now) {
  bus_off_ = true;
  if (cfg_.auto_recovery_delay > Duration::zero()) {
    sim_.schedule_after(cfg_.auto_recovery_delay, [this] {
      if (bus_off_) reset_errors();
    });
  }
  // All pending traffic is lost; owners are informed so the middleware can
  // raise exceptions on the affected channels.
  for (MailboxId mb = 0; mb < mailboxes_.size(); ++mb) {
    Mailbox& box = mailboxes_[mb];
    if (box.pending) {
      box.transmitting = false;
      release_mailbox(mb, false, now);
    }
  }
}

}  // namespace rtec
