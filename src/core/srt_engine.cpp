#include "core/srt_engine.hpp"

#include <algorithm>
#include <cassert>

namespace rtec {

SrtEngine::SrtEngine(const NodeContext& ctx,
                     DeadlinePriorityMap::Config map_cfg)
    : ctx_{ctx}, map_{map_cfg} {
  // The middleware rigorously enforces P_HRT < P_SRT < P_NRT (§3.3).
  assert(map_cfg.p_min >= kSrtPriorityMin && map_cfg.p_max <= kSrtPriorityMax);
}

Expected<void, ChannelError> SrtEngine::announce(Subject subject, Etag etag,
                                                 const AttributeList& attrs,
                                                 ExceptionHandler on_exception) {
  if (publications_.contains(etag))
    return Unexpected{ChannelError::kAlreadyAnnounced};
  Publication pub{subject, etag, std::move(on_exception)};
  if (const auto d = attrs.get<attr::Deadline>()) {
    if (d->relative <= Duration::zero())
      return Unexpected{ChannelError::kInvalidAttribute};
    pub.default_deadline = d->relative;
  }
  if (const auto x = attrs.get<attr::Expiration>()) {
    if (x->relative < pub.default_deadline)
      return Unexpected{ChannelError::kInvalidAttribute};
    pub.default_expiration = x->relative;
  } else {
    pub.default_expiration = pub.default_deadline * 2;
  }
  publications_.emplace(etag, std::move(pub));
  return {};
}

Expected<void, ChannelError> SrtEngine::cancel_publication(Etag etag) {
  const auto it = publications_.find(etag);
  if (it == publications_.end())
    return Unexpected{ChannelError::kNotAnnounced};
  publications_.erase(it);
  // Already-queued messages of this channel drain normally (they were
  // accepted while the publication existed).
  return {};
}

Expected<void, ChannelError> SrtEngine::publish(Etag etag, Event event) {
  const auto it = publications_.find(etag);
  if (it == publications_.end())
    return Unexpected{ChannelError::kNotAnnounced};
  const Publication& pub = it->second;
  if (event.size() > 8) return Unexpected{ChannelError::kPayloadTooLarge};

  const TimePoint now_local = ctx_.clock.now();
  Message msg;
  msg.uid = next_uid_++;
  msg.etag = etag;
  msg.enqueued = now_local;
  msg.deadline = event.attributes.deadline != TimePoint::max()
                     ? event.attributes.deadline
                     : now_local + pub.default_deadline;
  msg.expiration = event.attributes.expiration != TimePoint::max()
                       ? event.attributes.expiration
                       : now_local + pub.default_expiration;
  if (msg.expiration < msg.deadline)
    return Unexpected{ChannelError::kInvalidAttribute};

  msg.frame.id = encode_can_id(
      {map_.priority_for(now_local, msg.deadline), ctx_.node, etag});
  msg.frame.extended = true;
  msg.frame.dlc = static_cast<std::uint8_t>(event.size());
  std::copy(event.content.begin(), event.content.end(), msg.frame.data.begin());

  ++counters_.published;
  const std::uint64_t uid = msg.uid;
  const TimePoint deadline = msg.deadline;
  const TimePoint expiration = msg.expiration;

  Record& rec = records_[uid];
  rec.etag = etag;
  rec.queued = queue_.push(deadline, std::move(msg));
  rec.deadline = ctx_.clock.schedule_at_local(
      deadline, [this, uid] { on_deadline(uid); });
  rec.expiration = ctx_.clock.schedule_at_local(
      expiration, [this, uid] { on_expiration(uid); });

  pump();
  return {};
}

void SrtEngine::pump() {
  // Preemption: if a queued message now has an earlier deadline than the
  // one staged in the mailbox, swap them (possible only while the staged
  // frame is not on the wire — transmission is non-preemptable).
  if (in_flight_ && !queue_.empty() &&
      queue_.earliest_deadline() < in_flight_->msg.deadline) {
    if (ctx_.controller.abort(in_flight_->mailbox)) {
      ++counters_.preemptions;
      ctx_.sim.cancel(promotion_timer_);
      Message back = std::move(in_flight_->msg);
      in_flight_.reset();
      Record& rec = records_.at(back.uid);
      rec.queued = queue_.push(back.deadline, std::move(back));
    }
  }

  if (in_flight_ || queue_.empty()) return;

  std::optional<Message> next = queue_.pop();
  assert(next);
  start_transmission(std::move(*next));
}

void SrtEngine::start_transmission(Message msg) {
  const TimePoint now_local = ctx_.clock.now();
  const Priority prio = map_.priority_for(now_local, msg.deadline);
  msg.frame.id = encode_can_id({prio, ctx_.node, msg.etag});

  const std::uint64_t uid = msg.uid;
  const auto result = ctx_.controller.submit(
      msg.frame, TxMode::kAutoRetransmit,
      [this, uid](CanController::MailboxId, const CanFrame&, bool success,
                  TimePoint) { on_tx_result(uid, success); });
  if (!result) {
    // Controller unavailable (bus-off / mailboxes exhausted): drop the
    // message with its timers and report; the application reacts via its
    // exception handler.
    const auto rec = records_.find(uid);
    assert(rec != records_.end());
    ctx_.sim.cancel(rec->second.deadline);
    ctx_.sim.cancel(rec->second.expiration);
    records_.erase(rec);
    raise_on(msg.etag, ChannelError::kBusOff);
    pump();
    return;
  }
  in_flight_ = InFlight{std::move(msg), *result, prio};
  arm_promotion();
}

void SrtEngine::arm_promotion() {
  assert(in_flight_);
  ctx_.sim.cancel(promotion_timer_);
  const TimePoint due =
      map_.next_promotion(ctx_.clock.now(), in_flight_->msg.deadline);
  if (due == TimePoint::max()) return;  // already at the most urgent band
  promotion_timer_ =
      ctx_.clock.schedule_at_local(due, [this] { on_promotion_due(); });
}

void SrtEngine::on_promotion_due() {
  if (!in_flight_) return;
  const TimePoint now_local = ctx_.clock.now();
  const Priority target = map_.priority_for(now_local, in_flight_->msg.deadline);
  if (target < in_flight_->current_priority) {
    const std::uint32_t new_id =
        encode_can_id({target, ctx_.node, in_flight_->msg.etag});
    if (ctx_.controller.rewrite_id(in_flight_->mailbox, new_id)) {
      in_flight_->current_priority = target;
      in_flight_->msg.frame.id = new_id;
      ++counters_.promotions;
    } else {
      // Frame currently on the wire; if the transmission fails the retry
      // happens at the old band until the next boundary.
      ++counters_.promotion_blocked;
    }
  }
  arm_promotion();
}

void SrtEngine::on_tx_result(std::uint64_t uid, bool success) {
  if (!in_flight_ || in_flight_->msg.uid != uid) {
    // Result for a message that was aborted (expired) between the wire and
    // this callback; nothing to do.
    pump();
    return;
  }
  const Message msg = std::move(in_flight_->msg);
  in_flight_.reset();
  ctx_.sim.cancel(promotion_timer_);

  const TimePoint now_local = ctx_.clock.now();
  if (success) {
    ++counters_.sent;
    if (now_local <= msg.deadline) ++counters_.sent_by_deadline;
  } else {
    raise_on(msg.etag, ChannelError::kBusOff);
  }
  const auto rec = records_.find(uid);
  assert(rec != records_.end());
  ctx_.sim.cancel(rec->second.deadline);
  ctx_.sim.cancel(rec->second.expiration);
  records_.erase(rec);
  pump();
}

void SrtEngine::on_deadline(std::uint64_t uid) {
  // Still queued or in flight at the deadline → awareness notification;
  // the message keeps competing until its expiration (§2.2.2).
  const auto rec = records_.find(uid);
  if (rec == records_.end()) return;
  ++counters_.deadline_missed;
  raise_on(rec->second.etag, ChannelError::kDeadlineMissed);
}

void SrtEngine::on_expiration(std::uint64_t uid) {
  // Validity gone: remove from the local send queue entirely (§2.2.2).
  const auto rec = records_.find(uid);
  if (rec == records_.end()) return;
  const bool flying = in_flight_ && in_flight_->msg.uid == uid;
  if (flying) {
    // Try to pull it out of the mailbox; if it is on the wire it will
    // complete anyway (non-preemptable).
    if (!ctx_.controller.abort(in_flight_->mailbox)) return;
    in_flight_.reset();
    ctx_.sim.cancel(promotion_timer_);
  } else {
    [[maybe_unused]] const auto msg = queue_.remove(rec->second.queued);
    assert(msg);
  }
  const Etag etag = rec->second.etag;
  records_.erase(rec);
  ++counters_.expired;
  raise_on(etag, ChannelError::kExpired);
  if (flying) pump();
}

void SrtEngine::raise_on(Etag etag, ChannelError e) {
  const auto it = publications_.find(etag);
  if (it != publications_.end()) it->second.raise(e, ctx_.clock.now());
}

Expected<SrtEngine::Subscription*, ChannelError> SrtEngine::subscribe(
    Subject subject, Etag etag, const AttributeList& attrs,
    NotificationHandler notify, ExceptionHandler on_exception) {
  subscriptions_.push_back(std::make_unique<Subscription>(
      subject, etag, attrs, std::move(notify), std::move(on_exception)));
  return subscriptions_.back().get();
}

void SrtEngine::cancel_subscription(Subscription* sub) {
  if (sub != nullptr) sub->cancelled = true;
}

void SrtEngine::on_frame(const CanIdFields& fields, const CanFrame& frame,
                         TimePoint, bool remote_origin) {
  const auto bytes = frame.payload();
  for (const auto& sub : subscriptions_) {
    if (sub->cancelled || sub->etag != fields.etag) continue;
    if (sub->local_only && remote_origin) continue;
    // The frame itself carries no origin field; "remote" is inferred from
    // the forwarding gateway's TxNode (configured system-wide).
    ++counters_.delivered;
    sub->deliver(
        sub->received({bytes.begin(), bytes.end()}, ctx_.clock.now(),
                      remote_origin),
        ctx_.clock.now());
  }
}

}  // namespace rtec
