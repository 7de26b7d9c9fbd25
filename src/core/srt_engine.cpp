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
  const Key key{event.attributes.deadline != TimePoint::max()
                    ? event.attributes.deadline
                    : now_local + pub.default_deadline,
                next_sequence_++};
  const TimePoint expiration = event.attributes.expiration != TimePoint::max()
                                   ? event.attributes.expiration
                                   : now_local + pub.default_expiration;
  if (expiration < key.deadline)
    return Unexpected{ChannelError::kInvalidAttribute};

  Message& msg = queue_[key];
  msg.etag = etag;
  msg.frame.id = encode_can_id(
      {map_.priority_for(now_local, key.deadline), ctx_.node, etag});
  msg.frame.extended = true;
  msg.frame.dlc = static_cast<std::uint8_t>(event.size());
  std::copy(event.content.begin(), event.content.end(), msg.frame.data.begin());
  ++counters_.published;
  msg.deadline_timer = ctx_.clock.schedule_at_local(
      key.deadline, [this, key] { on_deadline(key); });
  msg.expiration_timer = ctx_.clock.schedule_at_local(
      expiration, [this, key] { on_expiration(key); });

  pump();
  return {};
}

void SrtEngine::pump() {
  // Preemption: if a queued message now has an earlier deadline than the
  // one staged in the mailbox, pull the staged one back (possible only
  // while its frame is not on the wire — transmission is non-preemptable).
  // It keeps its place in the store.
  if (staged_ &&
      queue_.begin()->first.deadline < staged_->entry->first.deadline) {
    if (ctx_.controller.abort(staged_->mailbox)) {
      ++counters_.preemptions;
      ctx_.sim.cancel(promotion_timer_);
      staged_.reset();
    }
  }

  if (staged_ || queue_.empty()) return;
  start_transmission(queue_.begin());
}

void SrtEngine::start_transmission(Queue::iterator it) {
  const TimePoint now_local = ctx_.clock.now();
  const Priority prio = map_.priority_for(now_local, it->first.deadline);
  Message& msg = it->second;
  msg.frame.id = encode_can_id({prio, ctx_.node, msg.etag});

  const auto result = ctx_.controller.submit(
      msg.frame, TxMode::kAutoRetransmit,
      [this, sequence = it->first.sequence](CanController::MailboxId,
                                            const CanFrame&, bool success,
                                            TimePoint) {
        on_tx_result(sequence, success);
      });
  if (!result) {
    // Controller unavailable (bus-off / mailboxes exhausted): drop the
    // message with its timers and report; the application reacts via its
    // exception handler.
    const Etag etag = msg.etag;
    drop(it);
    raise_on(etag, ChannelError::kBusOff);
    pump();
    return;
  }
  staged_ = Staged{it, *result, prio};
  arm_promotion();
}

void SrtEngine::arm_promotion() {
  assert(staged_);
  ctx_.sim.cancel(promotion_timer_);
  const TimePoint boundary =
      map_.next_promotion(ctx_.clock.now(), staged_->entry->first.deadline);
  if (boundary == TimePoint::max()) return;  // already at the most urgent band
  // Bands follow the clock's quantized reading, and at a boundary between
  // two ticks, or where a drifting clock's inverse lands a tick early, the
  // clock still reads the old band. A timer firing there would re-arm at
  // the same instant forever, so step to where the reading has arrived.
  TimePoint due = boundary;
  while (ctx_.clock.to_local(ctx_.clock.to_perfect(due)) < boundary)
    due = due + ctx_.clock.granularity();
  promotion_timer_ =
      ctx_.clock.schedule_at_local(due, [this] { on_promotion_due(); });
}

void SrtEngine::on_promotion_due() {
  if (!staged_) return;
  const TimePoint now_local = ctx_.clock.now();
  const Priority target =
      map_.priority_for(now_local, staged_->entry->first.deadline);
  if (target < staged_->current_priority) {
    const std::uint32_t new_id =
        encode_can_id({target, ctx_.node, staged_->entry->second.etag});
    if (ctx_.controller.rewrite_id(staged_->mailbox, new_id)) {
      staged_->current_priority = target;
      ++counters_.promotions;
    } else {
      // Frame currently on the wire; if the transmission fails the retry
      // happens at the old band until the next boundary.
      ++counters_.promotion_blocked;
    }
  }
  arm_promotion();
}

void SrtEngine::on_tx_result(std::uint64_t sequence, bool success) {
  if (!staged_ || staged_->entry->first.sequence != sequence) {
    // Result for a message that was aborted (expired) between the wire and
    // this callback; nothing to do.
    pump();
    return;
  }
  const auto it = staged_->entry;
  staged_.reset();
  ctx_.sim.cancel(promotion_timer_);

  const TimePoint now_local = ctx_.clock.now();
  const TimePoint deadline = it->first.deadline;
  const Etag etag = it->second.etag;
  drop(it);
  if (success) {
    ++counters_.sent;
    if (now_local <= deadline) ++counters_.sent_by_deadline;
  } else {
    raise_on(etag, ChannelError::kBusOff);
  }
  pump();
}

void SrtEngine::on_deadline(const Key& key) {
  // Still queued or in flight at the deadline → awareness notification;
  // the message keeps competing until its expiration (§2.2.2).
  const auto it = queue_.find(key);
  if (it == queue_.end()) return;
  ++counters_.deadline_missed;
  raise_on(it->second.etag, ChannelError::kDeadlineMissed);
}

void SrtEngine::on_expiration(const Key& key) {
  // Validity gone: remove from the local send queue entirely (§2.2.2).
  const auto it = queue_.find(key);
  if (it == queue_.end()) return;
  const bool staged = staged_ && staged_->entry == it;
  if (staged) {
    // Try to pull it out of the mailbox; if it is on the wire it will
    // complete anyway (non-preemptable).
    if (!ctx_.controller.abort(staged_->mailbox)) return;
    staged_.reset();
    ctx_.sim.cancel(promotion_timer_);
  }
  const Etag etag = it->second.etag;
  drop(it);
  ++counters_.expired;
  raise_on(etag, ChannelError::kExpired);
  if (staged) pump();
}

void SrtEngine::drop(Queue::iterator it) {
  ctx_.sim.cancel(it->second.deadline_timer);
  ctx_.sim.cancel(it->second.expiration_timer);
  queue_.erase(it);
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
