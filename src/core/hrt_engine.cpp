#include "core/hrt_engine.hpp"

#include <algorithm>
#include <cassert>

namespace rtec {

using literals::operator""_ns;

HrtEngine::HrtEngine(const NodeContext& ctx) : ctx_{ctx} {}

Expected<void, ChannelError> HrtEngine::announce(Subject subject, Etag etag,
                                                 const AttributeList& attrs,
                                                 ExceptionHandler on_exception) {
  if (ctx_.calendar == nullptr) return Unexpected{ChannelError::kNoReservation};
  if (publications_.contains(etag))
    return Unexpected{ChannelError::kAlreadyAnnounced};

  Publication pub{subject, etag, std::move(on_exception)};

  // Bind to the offline reservations for (etag, this node).
  const Calendar& cal = *ctx_.calendar;
  for (std::size_t i = 0; i < cal.size(); ++i) {
    const SlotSpec& s = cal.slot(i);
    if (s.etag == etag && s.publisher == ctx_.node) pub.slots.push_back(i);
  }
  if (pub.slots.empty()) return Unexpected{ChannelError::kNoReservation};

  // The reservation defines the guaranteed properties; announce-time
  // attributes may only narrow them.
  const SlotSpec& first = cal.slot(pub.slots.front());
  pub.dlc = first.dlc;
  pub.omission_degree = first.fault.omission_degree;
  pub.periodic = first.periodic;
  if (const auto size = attrs.get<attr::MessageSize>()) {
    if (size->dlc < 0 || size->dlc > pub.dlc)
      return Unexpected{ChannelError::kInvalidAttribute};
    pub.dlc = size->dlc;
  }
  if (const auto rel = attrs.get<attr::Reliability>()) {
    if (rel->omission_degree > pub.omission_degree)
      return Unexpected{ChannelError::kInvalidAttribute};
    pub.omission_degree = rel->omission_degree;
  }
  if (attrs.has<attr::Sporadic>() && pub.periodic)
    return Unexpected{ChannelError::kInvalidAttribute};
  if (const auto periodic = attrs.get<attr::Periodic>()) {
    if (!pub.periodic) return Unexpected{ChannelError::kInvalidAttribute};
    // The declared period must match the reservation's actual rate
    // (round length x period_rounds) — a mismatch means the application
    // and the offline configuration disagree.
    const Duration slot_period =
        ctx_.calendar->config().round_length * first.period_rounds;
    if (periodic->period != slot_period)
      return Unexpected{ChannelError::kInvalidAttribute};
  }
  pub.suppress_on_success = !attrs.has<attr::AlwaysTransmitCopies>();

  pub.ready_timers.resize(pub.slots.size());
  auto [it, inserted] = publications_.emplace(etag, std::move(pub));
  assert(inserted);

  // Arm every owned slot from the current local time onward.
  const TimePoint now_local = ctx_.clock.now();
  for (std::size_t pos = 0; pos < it->second.slots.size(); ++pos)
    arm_slot(it->second, pos, now_local);
  return {};
}

Expected<void, ChannelError> HrtEngine::cancel_publication(Etag etag) {
  const auto it = publications_.find(etag);
  if (it == publications_.end())
    return Unexpected{ChannelError::kNotAnnounced};
  for (auto& t : it->second.ready_timers) ctx_.sim.cancel(t);
  ctx_.sim.cancel(it->second.deadline_timer);
  publications_.erase(it);
  return {};
}

Expected<void, ChannelError> HrtEngine::publish(Etag etag, Event event) {
  const auto it = publications_.find(etag);
  if (it == publications_.end())
    return Unexpected{ChannelError::kNotAnnounced};
  Publication& pub = it->second;
  if (event.size() > static_cast<std::size_t>(pub.dlc))
    return Unexpected{ChannelError::kPayloadTooLarge};

  event.attributes.timestamp = ctx_.clock.now();
  ++counters_.published;
  if (pub.next_event) {
    ++counters_.overwritten;
    pub.raise(ChannelError::kEventOverwritten, ctx_.clock.now());
  }
  pub.next_event = std::move(event);
  return {};
}

void HrtEngine::arm_slot(Publication& pub, std::size_t slot_pos,
                         TimePoint local_after) {
  const Calendar::Instance inst =
      ctx_.calendar->instance_at_or_after(pub.slots[slot_pos], local_after);
  const Etag etag = pub.etag;
  pub.ready_timers[slot_pos] =
      ctx_.clock.schedule_at_local(inst.ready, [this, etag, slot_pos, inst] {
        const auto it = publications_.find(etag);
        if (it == publications_.end()) return;  // publication cancelled
        on_slot_ready(it->second, slot_pos, inst);
      });
}

void HrtEngine::on_slot_ready(Publication& pub, std::size_t slot_pos,
                              Calendar::Instance inst) {
  if (pub.next_event) {
    pub.in_flight = std::move(*pub.next_event);
    pub.next_event.reset();
    pub.instance_sent = false;
    pub.attempts = 0;
    pub.current = inst;
    submit_attempt(pub);

    const Etag etag = pub.etag;
    pub.deadline_timer =
        ctx_.clock.schedule_at_local(inst.deadline, [this, etag] {
          const auto it = publications_.find(etag);
          if (it == publications_.end()) return;
          Publication& p = it->second;
          if (p.in_flight && !p.instance_sent) {
            // The reserved window elapsed without a successful attempt:
            // the fault assumption was violated.
            p.in_flight.reset();
            ++counters_.send_failed;
            p.raise(ChannelError::kTransmissionFailed, ctx_.clock.now());
          }
        });
  } else if (pub.periodic) {
    // The application failed to provide an event for a periodic slot.
    ++counters_.publish_missed;
    pub.raise(ChannelError::kPublishMissed, ctx_.clock.now());
  }
  // Sporadic slot without an event: legitimately unused; the reserved
  // window is reclaimed by lower-priority traffic automatically.

  arm_slot(pub, slot_pos, inst.ready + 1_ns);
}

void HrtEngine::submit_attempt(Publication& pub) {
  const Event& event = *pub.in_flight;
  CanFrame frame;
  frame.id = encode_can_id({kHrtPriority, ctx_.node, pub.etag});
  frame.extended = true;
  frame.dlc = static_cast<std::uint8_t>(event.size());
  std::copy(event.content.begin(), event.content.end(), frame.data.begin());

  ++pub.attempts;
  const Etag etag = pub.etag;
  const auto result = ctx_.controller.submit(
      frame, TxMode::kSingleShot,
      [this, etag](CanController::MailboxId, const CanFrame&, bool success,
                   TimePoint) { on_tx_result(etag, success); });
  if (!result) {
    pub.in_flight.reset();
    ++counters_.send_failed;
    pub.raise(result.error() == TxError::kBusOff
                  ? ChannelError::kBusOff
                  : ChannelError::kTransmissionFailed,
              ctx_.clock.now());
  }
}

void HrtEngine::on_tx_result(Etag etag, bool success) {
  const auto it = publications_.find(etag);
  if (it == publications_.end()) return;
  Publication& pub = it->second;
  if (!pub.in_flight) return;

  if (success) {
    if (!pub.instance_sent) {
      // First success: the event is delivered everywhere.
      pub.instance_sent = true;
      ctx_.sim.cancel(pub.deadline_timer);
      ++counters_.sent_ok;
      counters_.retries += static_cast<std::uint64_t>(pub.attempts - 1);
    }
    if (pub.suppress_on_success) {
      // CAN's consistency property: every operational node has the frame.
      // Stop here — redundant copies are suppressed and the remaining
      // window is reclaimed by lower-priority traffic (§3.2).
      pub.in_flight.reset();
      return;
    }
  } else if (!pub.instance_sent && pub.attempts > pub.omission_degree) {
    // More faults than the channel's assumed omission degree.
    pub.in_flight.reset();
    ctx_.sim.cancel(pub.deadline_timer);
    ++counters_.send_failed;
    pub.raise(ChannelError::kTransmissionFailed, ctx_.clock.now());
    return;
  }

  // Before the first success a failed attempt is resubmitted at once at
  // priority 0 (time redundancy). After it, only the ablation
  // (attr::AlwaysTransmitCopies) gets here: it burns the rest of the
  // reservation like a pure-TDMA scheme would, whatever each copy's fate.
  if (pub.attempts <= pub.omission_degree)
    submit_attempt(pub);
  else
    pub.in_flight.reset();
}

Expected<HrtEngine::Subscription*, ChannelError> HrtEngine::subscribe(
    Subject subject, Etag etag, const AttributeList& attrs,
    NotificationHandler notify, ExceptionHandler on_exception) {
  if (ctx_.calendar == nullptr) return Unexpected{ChannelError::kNoReservation};

  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < ctx_.calendar->size(); ++i)
    if (ctx_.calendar->slot(i).etag == etag) slots.push_back(i);
  if (slots.empty()) return Unexpected{ChannelError::kNoReservation};

  auto sub = std::make_unique<Subscription>(subject, etag, attrs,
                                            std::move(notify),
                                            std::move(on_exception));
  sub->watches.resize(slots.size());

  const TimePoint now_local = ctx_.clock.now();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    sub->watches[i].slot_index = slots[i];
    arm_watch(*sub, sub->watches[i], now_local);
  }

  subscriptions_.push_back(std::move(sub));
  return subscriptions_.back().get();
}

void HrtEngine::cancel_subscription(Subscription* sub) {
  if (sub == nullptr || sub->cancelled) return;
  sub->cancelled = true;
  for (auto& w : sub->watches) ctx_.sim.cancel(w.timer);
}

void HrtEngine::arm_watch(Subscription& sub, Subscription::SlotWatch& watch,
                          TimePoint local_after) {
  watch.current =
      ctx_.calendar->instance_at_or_after(watch.slot_index, local_after);
  watch.window_open = false;
  Subscription* sub_ptr = &sub;
  Subscription::SlotWatch* watch_ptr = &watch;
  watch.timer = ctx_.clock.schedule_at_local(
      watch.current.ready, [this, sub_ptr, watch_ptr] {
        if (sub_ptr->cancelled) return;
        open_watch(*sub_ptr, *watch_ptr);
      });
}

void HrtEngine::open_watch(Subscription& sub, Subscription::SlotWatch& watch) {
  watch.window_open = true;
  watch.arrival.reset();
  Subscription* sub_ptr = &sub;
  Subscription::SlotWatch* watch_ptr = &watch;
  watch.timer = ctx_.clock.schedule_at_local(
      watch.current.deadline, [this, sub_ptr, watch_ptr] {
        if (sub_ptr->cancelled) return;
        close_watch(*sub_ptr, *watch_ptr);
      });
}

void HrtEngine::close_watch(Subscription& sub, Subscription::SlotWatch& watch) {
  watch.window_open = false;
  const TimePoint now_local = ctx_.clock.now();
  if (watch.arrival) {
    // Jitter-free delivery: the event is released exactly at the delivery
    // deadline, independent of where in the window the frame landed.
    ++counters_.delivered;
    sub.deliver(std::move(*watch.arrival), now_local);
    watch.arrival.reset();
  } else if (ctx_.calendar->slot(watch.slot_index).periodic) {
    // The reservation tells the subscriber a message was due: its absence
    // is detectable locally (§2.2.1).
    ++counters_.missing;
    sub.raise(ChannelError::kMissingMessage, now_local);
  }
  arm_watch(sub, watch, watch.current.ready + 1_ns);
}

void HrtEngine::on_frame(const CanIdFields& fields, const CanFrame& frame,
                         TimePoint) {
  bool consumed = false;
  for (const auto& sub : subscriptions_) {
    if (sub->cancelled || sub->etag != fields.etag) continue;
    for (auto& watch : sub->watches) {
      if (!watch.window_open) continue;
      if (ctx_.calendar->slot(watch.slot_index).publisher != fields.tx_node)
        continue;
      const auto bytes = frame.payload();
      watch.arrival = sub->received({bytes.begin(), bytes.end()},
                                    ctx_.clock.now(), /*remote=*/false);
      consumed = true;
      break;
    }
  }
  if (!consumed && !subscriptions_.empty()) {
    // A frame for a subscribed etag outside every window would indicate a
    // reservation violation or severe clock skew; only counted if anyone
    // here cares about the etag.
    for (const auto& sub : subscriptions_)
      if (!sub->cancelled && sub->etag == fields.etag) {
        ++counters_.stray_frames;
        break;
      }
  }
}

}  // namespace rtec
