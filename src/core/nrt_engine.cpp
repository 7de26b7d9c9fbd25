#include "core/nrt_engine.hpp"

#include <algorithm>
#include <cassert>

namespace rtec {

namespace {

enum FragType : std::uint8_t { kSingle = 0, kFirst = 1, kMiddle = 2, kLast = 3 };

std::uint8_t frag_header(std::uint8_t msg_id, FragType type) {
  return static_cast<std::uint8_t>(((msg_id & 0x0f) << 4) |
                                   ((type & 0x03) << 2));
}

std::uint8_t header_msg_id(std::uint8_t b) { return (b >> 4) & 0x0f; }
FragType header_type(std::uint8_t b) {
  return static_cast<FragType>((b >> 2) & 0x03);
}

}  // namespace

NrtEngine::NrtEngine(const NodeContext& ctx) : ctx_{ctx} {}

Expected<void, ChannelError> NrtEngine::announce(Subject subject, Etag etag,
                                                 const AttributeList& attrs,
                                                 ExceptionHandler on_exception) {
  if (publications_.contains(etag))
    return Unexpected{ChannelError::kAlreadyAnnounced};

  Publication pub{subject, etag, std::move(on_exception)};
  if (const auto p = attrs.get<attr::FixedPriority>()) {
    // Only priorities within the predefined NRT range are accepted
    // (§2.2.3) — anything else could interfere with RT traffic.
    if (p->priority < kNrtPriorityMin)
      return Unexpected{ChannelError::kPriorityOutOfRange};
    pub.priority = p->priority;
  }
  pub.fragmented =
      attrs.get<attr::Fragmentation>().value_or(attr::Fragmentation{false}).enabled;
  publications_.emplace(etag, std::move(pub));
  return {};
}

Expected<void, ChannelError> NrtEngine::cancel_publication(Etag etag) {
  const auto it = publications_.find(etag);
  if (it == publications_.end())
    return Unexpected{ChannelError::kNotAnnounced};
  // Frames already staged in the controller finish; the backlog is dropped.
  publications_.erase(it);
  if (in_flight_ == etag) in_flight_.reset();
  return {};
}

Expected<void, ChannelError> NrtEngine::publish(Etag etag, Event event) {
  const auto it = publications_.find(etag);
  if (it == publications_.end())
    return Unexpected{ChannelError::kNotAnnounced};
  Publication& pub = it->second;

  if (!pub.fragmented && event.size() > 8)
    return Unexpected{ChannelError::kPayloadTooLarge};
  if (pub.fragmented && event.size() >= (1u << 24))
    return Unexpected{ChannelError::kPayloadTooLarge};

  ++counters_.published;
  if (!pub.fragmented) {
    CanFrame frame;
    frame.id = encode_can_id({pub.priority, ctx_.node, etag});
    frame.dlc = static_cast<std::uint8_t>(event.size());
    std::copy(event.content.begin(), event.content.end(), frame.data.begin());
    pub.backlog.push_back({frame, /*end_of_message=*/true});
  } else {
    fragment_into(pub, event);
  }
  pump();
  return {};
}

void NrtEngine::fragment_into(Publication& pub, const Event& event) {
  const std::uint8_t msg_id = pub.next_msg_id;
  pub.next_msg_id = (pub.next_msg_id + 1) & 0x0f;
  const std::uint32_t id = encode_can_id({pub.priority, ctx_.node, pub.etag});
  const auto& bytes = event.content;

  if (bytes.size() <= 7) {
    CanFrame f;
    f.id = id;
    f.data[0] = frag_header(msg_id, kSingle);
    std::copy(bytes.begin(), bytes.end(), f.data.begin() + 1);
    f.dlc = static_cast<std::uint8_t>(1 + bytes.size());
    pub.backlog.push_back({f, /*end_of_message=*/true});
    return;
  }

  // FIRST: header + LE24 total length + 4 payload bytes.
  std::size_t off = 0;
  {
    CanFrame f;
    f.id = id;
    f.data[0] = frag_header(msg_id, kFirst);
    f.data[1] = static_cast<std::uint8_t>(bytes.size() & 0xff);
    f.data[2] = static_cast<std::uint8_t>((bytes.size() >> 8) & 0xff);
    f.data[3] = static_cast<std::uint8_t>((bytes.size() >> 16) & 0xff);
    const std::size_t n = std::min<std::size_t>(4, bytes.size());
    std::copy_n(bytes.begin(), n, f.data.begin() + 4);
    f.dlc = static_cast<std::uint8_t>(4 + n);
    off = n;
    pub.backlog.push_back({f, /*end_of_message=*/false});
  }
  // MIDDLE/LAST: header + up to 7 payload bytes.
  while (off < bytes.size()) {
    CanFrame f;
    f.id = id;
    const std::size_t n = std::min<std::size_t>(7, bytes.size() - off);
    const bool last = off + n == bytes.size();
    f.data[0] = frag_header(msg_id, last ? kLast : kMiddle);
    std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(off), n,
                f.data.begin() + 1);
    f.dlc = static_cast<std::uint8_t>(1 + n);
    off += n;
    pub.backlog.push_back({f, last});
  }
}

std::size_t NrtEngine::backlog_frames() const {
  std::size_t n = in_flight_ ? 1 : 0;
  for (const auto& [etag, pub] : publications_) n += pub.backlog.size();
  return n;
}

void NrtEngine::pump() {
  if (in_flight_) return;

  // Serve the highest-priority channel first (lower value first), FIFO
  // within a channel — matching what the bus itself would do if all
  // backlogged frames could be staged at once.
  Publication* best = nullptr;
  for (auto& [etag, pub] : publications_) {
    if (pub.backlog.empty()) continue;
    if (best == nullptr || pub.priority < best->priority) best = &pub;
  }
  if (best == nullptr) return;

  const QueuedFrame queued = best->backlog.front();
  const Etag etag = best->etag;
  const bool end_of_message = queued.end_of_message;
  const auto result = ctx_.controller.submit(
      queued.frame, TxMode::kAutoRetransmit,
      [this, etag, end_of_message](CanController::MailboxId, const CanFrame&,
                                   bool success, TimePoint) {
        on_tx_result(etag, end_of_message, success);
      });
  if (!result) {
    // Bus-off / no mailbox: drop this channel's backlog and report.
    ++counters_.send_failed;
    best->raise(ChannelError::kBusOff, ctx_.clock.now());
    best->backlog.clear();
    return;
  }
  best->backlog.pop_front();
  in_flight_ = etag;
}

void NrtEngine::on_tx_result(Etag etag, bool end_of_message, bool success) {
  in_flight_.reset();
  const auto it = publications_.find(etag);
  if (it != publications_.end()) {
    if (success) {
      ++counters_.frames_sent;
      if (end_of_message) ++counters_.messages_sent;
    } else {
      ++counters_.send_failed;
      it->second.raise(ChannelError::kBusOff, ctx_.clock.now());
      it->second.backlog.clear();
    }
  }
  pump();
}

Expected<NrtEngine::Subscription*, ChannelError> NrtEngine::subscribe(
    Subject subject, Etag etag, const AttributeList& attrs,
    NotificationHandler notify, ExceptionHandler on_exception) {
  auto sub = std::make_unique<Subscription>(subject, etag, attrs,
                                            std::move(notify),
                                            std::move(on_exception));
  sub->fragmented =
      attrs.get<attr::Fragmentation>().value_or(attr::Fragmentation{false}).enabled;
  subscriptions_.push_back(std::move(sub));
  return subscriptions_.back().get();
}

void NrtEngine::cancel_subscription(Subscription* sub) {
  if (sub != nullptr) sub->cancelled = true;
}

void NrtEngine::on_frame(const CanIdFields& fields, const CanFrame& frame,
                         TimePoint, bool remote_origin) {
  for (const auto& sub : subscriptions_) {
    if (sub->cancelled || sub->etag != fields.etag) continue;
    if (sub->local_only && remote_origin) continue;

    if (!sub->fragmented) {
      const auto bytes = frame.payload();
      ++counters_.delivered;
      sub->deliver(
          sub->received({bytes.begin(), bytes.end()}, ctx_.clock.now(),
                        remote_origin),
          ctx_.clock.now());
      continue;
    }

    // Fragmented channel: run the reassembly state machine for this sender.
    if (frame.dlc < 1) continue;
    auto& re = sub->reassembly[fields.tx_node];
    const std::uint8_t header = frame.data[0];
    const FragType type = header_type(header);
    const std::uint8_t msg_id = header_msg_id(header);

    auto fail = [&] {
      if (re.active) {
        re.active = false;
        re.buffer.clear();
        ++counters_.reassembly_failed;
        sub->raise(ChannelError::kReassemblyFailed, ctx_.clock.now());
      }
    };

    auto complete = [&] {
      Event event =
          sub->received(std::move(re.buffer), ctx_.clock.now(), remote_origin);
      re.buffer.clear();
      re.active = false;
      ++counters_.delivered;
      sub->deliver(std::move(event), ctx_.clock.now());
    };

    switch (type) {
      case kSingle: {
        fail();  // abandon any half-done message from this sender
        re.buffer.assign(frame.data.begin() + 1,
                         frame.data.begin() + frame.dlc);
        complete();
        break;
      }
      case kFirst: {
        fail();
        if (frame.dlc < 4) break;
        re.active = true;
        re.msg_id = msg_id;
        re.expected = static_cast<std::size_t>(frame.data[1]) |
                      (static_cast<std::size_t>(frame.data[2]) << 8) |
                      (static_cast<std::size_t>(frame.data[3]) << 16);
        re.buffer.assign(frame.data.begin() + 4,
                         frame.data.begin() + frame.dlc);
        break;
      }
      case kMiddle:
      case kLast: {
        if (!re.active || re.msg_id != msg_id) {
          // Joined mid-message or sender restarted: ignore silently unless
          // we were mid-reassembly (then it is an inconsistency).
          fail();
          break;
        }
        re.buffer.insert(re.buffer.end(), frame.data.begin() + 1,
                         frame.data.begin() + frame.dlc);
        if (re.buffer.size() > re.expected) {
          fail();
          break;
        }
        if (type == kLast) {
          if (re.buffer.size() == re.expected) {
            complete();
          } else {
            fail();
          }
        }
        break;
      }
    }
  }
}

}  // namespace rtec
