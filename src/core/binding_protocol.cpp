#include "core/binding_protocol.hpp"

#include "util/bytes.hpp"

namespace rtec {

BindingAgent::BindingAgent(const NodeContext& ctx, BindingRegistry& registry)
    : ctx_{ctx}, registry_{registry} {
  ctx_.controller.add_rx_listener(
      [this](const CanFrame& frame, TimePoint now) { on_frame(frame, now); });
}

void BindingAgent::on_frame(const CanFrame& frame, TimePoint) {
  if (!frame.extended) return;
  const CanIdFields fields = decode_can_id(frame.id);
  if (fields.etag != kBindingRequestEtag || frame.dlc != 8) return;

  const Subject subject{load_le64({frame.data.data(), 8})};
  const auto bound = registry_.bind(subject);
  ++served_;

  CanFrame reply;
  reply.id = encode_can_id({kBindingPriority, ctx_.node, kBindingReplyEtag});
  reply.dlc = 8;
  reply.data[0] = fields.tx_node;
  store_le16({reply.data.data() + 1, 2}, bound ? *bound : 0);
  reply.data[3] = bound ? 0 : 1;
  store_le32({reply.data.data() + 4, 4},
             static_cast<std::uint32_t>(subject.uid & 0xffffffff));
  (void)ctx_.controller.submit(reply, TxMode::kAutoRetransmit);
}

BindingClient::BindingClient(const NodeContext& ctx) : ctx_{ctx} {
  ctx_.controller.add_rx_listener(
      [this](const CanFrame& frame, TimePoint now) { on_frame(frame, now); });
}

void BindingClient::resolve(Subject subject, Callback cb) {
  if (const auto it = cache_.find(subject); it != cache_.end()) {
    cb(it->second);
    return;
  }
  queue_.push_back(PendingRequest{subject, std::move(cb), 0});
  pump();
}

std::optional<Etag> BindingClient::cached(Subject subject) const {
  const auto it = cache_.find(subject);
  if (it == cache_.end()) return std::nullopt;
  return it->second;
}

void BindingClient::pump() {
  if (active_ || queue_.empty()) return;
  active_ = std::move(queue_.front());
  queue_.pop_front();
  // The cache may have been filled by an overheard reply meanwhile.
  if (const auto it = cache_.find(active_->subject); it != cache_.end()) {
    finish(it->second);
    return;
  }
  send_request();
}

void BindingClient::send_request() {
  CanFrame req;
  req.id = encode_can_id({kBindingPriority, ctx_.node, kBindingRequestEtag});
  req.dlc = 8;
  store_le64({req.data.data(), 8}, active_->subject.uid);
  ++active_->attempts;
  ++sent_;
  (void)ctx_.controller.submit(req, TxMode::kAutoRetransmit);
  timeout_timer_ =
      ctx_.sim.schedule_after(kTimeout, [this] { on_timeout(); });
}

void BindingClient::on_timeout() {
  if (!active_) return;
  ++timeouts_;
  if (active_->attempts >= kMaxAttempts) {
    finish(Unexpected{ChannelError::kBindingFailed});
    return;
  }
  send_request();
}

void BindingClient::finish(Expected<Etag, ChannelError> result) {
  ctx_.sim.cancel(timeout_timer_);
  Callback cb = std::move(active_->cb);
  active_.reset();
  cb(result);
  pump();
}

void BindingClient::on_frame(const CanFrame& frame, TimePoint) {
  if (!frame.extended) return;
  const CanIdFields fields = decode_can_id(frame.id);
  if (fields.etag != kBindingReplyEtag || frame.dlc != 8) return;

  const Etag etag = load_le16({frame.data.data() + 1, 2});
  const bool ok = frame.data[3] == 0;
  const std::uint32_t uid_low = load_le32({frame.data.data() + 4, 4});

  // Every client overhears every reply and warms its cache — replies are
  // broadcast, so commissioning traffic shrinks as the system boots. The
  // subject is only known in full to the requester; others can only cache
  // once they see the subject themselves, so match against the active
  // request here.
  if (active_ &&
      static_cast<std::uint32_t>(active_->subject.uid & 0xffffffff) == uid_low &&
      frame.data[0] == ctx_.node) {
    if (ok) {
      cache_.emplace(active_->subject, etag);
      finish(etag);
    } else {
      finish(Unexpected{ChannelError::kBindingFailed});
    }
  }
}

}  // namespace rtec
