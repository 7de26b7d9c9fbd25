#include "core/middleware.hpp"

namespace rtec {

Middleware::Middleware(const NodeContext& ctx, BindingRegistry& binding,
                       Config cfg)
    : ctx_{ctx},
      binding_{binding},
      cfg_{cfg},
      hrt_{ctx},
      srt_{ctx, cfg.srt_map},
      nrt_{ctx} {
  ctx_.controller.add_rx_listener(
      [this](const CanFrame& frame, TimePoint t) { dispatch(frame, t); });
}

void Middleware::add_subscription_filter(Etag etag) {
  if (filtered_etags_.empty()) {
    // Narrowing from promiscuous: the infrastructure channels must keep
    // flowing (clock sync reference/follow-up, binding request/reply).
    for (const Etag infra :
         {kSyncRefEtag, kSyncFollowEtag, kBindingRequestEtag, kBindingReplyEtag}) {
      ctx_.controller.add_acceptance_filter({infra, kMaxEtag});
      filtered_etags_.insert(infra);
    }
  }
  if (filtered_etags_.insert(etag).second)
    ctx_.controller.add_acceptance_filter({etag, kMaxEtag});
}

void Middleware::dispatch(const CanFrame& frame, TimePoint bus_time) {
  if (!frame.extended) return;  // base-format frames are not ours
  ++rx_frames_seen_;
  const CanIdFields fields = decode_can_id(frame.id);
  const bool remote = gateways_.contains(fields.tx_node);
  switch (classify_priority(fields.priority)) {
    case TrafficClass::kHrt:
      hrt_.on_frame(fields, frame, bus_time);
      break;
    case TrafficClass::kSrt:
      srt_.on_frame(fields, frame, bus_time, remote);
      break;
    case TrafficClass::kNrt:
      nrt_.on_frame(fields, frame, bus_time, remote);
      break;
  }
}

}  // namespace rtec
