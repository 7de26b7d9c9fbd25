#include "core/channel.hpp"

namespace rtec {

template <typename Engine>
EventChannel<Engine>::~EventChannel() {
  if (announced_) (void)engine().cancel_publication(*announced_);
  if (sub_ != nullptr) engine().cancel_subscription(sub_);
}

template <typename Engine>
Expected<void, ChannelError> EventChannel<Engine>::announce(
    Subject subject, const AttributeList& attrs,
    ExceptionHandler exception_handler) {
  if (announced_) return Unexpected{ChannelError::kAlreadyAnnounced};
  const auto etag = mw_.bind(subject);
  if (!etag) return Unexpected{etag.error()};
  const auto r =
      engine().announce(subject, *etag, attrs, std::move(exception_handler));
  if (!r) return r;
  subject_ = subject;
  announced_ = *etag;
  return {};
}

template <typename Engine>
Expected<void, ChannelError> EventChannel<Engine>::cancelPublication() {
  if (!announced_) return Unexpected{ChannelError::kNotAnnounced};
  const auto r = engine().cancel_publication(*announced_);
  announced_.reset();
  return r;
}

template <typename Engine>
Expected<void, ChannelError> EventChannel<Engine>::publish(Event event) {
  if (!announced_) return Unexpected{ChannelError::kNotAnnounced};
  event.subject = *subject_;
  return engine().publish(*announced_, std::move(event));
}

template <typename Engine>
Expected<void, ChannelError> EventChannel<Engine>::subscribe(
    Subject subject, const AttributeList& attrs,
    NotificationHandler not_handler, ExceptionHandler exception_handler) {
  if (sub_ != nullptr) return Unexpected{ChannelError::kAlreadySubscribed};
  const auto etag = mw_.bind(subject);
  if (!etag) return Unexpected{etag.error()};
  auto r = engine().subscribe(subject, *etag, attrs, std::move(not_handler),
                              std::move(exception_handler));
  if (!r) return Unexpected{r.error()};
  mw_.add_subscription_filter(*etag);  // hardware routing for this subject
  subject_ = subject;
  sub_ = *r;
  return {};
}

template <typename Engine>
Expected<void, ChannelError> EventChannel<Engine>::cancelSubscription() {
  if (sub_ == nullptr) return Unexpected{ChannelError::kNotSubscribed};
  engine().cancel_subscription(sub_);
  sub_ = nullptr;
  return {};
}

template <typename Engine>
std::optional<Event> EventChannel<Engine>::getEvent() {
  if (sub_ == nullptr) return std::nullopt;
  return sub_->queue.pop();
}

template class EventChannel<HrtEngine>;
template class EventChannel<SrtEngine>;
template class EventChannel<NrtEngine>;

}  // namespace rtec
