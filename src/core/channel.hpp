#pragma once

#include <optional>

#include "core/middleware.hpp"

/// \file channel.hpp
/// The application-facing event channel of Figs. 1–2, written once for
/// all three timeliness classes. The paper gives HRTEC, SRTEC and NRTEC
/// one interface (announce, cancelPublication, publish, subscribe,
/// cancelSubscription and retrieval from the event queue); what differs
/// between the classes lives in the middleware underneath, so the class is
/// the engine type the channel talks to. core/hrtec.hpp, srtec.hpp and
/// nrtec.hpp name the three channels and document what each class means.
///
/// Modernizations (documented deviations): `int` error returns become
/// Expected<void, ChannelError>; the event_queue argument becomes an
/// attr::QueueCapacity attribute (the middleware owns the "predefined
/// memory area" and hands events out via getEvent()); a channel object is
/// bound to a node's middleware at construction.

namespace rtec {

template <typename Engine>
class EventChannel {
 public:
  explicit EventChannel(Middleware& mw) : mw_{mw} {}
  EventChannel(const EventChannel&) = delete;
  EventChannel& operator=(const EventChannel&) = delete;
  ~EventChannel();

  /// Publisher set-up: binds the subject and registers the publication
  /// with the class engine.
  Expected<void, ChannelError> announce(Subject subject,
                                        const AttributeList& attrs,
                                        ExceptionHandler exception_handler);

  /// Releases the publisher registration (local operation).
  Expected<void, ChannelError> cancelPublication();

  /// Hands the event to the class engine for transmission.
  Expected<void, ChannelError> publish(Event event);

  /// Subscriber set-up: binds the subject, registers the subscription with
  /// the class engine and programs the hardware filter for it.
  Expected<void, ChannelError> subscribe(Subject subject,
                                         const AttributeList& attrs,
                                         NotificationHandler not_handler,
                                         ExceptionHandler exception_handler);

  /// Strictly local: releases the resources in the local event handler
  /// (§2.2.1).
  Expected<void, ChannelError> cancelSubscription();

  /// Retrieves the next delivered event from the subscription's queue
  /// (called from the notification handler, §2.2.1).
  [[nodiscard]] std::optional<Event> getEvent();

  [[nodiscard]] std::optional<Subject> subject() const { return subject_; }

 protected:
  Middleware& mw_;

 private:
  Engine& engine() { return mw_.engine<Engine>(); }

  std::optional<Subject> subject_;
  std::optional<Etag> announced_;
  typename Engine::Subscription* sub_ = nullptr;
};

extern template class EventChannel<HrtEngine>;
extern template class EventChannel<SrtEngine>;
extern template class EventChannel<NrtEngine>;

}  // namespace rtec
