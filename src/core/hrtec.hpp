#pragma once

#include "core/channel.hpp"

/// \file hrtec.hpp
/// Hard real-time event channel — the application-facing class of Fig. 1:
///
///   class hrtec {
///     hrtec(void);
///     int announce(subject, attribute_list, exception_handler);
///     int publish(event);
///     int subscribe(subject, attribute_list, event_queue, not_handler,
///                   exception_handler);
///     int cancelSubscription(void);
///   }
///
/// The calls are EventChannel's (core/channel.hpp). For this class:
/// - announce() verifies the offline slot reservation for (subject, this
///   node) and arms the slot machinery;
/// - publish() stages the event for the next reserved slot instance. It
///   must be called before the slot's latest ready time (LST − ΔT_wait)
///   to make that instance; later publications ride the following one;
/// - subscribe() arms the per-slot reception windows with missing-message
///   detection;
/// - only subscribers can dynamically leave a HRTEC (cancelSubscription()).

namespace rtec {

class Hrtec : public EventChannel<HrtEngine> {
 public:
  using EventChannel::EventChannel;

  /// The channel's guaranteed transport latency (§2.2: "the interval
  /// between the point in time when an event message becomes ready and
  /// its delivery"): ΔT_wait + WCTT of the channel's widest reserved
  /// slot. Lets applications reason about the non-functional attributes
  /// of the channel without touching network internals. Requires a prior
  /// announce() or subscribe().
  [[nodiscard]] Expected<Duration, ChannelError> guaranteed_latency() const;
};

}  // namespace rtec
