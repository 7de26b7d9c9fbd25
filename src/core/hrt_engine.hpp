#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/attributes.hpp"
#include "core/errors.hpp"
#include "core/event.hpp"
#include "core/node_context.hpp"
#include "core/subscription.hpp"
#include "sched/id_codec.hpp"
#include "util/expected.hpp"
#include "util/stats.hpp"

/// \file hrt_engine.hpp
/// Hard real-time event channel machinery (paper §2.2.1, §3.1–§3.2).
///
/// Publisher side, per reserved slot instance (Fig. 3):
///   ready  = LST − ΔT_wait : the published event is placed in the
///            controller with the exclusive priority 0. From here at most
///            one non-preemptable lower-priority frame can delay it, by at
///            most ΔT_wait, so transmission starts no later than LST.
///   On a corrupted attempt the engine immediately resubmits (time
///   redundancy), up to omission_degree + 1 attempts. On the first
///   successful attempt it STOPS — the rest of the reserved window is
///   implicitly handed to SRT/NRT traffic by CAN arbitration (the
///   bandwidth-reclamation property, E4).
///   deadline = LST + WCTT : if no attempt succeeded by now the fault
///   assumption was violated → kTransmissionFailed.
///
/// Subscriber side: the slot table tells the subscriber exactly when a
/// message may arrive (the "known time of transmission ... exploited as a
/// filter"). A frame arriving in the window is buffered and released to
/// the application exactly at the delivery deadline — jitter is removed in
/// the middleware, not on the network (§3.2). An empty window of a
/// periodic slot raises kMissingMessage.

namespace rtec {

class HrtEngine {
 public:
  struct Counters {
    std::uint64_t published = 0;
    std::uint64_t sent_ok = 0;          ///< instances delivered on the bus
    std::uint64_t retries = 0;          ///< redundant attempts actually used
    std::uint64_t send_failed = 0;      ///< fault assumption violated
    std::uint64_t publish_missed = 0;   ///< periodic slot with no event
    std::uint64_t overwritten = 0;      ///< unsent event replaced
    std::uint64_t delivered = 0;        ///< events released to subscribers
    std::uint64_t missing = 0;          ///< empty periodic windows (rx side)
    std::uint64_t stray_frames = 0;     ///< HRT frames outside any window
  };

  /// Subscriber handle; owned by the engine, stable address.
  struct Subscription : SubscriptionBase {
    using SubscriptionBase::SubscriptionBase;

    struct SlotWatch {
      std::size_t slot_index = 0;
      Calendar::Instance current;
      bool window_open = false;
      std::optional<Event> arrival;
      Simulator::TimerHandle timer;
    };
    std::vector<SlotWatch> watches;
  };

  explicit HrtEngine(const NodeContext& ctx);

  /// Publisher registration: binds to the calendar slots reserved for
  /// (etag, this node). Fails with kNoReservation when the offline
  /// calendar contains none (reservations are made offline, §3.1).
  Expected<void, ChannelError> announce(Subject subject, Etag etag,
                                        const AttributeList& attrs,
                                        ExceptionHandler on_exception);

  Expected<void, ChannelError> cancel_publication(Etag etag);

  /// Stages `event` for the next reserved slot instance. Publishing twice
  /// before the slot fires overwrites (latest-value semantics for sensor
  /// streams) and raises kEventOverwritten.
  Expected<void, ChannelError> publish(Etag etag, Event event);

  Expected<Subscription*, ChannelError> subscribe(Subject subject, Etag etag,
                                                  const AttributeList& attrs,
                                                  NotificationHandler notify,
                                                  ExceptionHandler on_exception);

  void cancel_subscription(Subscription* sub);

  /// RX dispatch from the middleware (frames with priority 0).
  void on_frame(const CanIdFields& fields, const CanFrame& frame,
                TimePoint bus_time);

  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  struct Publication : ChannelEnd {
    using ChannelEnd::ChannelEnd;
    bool periodic = true;
    int dlc = 8;
    int omission_degree = 0;
    /// Paper's scheme: stop transmitting once all nodes have the frame.
    /// false = TTCAN-style ablation (attr::AlwaysTransmitCopies).
    bool suppress_on_success = true;
    std::vector<std::size_t> slots;  ///< calendar indices owned here

    std::optional<Event> next_event;
    // Active instance state (at most one instance of one slot is active at
    // a time per publication: admission guarantees window disjointness).
    // `in_flight` holds the instance's event while it is active; every
    // attempt, retry or redundant copy, is built from it.
    std::optional<Event> in_flight;
    bool instance_sent = false;
    int attempts = 0;
    Calendar::Instance current;
    std::vector<Simulator::TimerHandle> ready_timers;  // one per slot
    Simulator::TimerHandle deadline_timer;
  };

  void arm_slot(Publication& pub, std::size_t slot_pos, TimePoint local_after);
  void on_slot_ready(Publication& pub, std::size_t slot_pos,
                     Calendar::Instance inst);
  void submit_attempt(Publication& pub);
  void on_tx_result(Etag etag, bool success);

  void arm_watch(Subscription& sub, Subscription::SlotWatch& watch,
                 TimePoint local_after);
  void open_watch(Subscription& sub, Subscription::SlotWatch& watch);
  void close_watch(Subscription& sub, Subscription::SlotWatch& watch);

  NodeContext ctx_;
  std::map<Etag, Publication> publications_;
  std::vector<std::unique_ptr<Subscription>> subscriptions_;
  Counters counters_;
};

}  // namespace rtec
