#pragma once

#include <compare>
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
#include "sched/priority_map.hpp"
#include "util/expected.hpp"

/// \file srt_engine.hpp
/// Soft real-time event channels (paper §2.2.2, §3.4): no reservations;
/// events carry a transmission deadline and an expiration (validity) time.
///
/// Local EDF: all pending SRT messages of this node live in one store
/// ordered by (deadline, arrival sequence), from publish until they are
/// sent, expire or are refused; only the earliest occupies a controller TX
/// mailbox. Equal deadlines leave in arrival order. A staged message keeps
/// its place in the store, so one preempted by an earlier deadline (its
/// mailbox aborted) still goes ahead of every equal-deadline message that
/// arrived after it.
/// Global EDF via priorities: the mailbox identifier carries the priority
/// band from DeadlinePriorityMap; as laxity shrinks across Δt_p boundaries
/// the engine *promotes* the message by rewriting the mailbox identifier
/// (impossible while the frame is on the wire — exactly the overhead and
/// fidelity limits E6/E10 measure).
///
/// Exception semantics (§2.2.2): a message still unsent at its deadline
/// raises kDeadlineMissed but keeps competing (best effort); when its
/// expiration passes it is removed from the send queue entirely and
/// kExpired is raised.

namespace rtec {

class SrtEngine {
 public:
  struct Counters {
    std::uint64_t published = 0;
    std::uint64_t sent = 0;             ///< successfully transmitted
    std::uint64_t sent_by_deadline = 0; ///< ... with deadline met
    std::uint64_t deadline_missed = 0;  ///< kDeadlineMissed raised
    std::uint64_t expired = 0;          ///< dropped from the send queue
    std::uint64_t promotions = 0;       ///< successful mailbox id rewrites
    std::uint64_t promotion_blocked = 0;///< rewrite refused (frame on wire)
    std::uint64_t preemptions = 0;      ///< mailbox swapped for earlier deadline
    std::uint64_t delivered = 0;        ///< events handed to subscribers
  };

  using Subscription = SubscriptionBase;

  SrtEngine(const NodeContext& ctx, DeadlinePriorityMap::Config map_cfg);

  Expected<void, ChannelError> announce(Subject subject, Etag etag,
                                        const AttributeList& attrs,
                                        ExceptionHandler on_exception);
  Expected<void, ChannelError> cancel_publication(Etag etag);

  /// Queues the event. Absolute deadline/expiration come from the event's
  /// attributes; TimePoint::max() means "apply the channel defaults
  /// relative to now".
  Expected<void, ChannelError> publish(Etag etag, Event event);

  Expected<Subscription*, ChannelError> subscribe(Subject subject, Etag etag,
                                                  const AttributeList& attrs,
                                                  NotificationHandler notify,
                                                  ExceptionHandler on_exception);
  void cancel_subscription(Subscription* sub);

  /// RX dispatch for frames in the SRT priority band.
  void on_frame(const CanIdFields& fields, const CanFrame& frame,
                TimePoint bus_time, bool remote_origin);

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const DeadlinePriorityMap& priority_map() const { return map_; }
  /// Messages queued or staged.
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }

 private:
  struct Publication : ChannelEnd {
    using ChannelEnd::ChannelEnd;
    Duration default_deadline = Duration::milliseconds(10);
    Duration default_expiration = Duration::milliseconds(20);
  };

  /// Store key: the deadline, then the arrival sequence (unique per
  /// engine), so equal deadlines keep arrival order.
  struct Key {
    TimePoint deadline;
    std::uint64_t sequence = 0;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  struct Message {
    Etag etag = 0;
    CanFrame frame;
    Simulator::TimerHandle deadline_timer;
    Simulator::TimerHandle expiration_timer;
  };

  using Queue = std::map<Key, Message>;

  /// The message occupying the TX mailbox; it stays in queue_.
  struct Staged {
    Queue::iterator entry;
    CanController::MailboxId mailbox = 0;
    Priority current_priority = kSrtPriorityMax;
  };

  void pump();
  void start_transmission(Queue::iterator it);
  void arm_promotion();
  void on_promotion_due();
  void on_tx_result(std::uint64_t sequence, bool success);
  void on_deadline(const Key& key);
  void on_expiration(const Key& key);
  /// The one way a message leaves the store: cancels its timers (a no-op
  /// for one that has fired) and erases it.
  void drop(Queue::iterator it);
  /// Raises `e` on the publication of `etag`, if it still exists: queued
  /// messages outlive cancel_publication().
  void raise_on(Etag etag, ChannelError e);

  NodeContext ctx_;
  DeadlinePriorityMap map_;
  std::map<Etag, Publication> publications_;
  Queue queue_;
  std::optional<Staged> staged_;
  Simulator::TimerHandle promotion_timer_;
  std::vector<std::unique_ptr<Subscription>> subscriptions_;
  std::uint64_t next_sequence_ = 1;
  Counters counters_;
};

}  // namespace rtec
