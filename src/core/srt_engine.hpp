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
#include "sched/edf_queue.hpp"
#include "sched/id_codec.hpp"
#include "sched/priority_map.hpp"
#include "util/expected.hpp"

/// \file srt_engine.hpp
/// Soft real-time event channels (paper §2.2.2, §3.4): no reservations;
/// events carry a transmission deadline and an expiration (validity) time.
///
/// Local EDF: all queued SRT messages of this node are ordered by deadline;
/// only the earliest occupies a controller TX mailbox.
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
  [[nodiscard]] std::size_t queue_length() const {
    return queue_.size() + (in_flight_ ? 1 : 0);
  }

 private:
  struct Publication : ChannelEnd {
    using ChannelEnd::ChannelEnd;
    Duration default_deadline = Duration::milliseconds(10);
    Duration default_expiration = Duration::milliseconds(20);
  };

  struct Message {
    std::uint64_t uid = 0;
    Etag etag = 0;
    CanFrame frame;
    TimePoint deadline;
    TimePoint expiration;
    TimePoint enqueued;
  };

  struct InFlight {
    Message msg;
    CanController::MailboxId mailbox = 0;
    Priority current_priority = kSrtPriorityMax;
  };

  /// One message's bookkeeping, keyed by uid. A record exists exactly
  /// while its message is queued or in flight: every path that drops a
  /// message erases it.
  struct Record {
    Etag etag = 0;
    /// Position in queue_; stale while the message is in flight.
    EdfQueue<Message>::Handle queued;
    Simulator::TimerHandle deadline;
    Simulator::TimerHandle expiration;
  };

  void pump();
  void start_transmission(Message msg);
  void arm_promotion();
  void on_promotion_due();
  void on_tx_result(std::uint64_t uid, bool success);
  void on_deadline(std::uint64_t uid);
  void on_expiration(std::uint64_t uid);
  /// Raises `e` on the publication of `etag`, if it still exists: queued
  /// messages outlive cancel_publication().
  void raise_on(Etag etag, ChannelError e);

  NodeContext ctx_;
  DeadlinePriorityMap map_;
  std::map<Etag, Publication> publications_;
  EdfQueue<Message> queue_;
  std::optional<InFlight> in_flight_;
  Simulator::TimerHandle promotion_timer_;
  std::map<std::uint64_t, Record> records_;
  std::vector<std::unique_ptr<Subscription>> subscriptions_;
  std::uint64_t next_uid_ = 1;
  Counters counters_;
};

}  // namespace rtec
