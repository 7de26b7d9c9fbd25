#pragma once

#include <cstdint>
#include <deque>
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

/// \file nrt_engine.hpp
/// Non real-time event channels (paper §2.2.3): fixed low priorities in the
/// NRT band [251, 255] — so NRT frames only ever use bandwidth no RT
/// message wants — and a fragmentation mechanism that chains 8-byte CAN
/// frames into arbitrarily long application messages (ROM images,
/// electronic data sheets, test patterns).
///
/// Fragment wire format (data field):
///   byte 0  : [msg_id:4 | type:2 | reserved:2]
///             type: 0 = SINGLE, 1 = FIRST, 2 = MIDDLE, 3 = LAST
///   FIRST   : bytes 1..3 = total length (LE24), bytes 4..7 = payload
///   MID/LAST: bytes 1..7 = payload
///   SINGLE  : bytes 1..7 = payload (fragmented channel, small message)
/// CAN guarantees per-sender FIFO delivery, so fragments cannot reorder;
/// msg_id guards against a receiver joining mid-message or a sender
/// restart.

namespace rtec {

class NrtEngine {
 public:
  struct Counters {
    std::uint64_t published = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t send_failed = 0;
    std::uint64_t delivered = 0;
    std::uint64_t reassembly_failed = 0;
  };

  struct Subscription : SubscriptionBase {
    using SubscriptionBase::SubscriptionBase;
    bool fragmented = false;

    struct Reassembly {
      std::uint8_t msg_id = 0;
      std::size_t expected = 0;
      std::vector<std::uint8_t> buffer;
      bool active = false;
    };
    /// Per-sender reassembly state (fragments of different senders
    /// interleave freely on the bus).
    std::map<NodeId, Reassembly> reassembly;
  };

  explicit NrtEngine(const NodeContext& ctx);

  /// `attrs` must carry attr::FixedPriority within the NRT band; an
  /// attr::Fragmentation entry makes the channel a bulk channel.
  Expected<void, ChannelError> announce(Subject subject, Etag etag,
                                        const AttributeList& attrs,
                                        ExceptionHandler on_exception);
  Expected<void, ChannelError> cancel_publication(Etag etag);

  /// Queues the event; bulk events are split into fragments here. All
  /// frames of one event are sent in order before the next event of the
  /// same channel starts.
  Expected<void, ChannelError> publish(Etag etag, Event event);

  Expected<Subscription*, ChannelError> subscribe(Subject subject, Etag etag,
                                                  const AttributeList& attrs,
                                                  NotificationHandler notify,
                                                  ExceptionHandler on_exception);
  void cancel_subscription(Subscription* sub);

  /// RX dispatch for frames in the NRT priority band.
  void on_frame(const CanIdFields& fields, const CanFrame& frame,
                TimePoint bus_time, bool remote_origin);

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] std::size_t backlog_frames() const;

 private:
  struct QueuedFrame {
    CanFrame frame;
    bool end_of_message = false;
  };

  struct Publication : ChannelEnd {
    using ChannelEnd::ChannelEnd;
    Priority priority = kNrtPriorityMax;
    bool fragmented = false;
    std::uint8_t next_msg_id = 0;
    std::deque<QueuedFrame> backlog;
  };

  void pump();
  void on_tx_result(Etag etag, bool end_of_message, bool success);
  void fragment_into(Publication& pub, const Event& event);

  NodeContext ctx_;
  std::map<Etag, Publication> publications_;
  std::optional<Etag> in_flight_;  ///< channel whose frame occupies the mailbox
  std::vector<std::unique_ptr<Subscription>> subscriptions_;
  Counters counters_;
};

}  // namespace rtec
