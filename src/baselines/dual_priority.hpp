#pragma once

#include <cstdint>
#include <map>

#include "canbus/controller.hpp"
#include "sched/id_codec.hpp"
#include "sim/simulator.hpp"
#include "util/time_types.hpp"

/// \file dual_priority.hpp
/// Dual-priority baseline after Davis (YCS 230, 1994), one of the flexible
/// schemes §4 compares against: each message starts in a *low* priority
/// band and is promoted exactly once — at (deadline − promotion lead) — to
/// its static priority in the *high* band. Between the bands, best-effort
/// traffic can run. Unlike the paper's EDF mapping, the high-band priority
/// is static per stream, and there is only the single promotion step, so
/// the scheme's effective time horizon is the promotion lead itself.

namespace rtec {

class DualPrioritySender {
 public:
  /// High band: [kHighMin, kLowMin) — promoted messages live here with
  /// their static per-stream priority.
  static constexpr Priority kHighMin = kSrtPriorityMin;
  /// Low band starting priority for unpromoted messages.
  static constexpr Priority kLowMin = 128;
  static_assert(kHighMin < kLowMin);

  DualPrioritySender(Simulator& sim, CanController& controller);

  struct Outcome {
    std::uint64_t sent = 0;
    std::uint64_t sent_by_deadline = 0;
    std::uint64_t promotions = 0;
  };

  /// Queues a message: starts at (kLowMin + static_priority), promoted to
  /// (kHighMin + static_priority) at `deadline - promotion_lead`.
  void queue(NodeId node, Etag etag, std::uint8_t static_priority, int dlc,
             TimePoint deadline, Duration promotion_lead);

  [[nodiscard]] const Outcome& outcome() const { return outcome_; }
  [[nodiscard]] std::size_t backlog() const { return pending_.size(); }

 private:
  struct Pending {
    CanFrame frame;
    Priority high_priority;
    TimePoint deadline;
    std::uint64_t uid;
  };
  void pump();

  Simulator& sim_;
  CanController& controller_;
  std::map<std::uint64_t, Pending> pending_;  // FIFO by uid
  bool in_flight_ = false;
  std::uint64_t in_flight_uid_ = 0;
  std::optional<CanController::MailboxId> mailbox_;
  TimePoint in_flight_deadline_;
  std::uint64_t next_uid_ = 1;
  Outcome outcome_;
};

}  // namespace rtec
