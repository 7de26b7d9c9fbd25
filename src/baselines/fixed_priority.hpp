#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "canbus/can_types.hpp"
#include "canbus/controller.hpp"
#include "sched/id_codec.hpp"
#include "sim/simulator.hpp"
#include "util/time_types.hpp"

/// \file fixed_priority.hpp
/// Fixed-priority CAN baseline after Tindell & Burns (iCC 1994), the
/// deadline-monotonic comparison point of the paper's §4: every message
/// stream gets one static priority for its lifetime; an offline
/// response-time analysis decides feasibility. Supports only static
/// systems and "does not distinguish hard and soft deadlines".

namespace rtec {

/// Static description of one periodic/sporadic message stream.
struct StreamSpec {
  int id = 0;              ///< stream identity (becomes the etag field)
  NodeId node = 0;         ///< sending node
  Duration period;         ///< period / minimum inter-arrival
  Duration deadline;       ///< relative deadline (<= period for the RTA)
  int dlc = 8;
};

/// Deadline-monotonic priority order: shorter deadline → more dominant
/// priority. Returns the streams sorted and their assigned priorities
/// (within the SRT band so the comparison runs on the same identifier
/// layout). Ties break by stream id.
struct PriorityAssignment {
  StreamSpec stream;
  Priority priority = 0;
};
[[nodiscard]] std::vector<PriorityAssignment> deadline_monotonic_assignment(
    std::vector<StreamSpec> streams, Priority first = kSrtPriorityMin);

/// Classic CAN response-time analysis (Tindell/Burns):
///   R_i = w_i + C_i,   w_i = B_i + Σ_{j ∈ hp(i)} ⌈(w_i + τ_bit)/T_j⌉ C_j
/// with B_i = the longest lower-priority frame (non-preemptable blocking).
/// Returns the worst-case response time per stream in the given priority
/// order (index-aligned with `assignment`), or nullopt for streams whose
/// recurrence diverges past their deadline (infeasible).
[[nodiscard]] std::vector<std::optional<Duration>> response_time_analysis(
    const std::vector<PriorityAssignment>& assignment, const BusConfig& bus);

/// True when every stream's worst-case response time meets its deadline.
[[nodiscard]] bool feasible(const std::vector<PriorityAssignment>& assignment,
                            const BusConfig& bus);

/// Runtime driver: sends each queued message at its stream's static
/// priority (auto-retransmit). One mailbox at a time per driver, FIFO by
/// priority then arrival, mirroring the SRT engine's staging discipline so
/// the comparison isolates the scheduling policy.
class StaticPrioritySender {
 public:
  StaticPrioritySender(Simulator& sim, CanController& controller);

  struct Outcome {
    std::uint64_t sent = 0;
    std::uint64_t sent_by_deadline = 0;
  };

  /// Queues a message of `spec` with the given assigned priority and
  /// absolute deadline (for accounting only — priority never changes).
  void queue(const StreamSpec& spec, Priority priority, TimePoint deadline,
             TimePoint now);

  [[nodiscard]] const Outcome& outcome() const { return outcome_; }
  [[nodiscard]] std::size_t backlog() const { return queue_.size(); }

 private:
  struct Pending {
    CanFrame frame;
    Priority priority;
    TimePoint deadline;
  };
  void pump();

  Simulator& sim_;
  CanController& controller_;
  std::vector<Pending> queue_;  // kept sorted by (priority, arrival)
  bool in_flight_ = false;
  TimePoint in_flight_deadline_;
  Outcome outcome_;
};

}  // namespace rtec
