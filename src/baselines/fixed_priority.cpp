#include "baselines/fixed_priority.hpp"

#include <algorithm>
#include <cassert>

#include "canbus/frame.hpp"

namespace rtec {

std::vector<PriorityAssignment> deadline_monotonic_assignment(
    std::vector<StreamSpec> streams, Priority first) {
  std::sort(streams.begin(), streams.end(),
            [](const StreamSpec& a, const StreamSpec& b) {
              if (a.deadline != b.deadline) return a.deadline < b.deadline;
              return a.id < b.id;
            });
  std::vector<PriorityAssignment> out;
  out.reserve(streams.size());
  Priority p = first;
  for (const StreamSpec& s : streams) {
    assert(p <= kSrtPriorityMax && "more streams than priority levels");
    out.push_back({s, p});
    ++p;
  }
  return out;
}

std::vector<std::optional<Duration>> response_time_analysis(
    const std::vector<PriorityAssignment>& assignment, const BusConfig& bus) {
  const auto c_of = [&](const StreamSpec& s) {
    return worst_case_frame_duration(s.dlc, /*extended=*/true, bus);
  };
  std::vector<std::optional<Duration>> result(assignment.size());

  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const StreamSpec& me = assignment[i].stream;
    const Duration ci = c_of(me);

    // Blocking: longest frame of any lower-priority stream (worst case: a
    // full 8-byte frame if unknown lower-priority traffic exists — we use
    // the declared set).
    Duration blocking = Duration::zero();
    for (std::size_t j = i + 1; j < assignment.size(); ++j)
      blocking = std::max(blocking, c_of(assignment[j].stream));

    Duration w = blocking;
    bool converged = false;
    for (int iter = 0; iter < 1000; ++iter) {
      Duration next = blocking;
      for (std::size_t j = 0; j < i; ++j) {
        const StreamSpec& hp = assignment[j].stream;
        const std::int64_t n =
            (w.ns() + bus.bit_time().ns() + hp.period.ns() - 1) / hp.period.ns();
        next += c_of(hp) * n;
      }
      if (next == w) {
        converged = true;
        break;
      }
      w = next;
      if (w + ci > me.deadline) break;  // already infeasible
    }
    if (converged && w + ci <= me.deadline) {
      result[i] = w + ci;
    } else {
      result[i] = std::nullopt;
    }
  }
  return result;
}

bool feasible(const std::vector<PriorityAssignment>& assignment,
              const BusConfig& bus) {
  for (const auto& r : response_time_analysis(assignment, bus))
    if (!r) return false;
  return true;
}

StaticPrioritySender::StaticPrioritySender(Simulator& sim,
                                           CanController& controller)
    : sim_{sim}, controller_{controller} {}

void StaticPrioritySender::queue(const StreamSpec& spec, Priority priority,
                                 TimePoint deadline, TimePoint now) {
  (void)now;
  CanFrame f;
  f.id = encode_can_id(
      {priority, spec.node, static_cast<Etag>(spec.id & kMaxEtag)});
  f.dlc = static_cast<std::uint8_t>(spec.dlc);
  f.data.fill(0xAA);  // representative payload; keeps frame lengths
                      // comparable across scheduler baselines
  // Insert keeping (priority, arrival) order: stable position after the
  // last entry with priority <= ours.
  auto it = std::find_if(queue_.begin(), queue_.end(),
                         [&](const Pending& p) { return p.priority > priority; });
  queue_.insert(it, Pending{f, priority, deadline});
  pump();
}

void StaticPrioritySender::pump() {
  if (in_flight_ || queue_.empty()) return;
  const Pending next = queue_.front();
  const auto r = controller_.submit(
      next.frame, TxMode::kAutoRetransmit,
      [this](CanController::MailboxId, const CanFrame&, bool success,
             TimePoint end) {
        in_flight_ = false;
        if (success) {
          ++outcome_.sent;
          if (end <= in_flight_deadline_) ++outcome_.sent_by_deadline;
        }
        pump();
      });
  if (!r) return;  // controller saturated; retried on next queue()/pump()
  queue_.erase(queue_.begin());
  in_flight_ = true;
  in_flight_deadline_ = next.deadline;
}

}  // namespace rtec
