#pragma once

#include <array>
#include <cstdint>

#include "canbus/bus.hpp"
#include "sched/id_codec.hpp"
#include "util/time_types.hpp"

/// \file metrics.hpp
/// Bus-level measurement probe used by tests and benches.

namespace rtec {

/// Attaches to a CanBus and accounts occupied bus time per traffic class
/// (HRT / SRT / NRT, by the priority field of the identifier). This is how
/// E4 measures "bandwidth reclaimed by less critical traffic".
class ClassUtilization {
 public:
  explicit ClassUtilization(CanBus& bus);

  [[nodiscard]] Duration busy(TrafficClass c) const {
    return busy_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t frames(TrafficClass c) const {
    return frames_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t errors(TrafficClass c) const {
    return errors_[static_cast<std::size_t>(c)];
  }
  /// Fraction of the elapsed window this class occupied the bus.
  [[nodiscard]] double fraction(TrafficClass c) const;

  /// Forgets everything recorded so far and restarts the window at `now`
  /// (lets benches exclude warm-up).
  void reset();

 private:
  CanBus& bus_;
  TimePoint window_start_;
  std::array<Duration, 3> busy_{};
  std::array<std::uint64_t, 3> frames_{};
  std::array<std::uint64_t, 3> errors_{};
};

}  // namespace rtec
