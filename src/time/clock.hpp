#pragma once

#include <cstdint>
#include <utility>

#include "sim/simulator.hpp"
#include "util/time_types.hpp"

/// \file clock.hpp
/// Per-node local clock with offset, rate error (drift) and finite reading
/// granularity.
///
/// The paper's HRT reservation scheme rests on a global time base with a
/// known precision (it budgets a conservative ΔG_min = 40 µs gap between
/// slots). Nodes therefore never see perfect simulation time: all slot
/// timers and timestamps in the middleware go through a LocalClock, so
/// clock error propagates into slot timing exactly as it would on hardware,
/// and E9 can measure the achieved precision of the sync protocol.

namespace rtec {

class LocalClock {
 public:
  /// Largest |rate error| the clock accepts, in ppb (|r| <= 1e-3). Within
  /// it the skew products cannot overflow, and to_perfect stays within
  /// about r^3 * dl of the true inverse.
  static constexpr std::int64_t kMaxDriftPpb = 1'000'000;

  /// \param sim         simulation kernel supplying perfect time
  /// \param offset      initial offset of the local clock vs perfect time
  /// \param drift_ppb   rate error in parts per billion (positive = fast),
  ///                    at most kMaxDriftPpb in magnitude
  /// \param granularity reading resolution (MCU timer tick); readings are
  ///                    truncated to multiples of this
  LocalClock(Simulator& sim, Duration offset, std::int64_t drift_ppb,
             Duration granularity = Duration::microseconds(1));

  /// Local clock reading at the current simulated instant (quantized to the
  /// reading granularity).
  [[nodiscard]] TimePoint now() const { return to_local(sim_.now()); }

  /// Local reading corresponding to perfect instant `perfect` (quantized).
  [[nodiscard]] TimePoint to_local(TimePoint perfect) const;

  /// Perfect instant at which this clock will read `local` (inverse of
  /// to_local up to quantization and a small residual, a few ns at 100 ppm,
  /// so the reading there can fall one tick short of `local`). Used to arm
  /// timers at local deadlines.
  [[nodiscard]] TimePoint to_perfect(TimePoint local) const;

  /// Steps the clock by `delta` (positive = forward), rebasing at now.
  void adjust(Duration delta);

  /// Adds `ppb_delta` to the clock rate (rate-correction servo), rebasing
  /// at now so past readings are unaffected. The sum stays within
  /// kMaxDriftPpb.
  void adjust_rate(std::int64_t ppb_delta);

  [[nodiscard]] std::int64_t drift_ppb() const { return drift_ppb_; }
  [[nodiscard]] Duration granularity() const { return granularity_; }

  /// Arms a one-shot timer that fires when *this clock* reads `local_t`.
  /// The callable goes straight into the kernel's inline storage.
  template <typename F>
  Simulator::TimerHandle schedule_at_local(TimePoint local_t, F&& cb) {
    TimePoint perfect = to_perfect(local_t);
    // A clock stepped forward may make a local deadline already past; fire
    // immediately in that case (as an MCU timer compare-match would).
    if (perfect < sim_.now()) perfect = sim_.now();
    return sim_.schedule_at(perfect, std::forward<F>(cb));
  }

  /// Cancels a timer previously armed through this clock.
  void cancel(Simulator::TimerHandle& h) { sim_.cancel(h); }

 private:
  [[nodiscard]] TimePoint to_local_raw(TimePoint perfect) const;

  Simulator& sim_;
  TimePoint base_perfect_;  ///< rebasing anchor (perfect timeline)
  TimePoint base_local_;    ///< local reading at base_perfect_
  std::int64_t drift_ppb_;
  Duration granularity_;
};

}  // namespace rtec
