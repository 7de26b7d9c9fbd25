#pragma once

#include <cstdint>
#include <optional>

#include "canbus/controller.hpp"
#include "sim/simulator.hpp"
#include "time/clock.hpp"
#include "util/time_types.hpp"

/// \file sync.hpp
/// Distributed clock synchronization over CAN, after Gergeleit & Streich
/// ("Implementing a distributed high-resolution real-time clock using the
/// CAN-bus", iCC 1994) — the "standard solution" the paper adopts for its
/// global time base.
///
/// Two-frame scheme per round:
///  1. The master broadcasts a *reference* frame. CAN delivers the frame's
///     final bit to every node at the same instant, so all nodes (including
///     the master) timestamp the same physical event with their local
///     clocks.
///  2. The master broadcasts a *follow-up* frame carrying its captured
///     timestamp. Each slave steps its clock by (master_ts - own_ts) and
///     optionally applies a rate-correction servo from consecutive rounds.
///
/// The residual precision — reading granularity plus drift accumulated over
/// one round — is what the HRT slot gap ΔG_min must cover; E9 measures it.

namespace rtec {

/// Clamp for each rate-servo step (ppb); keeps one noisy measurement
/// from destabilizing the clock.
inline constexpr std::int64_t kMaxRateStepPpb = 50'000;
/// The servo estimates the rate error from the step corrections summed
/// over this many rounds. One round's estimate is dominated by the
/// clock-tick quantization (1 us / round ~ 100 ppm); averaging over N
/// rounds divides that noise by N, which matters when the clock must
/// coast accurately after the master disappears.
inline constexpr int kRateWindowRounds = 8;

struct SyncConfig {
  Duration period = Duration::milliseconds(100);
  std::uint32_t ref_frame_id = 0x10;       ///< must win arbitration promptly
  std::uint32_t followup_frame_id = 0x11;  ///< sent right after the ref frame
  bool rate_correction = true;
};

/// Master side: broadcasts reference/follow-up rounds on a timer.
class SyncMaster {
 public:
  SyncMaster(Simulator& sim, CanController& controller, LocalClock& clock,
             SyncConfig cfg);

  /// Starts periodic rounds; the first reference frame goes out immediately.
  /// Rounds are paced by the *master's* local clock (it is the reference),
  /// so when the round period equals the calendar round length the sync
  /// transmissions stay inside their reserved slot.
  void start();

  /// Starts periodic rounds with the first round at master-local `first`.
  void start_at_local(TimePoint first);

  void stop();

 private:
  void run_round();

  Simulator& sim_;
  CanController& controller_;
  LocalClock& clock_;
  SyncConfig cfg_;
  Simulator::TimerHandle timer_;
  TimePoint next_local_;
  bool running_ = false;
};

/// Slave side: listens for reference/follow-up pairs and disciplines the
/// local clock.
class SyncSlave {
 public:
  SyncSlave(Simulator& sim, CanController& controller, LocalClock& clock,
            SyncConfig cfg);

  [[nodiscard]] std::uint64_t rounds_applied() const { return rounds_applied_; }
  /// Offset applied in the most recent round (signed; magnitude indicates
  /// how far the clock had wandered since the previous round).
  [[nodiscard]] Duration last_correction() const { return last_correction_; }

 private:
  void on_frame(const CanFrame& frame, TimePoint now);

  Simulator& sim_;
  LocalClock& clock_;
  SyncConfig cfg_;
  std::optional<TimePoint> captured_local_;   ///< local ts of last ref frame
  std::optional<TimePoint> prev_master_ts_;   ///< for rate correction
  std::optional<TimePoint> prev_local_ts_;
  // Rate servo window state.
  Duration window_corrections_ = Duration::zero();
  Duration window_span_ = Duration::zero();
  int window_rounds_ = 0;
  std::uint64_t rounds_applied_ = 0;
  Duration last_correction_ = Duration::zero();
};

/// Minimum inter-slot gap the calendar must leave so that two adjacent slot
/// owners with worst-case clock disagreement cannot overlap:
/// 2 * (granularity + drift_bound * resync_period). The paper conservatively
/// budgets 40 µs.
[[nodiscard]] Duration required_slot_gap(Duration granularity,
                                         std::int64_t drift_bound_ppb,
                                         Duration resync_period);

}  // namespace rtec
