#include "time/sync.hpp"

#include <algorithm>
#include <cassert>

#include "util/bytes.hpp"

namespace rtec {

SyncMaster::SyncMaster(Simulator& sim, CanController& controller,
                       LocalClock& clock, SyncConfig cfg)
    : sim_{sim}, controller_{controller}, clock_{clock}, cfg_{cfg} {}

void SyncMaster::start() { start_at_local(clock_.now()); }

void SyncMaster::start_at_local(TimePoint first) {
  if (running_) return;
  running_ = true;
  next_local_ = first;
  timer_ = clock_.schedule_at_local(next_local_, [this] { run_round(); });
}

void SyncMaster::stop() {
  running_ = false;
  sim_.cancel(timer_);
}

void SyncMaster::run_round() {
  if (!running_) return;

  CanFrame ref;
  ref.id = cfg_.ref_frame_id;
  ref.dlc = 0;  // the event *is* the message; no payload needed
  // Auto-retransmit: a corrupted reference frame is simply retried; slaves
  // only ever timestamp a successfully delivered frame.
  (void)controller_.submit(
      ref, TxMode::kAutoRetransmit,
      [this](CanController::MailboxId, const CanFrame&, bool success,
             TimePoint) {
        if (!success) return;  // bus-off; round abandoned
        // The successful end-of-frame instant is the common event. Capture
        // the master's local reading and ship it in the follow-up frame.
        const TimePoint master_ts = clock_.now();
        CanFrame follow;
        follow.id = cfg_.followup_frame_id;
        follow.dlc = 8;
        store_le_i64({follow.data.data(), 8}, master_ts.ns());
        (void)controller_.submit(follow, TxMode::kAutoRetransmit);
      });

  next_local_ += cfg_.period;
  timer_ = clock_.schedule_at_local(next_local_, [this] { run_round(); });
}

SyncSlave::SyncSlave(Simulator& sim, CanController& controller,
                     LocalClock& clock, SyncConfig cfg)
    : sim_{sim}, clock_{clock}, cfg_{cfg} {
  controller.add_rx_listener(
      [this](const CanFrame& frame, TimePoint now) { on_frame(frame, now); });
}

void SyncSlave::on_frame(const CanFrame& frame, TimePoint) {
  if (frame.id == cfg_.ref_frame_id) {
    captured_local_ = clock_.now();
    return;
  }
  if (frame.id != cfg_.followup_frame_id || !captured_local_) return;
  if (frame.dlc != 8) return;  // malformed; ignore

  const TimePoint master_ts =
      TimePoint::from_ns(load_le_i64({frame.data.data(), 8}));
  const TimePoint own_ts = *captured_local_;
  captured_local_.reset();

  last_correction_ = master_ts - own_ts;

  if (cfg_.rate_correction && prev_master_ts_) {
    // Rate servo: once the offset is stepped out each round, the residual
    // step corrections equal -(rate error) * elapsed master time, so
    // err_ppb = -(Σ corrections)/(Σ dm). Estimating from the corrections
    // (rather than raw local intervals) keeps earlier steps from
    // contaminating the measurement; summing over a window of rounds
    // averages out the clock-tick quantization noise.
    const std::int64_t dm = (master_ts - *prev_master_ts_).ns();
    if (dm > 0) {
      window_corrections_ += last_correction_;
      window_span_ += Duration::nanoseconds(dm);
      ++window_rounds_;
      if (window_rounds_ >= kRateWindowRounds) {
        const std::int64_t err_ppb = -window_corrections_.ns() *
                                     1'000'000'000 / window_span_.ns();
        const std::int64_t step =
            std::clamp(-err_ppb, -kMaxRateStepPpb, kMaxRateStepPpb);
        clock_.adjust_rate(step);
        window_corrections_ = Duration::zero();
        window_span_ = Duration::zero();
        window_rounds_ = 0;
      }
    }
  }
  prev_master_ts_ = master_ts;
  prev_local_ts_ = own_ts;

  clock_.adjust(last_correction_);
  ++rounds_applied_;
}

Duration required_slot_gap(Duration granularity, std::int64_t drift_bound_ppb,
                           Duration resync_period) {
  const std::int64_t wander =
      resync_period.ns() / 1'000'000'000 * drift_bound_ppb +
      resync_period.ns() % 1'000'000'000 * drift_bound_ppb / 1'000'000'000;
  return (granularity + Duration::nanoseconds(wander)) * 2;
}

}  // namespace rtec
