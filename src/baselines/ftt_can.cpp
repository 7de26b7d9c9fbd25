#include "baselines/ftt_can.hpp"

#include <cassert>

#include "canbus/frame.hpp"

namespace rtec {

FttMaster::FttMaster(Simulator& sim, CanController& controller, FttConfig cfg)
    : sim_{sim}, controller_{controller}, cfg_{cfg} {}

void FttMaster::add_stream(const FttStream& stream) {
  assert(streams_.size() < 8 && "TM encodes at most 8 stream slots");
  streams_.push_back(stream);
  // Start "due" so every stream is polled in the first cycle.
  elapsed_.push_back(stream.period);
}

void FttMaster::start() {
  if (running_) return;
  running_ = true;
  run_cycle();
}

void FttMaster::stop() {
  running_ = false;
  sim_.cancel(timer_);
}

void FttMaster::run_cycle() {
  if (!running_) return;
  // Plan this EC: poll every stream whose period has elapsed. (A real
  // FTT master also packs by window capacity; our scenarios keep the sync
  // window feasible by construction.)
  CanFrame tm;
  tm.id = kFttTmId;
  tm.dlc = 8;
  tm.data.fill(0xff);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    elapsed_[i] += cfg_.elementary_cycle;
    if (elapsed_[i] >= streams_[i].period && cursor < 8) {
      tm.data[cursor++] = streams_[i].index;
      elapsed_[i] = Duration::zero();
    }
  }
  (void)controller_.submit(tm, TxMode::kAutoRetransmit);
  ++cycles_;

  timer_ = sim_.schedule_after(cfg_.elementary_cycle, [this] { run_cycle(); });
}

FttSlave::FttSlave(Simulator& sim, CanController& controller, FttConfig cfg)
    : sim_{sim}, controller_{controller}, cfg_{cfg} {
  controller.add_rx_listener(
      [this](const CanFrame& frame, TimePoint now) { on_frame(frame, now); });
}

void FttSlave::produce(std::uint8_t index, SyncSource source) {
  produced_.emplace(index, std::move(source));
}

void FttSlave::queue_async(const CanFrame& frame) {
  async_.push_back(frame);
}

void FttSlave::on_frame(const CanFrame& frame, TimePoint now) {
  if (frame.id != kFttTmId) return;

  // Synchronous phase: transmit every one of our polled streams. All
  // polled producers contend right after the TM; their ids decide the
  // order inside the sync window.
  for (std::uint8_t i = 0; i < frame.dlc; ++i) {
    const std::uint8_t index = frame.data[i];
    if (index == 0xff) continue;
    const auto it = produced_.find(index);
    if (it == produced_.end()) continue;
    if (auto produced_frame = it->second(index)) {
      (void)controller_.submit(
          *produced_frame, TxMode::kAutoRetransmit,
          [this](CanController::MailboxId, const CanFrame&, bool ok,
                 TimePoint) {
            if (ok) ++sync_sent_;
          });
    }
  }

  // Asynchronous window of this EC: [now + offset, EC end), gated so no
  // frame overruns the next TM.
  const TimePoint window_start = now + cfg_.async_window_offset;
  const TimePoint window_end =
      now + cfg_.elementary_cycle -
      cfg_.bus.bit_time() * kIntermissionBits;  // leave the TM a clean start
  sim_.schedule_at(window_start, [this, window_end] { pump_async(window_end); });
}

void FttSlave::pump_async(TimePoint window_end) {
  if (async_in_flight_ || async_.empty()) return;
  const CanFrame frame = async_.front();
  const Duration worst =
      worst_case_frame_duration(frame.dlc, frame.extended, cfg_.bus) +
      cfg_.bus.bit_time() * kIntermissionBits;
  if (sim_.now() + worst > window_end) return;

  const auto mb = controller_.submit(
      frame, TxMode::kAutoRetransmit,
      [this, window_end](CanController::MailboxId, const CanFrame&,
                         bool success, TimePoint) {
        async_in_flight_ = false;
        if (success) {
          ++async_sent_;
          async_.pop_front();
        }
        pump_async(window_end);
      });
  if (!mb) return;
  async_in_flight_ = true;
  const CanController::MailboxId mailbox = *mb;
  sim_.schedule_at(window_end - worst, [this, mailbox] {
    if (controller_.abort(mailbox)) async_in_flight_ = false;
  });
}

}  // namespace rtec
