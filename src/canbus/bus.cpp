#include "canbus/bus.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rtec {

CanBus::CanBus(Simulator& sim, BusConfig cfg) : sim_{sim}, cfg_{cfg} {}

void CanBus::attach(CanController& c) {
  assert(c.bus_ == nullptr && "controller already attached to a bus");
  // Identifier uniqueness across nodes is a CAN requirement; the middleware
  // guarantees it via the TxNode field. The simulator enforces distinct
  // node ids here.
  for ([[maybe_unused]] const CanController* existing : controllers_)
    assert(existing->node() != c.node() && "duplicate node id on bus");
  c.bus_ = this;
  controllers_.push_back(&c);
}

void CanBus::set_profiler(SpanProfiler* p, const std::string& prefix) {
  span_ok_ = p != nullptr ? p->slot(prefix + ".occupancy_ok") : nullptr;
  span_error_ = p != nullptr ? p->slot(prefix + ".occupancy_error") : nullptr;
}

double CanBus::utilization() const {
  const Duration elapsed = sim_.now() - TimePoint::origin();
  if (elapsed <= Duration::zero()) return 0.0;
  return static_cast<double>(busy_time_.ns()) / static_cast<double>(elapsed.ns());
}

void CanBus::notify_tx_request() {
  if (state_ != State::kIdle) return;  // picked up at the next idle point
  schedule_arbitration();
}

void CanBus::schedule_arbitration() {
  if (arbitration_scheduled_) return;
  arbitration_scheduled_ = true;
  // Zero-delay event: all submissions that happen at the same simulated
  // nanosecond participate in the same arbitration (they all "see" the SOF).
  sim_.schedule_after(Duration::zero(), [this] {
    arbitration_scheduled_ = false;
    if (state_ == State::kIdle) arbitrate();
  });
}

void CanBus::arbitrate() {
  assert(state_ == State::kIdle);

  // Winner = globally lowest identifier; among several nodes offering the
  // SAME identifier (a spoofing attacker meeting its victim — see the
  // header), the lowest NodeId is the deterministic primary transmitter
  // and the next-lowest the superimposed rival.
  CanController* winner = nullptr;
  CanController::MailboxId winner_mb = 0;
  std::uint32_t winner_id = 0;
  CanController* rival = nullptr;
  CanController::MailboxId rival_mb = 0;
  for (CanController* c : controllers_) {
    const auto mb = c->arbitration_candidate();
    if (!mb) continue;
    const std::uint32_t id = c->mailbox_frame(*mb).id;
    if (winner == nullptr || id < winner_id) {
      winner = c;
      winner_mb = *mb;
      winner_id = id;
      rival = nullptr;
    } else if (id == winner_id) {
      if (c->node() < winner->node()) {
        if (rival == nullptr || winner->node() < rival->node()) {
          rival = winner;
          rival_mb = winner_mb;
        }
        winner = c;
        winner_mb = *mb;
      } else if (rival == nullptr || c->node() < rival->node()) {
        rival = c;
        rival_mb = *mb;
      }
    }
  }
  if (winner == nullptr) return;  // bus stays idle

  state_ = State::kTransmitting;
  winner->on_tx_started(winner_mb);
  const CanFrame frame = winner->mailbox_frame(winner_mb);
  const int attempt = winner->mailbox_attempts(winner_mb);
  const TimePoint start = sim_.now();
  const int frame_bits = frame_wire_bits(frame);

  bool success = true;
  int occupied_bits = frame_bits;
  if (rival != nullptr) {
    rival->on_tx_started(rival_mb);
    const int diff_bit =
        frame_first_difference_bit(frame, rival->mailbox_frame(rival_mb));
    if (diff_bit > 0) {
      // One of the two reads back the complement of what it drove at the
      // first differing bit and signals an error there. Bit positions in
      // the unstuffed region approximate the stuffed wire position at
      // frame-level fidelity; the result is deterministic either way.
      success = false;
      occupied_bits = std::min(diff_bit, frame_bits) + kErrorFrameBits;
    }
    // Bit-identical frames superimpose cleanly: one frame on the wire,
    // both senders see the ACK (the normal fault path below still applies).
  }
  if (success && faults_ != nullptr) {
    const FaultContext ctx{frame, winner->node(), start, attempt};
    if (const auto pos = faults_->corrupt(ctx)) {
      success = false;
      const double frac = std::clamp(*pos, 0.0, 1.0);
      const int error_at =
          std::max(1, static_cast<int>(std::ceil(frac * frame_bits)));
      occupied_bits = error_at + kErrorFrameBits;
    }
  }

  const Duration occupied = cfg_.bit_time() * occupied_bits;
  sim_.schedule_after(occupied, [this, winner, winner_mb, frame, start, success,
                                 occupied_bits, attempt, rival, rival_mb] {
    finish_transmission(winner, winner_mb, frame, start, success, occupied_bits,
                        attempt, rival, rival_mb);
  });
}

void CanBus::finish_transmission(CanController* sender,
                                 CanController::MailboxId mb, CanFrame frame,
                                 TimePoint start, bool success, int wire_bits,
                                 int attempt, CanController* rival,
                                 CanController::MailboxId rival_mb) {
  assert(state_ == State::kTransmitting);
  const TimePoint end = sim_.now();
  const Duration occupied = end - start;
  busy_time_ += occupied;
  if (success) {
    ++frames_ok_;
    if (span_ok_ != nullptr) span_ok_->record(occupied.ns());
  } else {
    ++frames_error_;
    error_time_ += occupied;
    if (span_error_ != nullptr) span_error_->record(occupied.ns());
  }

  // Transmitters learn the attempt outcome first (their ACK/error
  // observation), then receivers get the frame (or the error) at
  // end-of-frame time, then observers.
  sender->on_tx_completed(mb, success, end);
  if (rival != nullptr) rival->on_tx_completed(rival_mb, success, end);
  for (CanController* c : controllers_) {
    if (c == sender || c == rival) continue;
    if (success) {
      c->on_rx(frame, end);
    } else {
      c->on_rx_error();
    }
  }
  const FrameEvent ev{sender->node(), frame,   start,
                      end,            success, wire_bits,
                      attempt,        rival != nullptr};
  for (const Observer& o : observers_) o(ev);

  state_ = State::kIntermission;
  sim_.schedule_after(cfg_.bit_time() * kIntermissionBits,
                      [this] { end_intermission(); });
}

void CanBus::end_intermission() {
  assert(state_ == State::kIntermission);
  state_ = State::kIdle;
  schedule_arbitration();
}

}  // namespace rtec
