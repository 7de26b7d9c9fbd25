#include "canbus/bus.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <tuple>

namespace rtec {

CanBus::CanBus(Simulator& sim, BusConfig cfg) : sim_{sim}, cfg_{cfg} {}

void CanBus::attach(CanController& c) {
  assert(c.bus_ == nullptr && "controller already attached to a bus");
  // The attach index is a bit index into every receiver set, and this is
  // its only guard, so it holds in every build type.
  if (controllers_.size() >= kMaxControllers) {
    std::fputs("CanBus::attach: more controllers than node ids\n", stderr);
    std::abort();
  }
  // Identifier uniqueness across nodes is a CAN requirement; the middleware
  // guarantees it via the TxNode field. The simulator enforces distinct
  // node ids here.
  for ([[maybe_unused]] const CanController* existing : controllers_)
    assert(existing->node() != c.node() && "duplicate node id on bus");
  c.bus_ = this;
  controllers_.push_back(&c);
  index_dirty_ = true;
  // A mailbox submitted before the attach competes from the next
  // arbitration on.
  if (c.arbitration_candidate()) {
    c.contending_ = true;
    contenders_.push_back(&c);
  }
}

double CanBus::utilization() const {
  const Duration elapsed = sim_.now() - TimePoint::origin();
  if (elapsed <= Duration::zero()) return 0.0;
  return static_cast<double>(busy_time_.ns()) / static_cast<double>(elapsed.ns());
}

void CanBus::notify_tx_request(CanController& c) {
  if (!c.contending_) {
    c.contending_ = true;
    contenders_.push_back(&c);
  }
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
  // and the next-lowest the superimposed rival. That is a min and a
  // second-min over the offering set, so the contender order cannot change
  // the result. Contenders with nothing to offer (drained, offline or
  // bus-off) leave the list; every path that gives a controller a
  // candidate again calls notify_tx_request.
  CanController* winner = nullptr;
  CanController::MailboxId winner_mb = 0;
  std::uint32_t winner_id = 0;
  CanController* rival = nullptr;
  CanController::MailboxId rival_mb = 0;
  std::size_t kept = 0;
  for (CanController* c : contenders_) {
    const auto mb = c->arbitration_candidate();
    if (!mb) {
      c->contending_ = false;
      continue;
    }
    contenders_[kept++] = c;
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
  contenders_.resize(kept);
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
  } else {
    ++frames_error_;
    error_time_ += occupied;
  }

  // Transmitters learn the attempt outcome first (their ACK/error
  // observation), then receivers get the frame (or the error) at
  // end-of-frame time, then observers.
  sender->on_tx_completed(mb, success, end);
  if (rival != nullptr) rival->on_tx_completed(rival_mb, success, end);
  if (success) {
    heal_receivers(sender, rival);
    deliver(frame, end, sender, rival);
  } else {
    for (CanController* c : controllers_) {
      if (c == sender || c == rival) continue;
      c->on_rx_error();
      if (c->rec_ > 0 && !c->healing_) {
        c->healing_ = true;
        heal_.push_back(c);
      }
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

void CanBus::heal_receivers(const CanController* sender,
                            const CanController* rival) {
  // Heals run before the frame's listeners, not interleaved with them. No
  // listener reads another controller's REC, so none can tell.
  std::size_t kept = 0;
  for (CanController* c : heal_) {
    if (c != sender && c != rival) c->heal_rec();
    if (c->rec_ > 0) {
      heal_[kept++] = c;
    } else {
      c->healing_ = false;
    }
  }
  heal_.resize(kept);
}

void CanBus::rebuild_acceptance_index() {
  const auto add_member = [](ReceiverSet& set, std::size_t i) {
    set[i / 64] |= std::uint64_t{1} << (i % 64);
  };
  promiscuous_ = {};
  mask_tables_.clear();
  // (mask, match & mask, attach index) of every filter, sorted into tables.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::size_t>> hits;
  for (std::size_t i = 0; i < controllers_.size(); ++i) {
    const auto& filters = controllers_[i]->filters_;
    if (filters.empty()) add_member(promiscuous_, i);
    for (const CanController::AcceptanceFilter& f : filters)
      hits.emplace_back(f.mask, f.match & f.mask, i);
  }
  std::sort(hits.begin(), hits.end());
  for (const auto& [mask, key, i] : hits) {
    if (mask_tables_.empty() || mask_tables_.back().mask != mask)
      mask_tables_.push_back(MaskTable{mask, {}, {}});
    MaskTable& table = mask_tables_.back();
    if (table.keys.empty() || table.keys.back() != key) {
      table.keys.push_back(key);
      table.receivers.emplace_back();
    }
    add_member(table.receivers.back(), i);
  }
  index_dirty_ = false;
}

CanBus::ReceiverSet CanBus::audience(std::uint32_t id) {
  if (index_dirty_) rebuild_acceptance_index();
  // accepts(id): no filters, or (id & mask) == (match & mask) for one.
  ReceiverSet set = promiscuous_;
  for (const MaskTable& table : mask_tables_) {
    const std::uint32_t key = id & table.mask;
    const auto it = std::lower_bound(table.keys.begin(), table.keys.end(), key);
    if (it == table.keys.end() || *it != key) continue;
    const ReceiverSet& hit = table.receivers[static_cast<std::size_t>(
        it - table.keys.begin())];
    for (std::size_t w = 0; w < set.size(); ++w) set[w] |= hit[w];
  }
  return set;
}

void CanBus::deliver(const CanFrame& frame, TimePoint end,
                     const CanController* sender, const CanController* rival) {
  ReceiverSet set = audience(frame.id);
  for (std::size_t w = 0; w < set.size(); ++w) {
    while (set[w] != 0) {
      const std::size_t i =
          w * 64 + static_cast<std::size_t>(std::countr_zero(set[w]));
      set[w] &= set[w] - 1;
      CanController* c = controllers_[i];
      if (c == sender || c == rival) continue;
      c->deliver(frame, end);
      if (!index_dirty_) continue;
      // A listener changed filters. Each controller reads its filters at
      // its own turn, so recompute the audience above attach index i.
      set = audience(frame.id);
      for (std::size_t k = 0; k <= w; ++k) {
        const std::size_t top = i - k * 64;  // drop bits 0..top of word k
        set[k] = top >= 63 ? 0 : set[k] & (~std::uint64_t{0} << (top + 1));
      }
    }
  }
}

}  // namespace rtec
