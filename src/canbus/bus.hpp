#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "canbus/can_types.hpp"
#include "canbus/controller.hpp"
#include "canbus/fault.hpp"
#include "canbus/frame.hpp"
#include "sim/simulator.hpp"
#include "util/time_types.hpp"

/// \file bus.hpp
/// Shared CAN bus with CSMA/CR arbitration, modelled at frame granularity
/// with bit-accurate durations.
///
/// Arbitration model: whenever the bus is free (after the 3-bit
/// intermission) every controller with a pending mailbox offers its
/// lowest-ID frame; the globally lowest identifier wins and transmits
/// non-preemptively. Requests arriving during a transmission wait for the
/// next arbitration point — exactly the granularity at which real CAN
/// decides bus access. Frame durations include the exact per-frame stuff
/// bits, so all timing properties (ΔT_wait, slot sizing, promotion windows)
/// are reproduced at 1-bit-time resolution.
///
/// Error semantics: a corrupted transmission occupies the bus up to the
/// error position plus a worst-case active error frame; all receivers
/// consistently drop it, and the sender is told the attempt failed. A
/// successful end-of-frame is delivered to every other online controller
/// and confirms to the sender that *all* operational nodes received it —
/// CAN's consistency property, which the paper exploits to suppress
/// redundant HRT copies.
///
/// Identifier collisions (attack scenarios): the middleware's TxNode field
/// rules out two *well-behaved* nodes offering the same identifier, but a
/// spoofing attacker (canbus/attack.hpp) forges exactly that. When two
/// controllers offer the same id at one arbitration point, both transmit
/// superimposed — arbitration cannot separate them — and the bus resolves
/// it the way real CAN does: at the first serialized bit where the two
/// frames differ, one node reads back the complement of what it drove and
/// signals an error; the attempt is corrupted at that bit position and
/// both transmitters take the tx-error hit. If the two frames are
/// bit-identical the transmissions superimpose cleanly: one frame appears
/// on the wire and both senders see it acknowledged. The deterministic
/// "primary" (the FrameEvent's sender) is the lower NodeId.
///
/// Fan-out: an occupancy costs work in proportion to the controllers it
/// concerns. Arbitration polls only the contender list (controllers that
/// asked to transmit since they last had nothing to offer), a good frame
/// reaches only its audience, looked up in an acceptance index compiled
/// from every controller's filters, and only controllers whose REC may be
/// above 0 are healed. Winners, deliveries, delivery order and REC values
/// are those of a scan over every controller in attach order.

namespace rtec {

class CanBus {
 public:
  /// One completed bus occupancy (frame attempt), for observers.
  struct FrameEvent {
    NodeId sender = 0;
    CanFrame frame;
    TimePoint start;       ///< SOF time
    TimePoint end;         ///< end of frame / error delimiter
    bool success = false;  ///< false: corrupted, consistently dropped
    int wire_bits = 0;     ///< bits the bus was occupied (incl. error frame)
    int attempt = 0;       ///< sender-side attempt number
    /// Two nodes offered this identifier simultaneously (spoofing attack
    /// meeting its victim); `sender` is the lower-NodeId transmitter.
    bool collision = false;
  };
  using Observer = std::function<void(const FrameEvent&)>;

  /// Receiver sets hold one bit per attach index. Node ids are distinct on
  /// a bus and at most kMaxNodeId, so no bus holds more controllers.
  static constexpr std::size_t kMaxControllers = std::size_t{kMaxNodeId} + 1;

  explicit CanBus(Simulator& sim, BusConfig cfg = {});

  CanBus(const CanBus&) = delete;
  CanBus& operator=(const CanBus&) = delete;

  /// Attaches a controller; the bus does not own it. Aborts, in every build
  /// type, beyond kMaxControllers.
  void attach(CanController& c);

  /// Installs the fault model (not owned); nullptr = fault-free.
  void set_fault_model(FaultModel* faults) { faults_ = faults; }

  void add_observer(Observer o) { observers_.push_back(std::move(o)); }

  [[nodiscard]] const BusConfig& config() const { return cfg_; }
  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] bool idle() const { return state_ == State::kIdle; }

  // --- accounting (over the whole run) ---
  [[nodiscard]] Duration busy_time() const { return busy_time_; }
  [[nodiscard]] Duration error_time() const { return error_time_; }
  [[nodiscard]] std::uint64_t frames_ok() const { return frames_ok_; }
  [[nodiscard]] std::uint64_t frames_error() const { return frames_error_; }

  /// Fraction of [0, now) the bus carried anything (frames or error frames).
  [[nodiscard]] double utilization() const;

  /// Called by a controller that may have a frame to offer: a mailbox became
  /// pending or changed its id, or the controller came back online or out
  /// of bus-off. It joins the contender list.
  void notify_tx_request(CanController& c);

  /// Called by an attached controller whose acceptance filters changed.
  void notify_filters_changed() { index_dirty_ = true; }

 private:
  enum class State { kIdle, kTransmitting, kIntermission };

  /// One bit per attach index.
  using ReceiverSet = std::array<std::uint64_t, kMaxControllers / 64>;

  /// Every filter with one mask, compiled: the sorted distinct
  /// `match & mask` keys and, per key, the controllers holding such a filter.
  struct MaskTable {
    std::uint32_t mask = 0;
    std::vector<std::uint32_t> keys;
    std::vector<ReceiverSet> receivers;
  };

  void schedule_arbitration();
  void arbitrate();
  /// `rival` (nullable) is a second transmitter that offered the same
  /// identifier and drove the bus superimposed with `sender`.
  void finish_transmission(CanController* sender, CanController::MailboxId mb,
                           CanFrame frame, TimePoint start, bool success,
                           int wire_bits, int attempt, CanController* rival,
                           CanController::MailboxId rival_mb);
  void end_intermission();

  void rebuild_acceptance_index();
  /// Controllers whose filters accept `id` (rebuilds a dirty index first).
  [[nodiscard]] ReceiverSet audience(std::uint32_t id);
  /// Decrements the REC of every heal-list member other than the two
  /// transmitters; members whose REC is 0 leave the list.
  void heal_receivers(const CanController* sender, const CanController* rival);
  /// Hands a good frame to its audience in attach order.
  void deliver(const CanFrame& frame, TimePoint end, const CanController* sender,
               const CanController* rival);

  Simulator& sim_;
  BusConfig cfg_;
  std::vector<CanController*> controllers_;  ///< attach order
  /// Controllers that may offer a frame; members found with nothing to
  /// offer leave at the next arbitration.
  std::vector<CanController*> contenders_;
  /// Controllers whose REC may be above 0.
  std::vector<CanController*> heal_;
  /// Acceptance index: controllers without filters, plus one table per
  /// distinct mask. Dirty after attach or any filter change.
  ReceiverSet promiscuous_{};
  std::vector<MaskTable> mask_tables_;
  bool index_dirty_ = true;
  FaultModel* faults_ = nullptr;
  std::vector<Observer> observers_;

  State state_ = State::kIdle;
  bool arbitration_scheduled_ = false;

  Duration busy_time_ = Duration::zero();
  Duration error_time_ = Duration::zero();
  std::uint64_t frames_ok_ = 0;
  std::uint64_t frames_error_ = 0;
};

}  // namespace rtec
