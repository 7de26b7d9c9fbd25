#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "canbus/can_types.hpp"
#include "canbus/frame.hpp"
#include "util/expected.hpp"
#include "util/time_types.hpp"

/// \file controller.hpp
/// Model of a CAN communication controller as seen by the middleware: a
/// small set of TX mailboxes with abort capability, hardware acceptance
/// filtering on the 29-bit identifier, per-attempt TX result notification,
/// and the standard transmit/receive error counters with error-passive and
/// bus-off behaviour.
///
/// Two properties of real controllers matter for the paper's protocol and
/// are modelled faithfully:
///  * a frame whose transmission has started cannot be aborted (this is why
///    HRT slots must be extended by ΔT_wait), and
///  * the transmitter knows whether the frame was received consistently
///    (CAN ACK + error signalling), which enables suppressing redundant
///    HRT copies and reclaiming slot bandwidth.

namespace rtec {

class CanBus;
class Simulator;

/// Transmission mode of a mailbox.
enum class TxMode : std::uint8_t {
  kAutoRetransmit,  ///< controller retries on error until success or abort
  kSingleShot,      ///< one attempt; failure is reported to the owner
};

enum class TxError : std::uint8_t {
  kNoFreeMailbox,
  kBusOff,
  kOffline,
  kInvalidFrame,
};

class CanController {
 public:
  static constexpr std::size_t kTxMailboxes = 4;
  /// TEC threshold for bus-off (ISO 11898 value).
  static constexpr int kBusOffThreshold = 256;

  struct Config {
    /// When positive, the controller re-joins the bus this long after
    /// entering bus-off (models the 128 x 11-recessive-bit recovery
    /// sequence; ~1.41 ms at 1 Mbit/s). Zero disables auto-recovery (the
    /// application must call reset_errors()).
    Duration auto_recovery_delay = Duration::zero();
  };

  using MailboxId = std::size_t;

  /// Hardware acceptance filter: accept when (id & mask) == (match & mask).
  struct AcceptanceFilter {
    std::uint32_t match = 0;
    std::uint32_t mask = 0;
  };

  /// Called for every accepted received frame, at end-of-frame time.
  using RxHandler = std::function<void(const CanFrame&, TimePoint)>;
  /// Called when a submission leaves its mailbox: success, single-shot
  /// failure, or abort-by-bus-off.
  using TxResultHandler =
      std::function<void(MailboxId, const CanFrame&, bool success, TimePoint)>;

  CanController(Simulator& sim, NodeId node) : CanController(sim, node, Config{}) {}
  CanController(Simulator& sim, NodeId node, Config cfg);

  CanController(const CanController&) = delete;
  CanController& operator=(const CanController&) = delete;

  [[nodiscard]] NodeId node() const { return node_; }

  /// Registers an RX listener; every accepted frame is delivered to all
  /// listeners in registration order (middleware and services such as clock
  /// sync share one controller per node).
  void add_rx_listener(RxHandler h) { rx_listeners_.push_back(std::move(h)); }

  /// A controller without filters accepts every frame. A change takes
  /// effect for the frame being delivered when this controller's turn
  /// (attach order) has not come yet.
  void add_acceptance_filter(AcceptanceFilter f);
  void clear_acceptance_filters();

  /// Queues a frame for transmission. The frame competes in bus arbitration
  /// with the other mailboxes of this and every other controller.
  /// `on_result` (optional) is invoked when the submission leaves its
  /// mailbox: success, single-shot failure, or abort-by-bus-off.
  Expected<MailboxId, TxError> submit(const CanFrame& frame, TxMode mode,
                                      TxResultHandler on_result = nullptr);

  /// Aborts a pending mailbox. Returns false when the mailbox is empty or
  /// its frame is currently on the wire (non-preemptive transmission).
  bool abort(MailboxId mb);

  /// Rewrites the identifier of a pending mailbox (the EDF promotion path:
  /// cheaper than abort+resubmit on real controllers). Fails like abort()
  /// when the frame is on the wire.
  bool rewrite_id(MailboxId mb, std::uint32_t new_id);

  [[nodiscard]] bool mailbox_pending(MailboxId mb) const;
  [[nodiscard]] bool has_free_mailbox() const;
  [[nodiscard]] std::size_t pending_count() const;

  /// Node crash / restart. Going offline clears all mailboxes silently.
  void set_online(bool online);
  [[nodiscard]] bool online() const { return online_; }

  [[nodiscard]] int tec() const { return tec_; }
  [[nodiscard]] int rec() const { return rec_; }
  [[nodiscard]] bool bus_off() const { return bus_off_; }
  [[nodiscard]] bool error_passive() const { return tec_ >= 128 || rec_ >= 128; }

  /// Recovers from bus-off (models the 128*11-recessive-bit recovery, which
  /// the middleware initiates explicitly).
  void reset_errors();

  // ------- interface used by CanBus (not by application code) -------

  /// Lowest-ID pending mailbox eligible for arbitration, if any.
  [[nodiscard]] std::optional<MailboxId> arbitration_candidate() const;
  [[nodiscard]] const CanFrame& mailbox_frame(MailboxId mb) const;
  [[nodiscard]] int mailbox_attempts(MailboxId mb) const;

  void on_tx_started(MailboxId mb);
  void on_tx_completed(MailboxId mb, bool success, TimePoint now);
  /// A good frame this controller's filters accept: every RX listener gets
  /// it (nothing happens while offline or bus-off).
  void deliver(const CanFrame& frame, TimePoint now);
  /// A good frame was received (accepted or not): heals the receive error
  /// counter by one.
  void heal_rec();
  /// A corrupted frame was observed on the bus (this node was receiving):
  /// bumps the receive error counter (ISO 11898 rule: +1 per receive
  /// error, decremented on each good reception).
  void on_rx_error();

 private:
  friend class CanBus;

  struct Mailbox {
    bool pending = false;
    bool transmitting = false;
    CanFrame frame;
    TxMode mode = TxMode::kAutoRetransmit;
    int attempts = 0;
    TxResultHandler on_result;
  };

  [[nodiscard]] bool accepts(std::uint32_t id) const;
  void release_mailbox(MailboxId mb, bool success, TimePoint now);
  void enter_bus_off(TimePoint now);

  /// Any mailbox state change may move the arbitration winner, so drop the
  /// memoised candidate (recomputed on the next bus scan).
  void invalidate_arb_cache() { arb_cache_valid_ = false; }

  Simulator& sim_;
  NodeId node_;
  Config cfg_;
  CanBus* bus_ = nullptr;  // set by CanBus::attach
  std::array<Mailbox, kTxMailboxes> mailboxes_{};
  /// Memoised arbitration_candidate() result. The bus polls only its
  /// contenders, but most of them lost the last arbitration and have not
  /// touched their mailboxes since, so their poll is one branch instead of
  /// a mailbox scan.
  mutable std::optional<MailboxId> arb_cache_;
  mutable bool arb_cache_valid_ = false;
  std::vector<AcceptanceFilter> filters_;
  std::vector<RxHandler> rx_listeners_;
  bool online_ = true;
  bool bus_off_ = false;
  /// Membership of the bus's contender and REC-heal lists (kept by CanBus).
  bool contending_ = false;
  bool healing_ = false;
  int tec_ = 0;
  int rec_ = 0;
};

}  // namespace rtec
