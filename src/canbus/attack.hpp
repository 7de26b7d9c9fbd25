#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "canbus/bus.hpp"
#include "canbus/can_types.hpp"
#include "canbus/controller.hpp"
#include "canbus/frame.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"
#include "util/time_types.hpp"

/// \file attack.hpp
/// Adversarial workloads on the bus — the attack side of the robustness
/// layer (the detector side lives in trace/detectors.hpp).
///
/// The paper's fault model (fault.hpp) is benign: transmissions get
/// corrupted, but nobody *lies*. An adversary on a CAN bus can do strictly
/// more: inject frames under forged identifiers (spoofing a legitimate
/// publisher steals its arbitration slot and corrupts consumer state),
/// flood fuzzed identifiers, replay previously observed traffic, and
/// silence a compromised node so its streams vanish (message suspension).
/// These are the four timing-visible attack families of the CAN anomaly
/// detection literature (Pollicino/Stabili/Marchetti, arXiv 2307.04561),
/// reproduced here as first-class scenario ingredients.
///
/// Design rules:
///  * Attacks go through the REAL submission path. Every injected frame is
///    submitted to a CanController attached to the victim bus, competes in
///    CSMA/CR arbitration and occupies exact stuffed wire time — an attack
///    cannot do anything the bus physics would not allow. (Same-identifier
///    arbitration collisions are defined behavior; see bus.hpp.)
///  * Determinism: attack timing is derived exclusively from the segment's
///    simulated clock and an explicitly seeded Rng — never a wall clock —
///    so attack scenarios stay bit-identical across shard/thread counts,
///    the property every differential test in this repo leans on.
///  * Bounded state: the replay attack records up to a configured cap.
///
/// Lifecycle: construct an attack with its Config, then arm() it once with
/// an AttackContext (Scenario::install_attack does both and owns the
/// pieces). arm() schedules all activity; the context outlives the attack.

namespace rtec {

/// Everything an armed attack may touch. All referenced objects must
/// outlive the attack; `attacker` is a controller attached to `bus` whose
/// NodeId is the adversary's own (forged identifiers are per-frame).
struct AttackContext {
  Simulator* sim = nullptr;
  CanBus* bus = nullptr;
  CanController* attacker = nullptr;
  /// Seed for this attack's private Rng stream.
  std::uint64_t seed = 0;
  /// Looks up another controller on the SAME segment by node id (used by
  /// message suspension to silence its victim); may be empty when no
  /// victim lookup is available.
  std::function<CanController*(NodeId)> victim_controller;
};

/// One adversarial behavior. Implementations schedule all their activity
/// in arm() and keep online counters; they never buffer unbounded state.
class AttackModel {
 public:
  virtual ~AttackModel() = default;

  AttackModel() = default;
  AttackModel(const AttackModel&) = delete;
  AttackModel& operator=(const AttackModel&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Schedules the attack's activity on `ctx.sim`. Called exactly once.
  virtual void arm(const AttackContext& ctx) = 0;

  /// Frames handed to the attacker controller's submission path.
  [[nodiscard]] std::uint64_t frames_injected() const { return injected_; }
  /// Injected submissions that completed successfully on the wire.
  [[nodiscard]] std::uint64_t frames_delivered() const { return delivered_; }

 protected:
  /// Submits one single-shot frame through the attacker controller and
  /// keeps the counters. Returns false when the controller refused
  /// (mailboxes full / bus-off — the attack is being throttled by the bus
  /// itself, which is part of the model).
  bool inject(const AttackContext& ctx, const CanFrame& frame);

 private:
  std::uint64_t injected_ = 0;
  std::uint64_t delivered_ = 0;
};

/// Masquerade / targeted injection: periodically submits frames under a
/// forged identifier — typically the exact identifier of a legitimate
/// periodic stream, so the victim id's observed rate doubles and its
/// inter-arrival process collapses. With `period` well below the victim's
/// the same model is the study's "injection" (flooding) attack. Every
/// forged frame carries `kDlc` zero bytes.
class SpoofingAttack final : public AttackModel {
 public:
  static constexpr std::uint8_t kDlc = 8;

  struct Config {
    std::uint32_t id = 0;  ///< full forged 29-bit identifier
    TimePoint from;
    TimePoint to;
    Duration period = Duration::milliseconds(10);
    /// Uniform per-injection phase noise in [0, jitter] after the nominal
    /// point (seeded).
    Duration jitter = Duration::zero();
  };

  explicit SpoofingAttack(Config cfg) : cfg_{cfg} {}

  [[nodiscard]] const char* name() const override { return "spoof"; }
  void arm(const AttackContext& ctx) override;

 private:
  void fire(const AttackContext& ctx, TimePoint slot);

  Config cfg_;
  Rng rng_{0};  ///< re-seeded from the context in arm()
};

/// Fuzzing / random injection: a Poisson stream of frames with seeded
/// random identifiers and payloads. Every identifier field is drawn: any
/// SRT or NRT priority (never HRT's 0), any TxNode, and any application
/// etag — the infrastructure etags (clock sync, binding protocol) stay
/// off-limits so the attack stresses timing, not parsers.
class FuzzingAttack final : public AttackModel {
 public:
  struct Config {
    TimePoint from;
    TimePoint to;
    /// Mean gap of the exponential inter-injection time.
    Duration mean_gap = Duration::milliseconds(5);
  };

  explicit FuzzingAttack(Config cfg) : cfg_{cfg} {}

  [[nodiscard]] const char* name() const override { return "fuzz"; }
  void arm(const AttackContext& ctx) override;

 private:
  void fire(const AttackContext& ctx);

  Config cfg_;
  Rng rng_{0};  ///< re-seeded from the context in arm()
};

/// Replay: records successful frames matching an (match, mask) identifier
/// filter during [record_from, record_to), then re-submits the recorded
/// sequence starting at replay_at with the original relative spacing.
/// Recording is bounded by `kMaxFrames`.
class ReplayAttack final : public AttackModel {
 public:
  static constexpr std::size_t kMaxFrames = 256;

  struct Config {
    TimePoint record_from;
    TimePoint record_to;
    /// Start of the replayed sequence; must be >= record_to.
    TimePoint replay_at;
    std::uint32_t id_match = 0;  ///< accept when (id & mask) == (match & mask)
    std::uint32_t id_mask = 0;   ///< 0 = record everything
  };

  explicit ReplayAttack(Config cfg) : cfg_{cfg} {}

  [[nodiscard]] const char* name() const override { return "replay"; }
  void arm(const AttackContext& ctx) override;

  /// Frames captured during the recording window (bounded by kMaxFrames).
  [[nodiscard]] std::size_t frames_recorded() const { return tape_.size(); }

 private:
  struct Recorded {
    CanFrame frame;
    Duration offset;  ///< end-of-frame time relative to record_from
  };

  Config cfg_;
  std::vector<Recorded> tape_;
};

/// Message suspension: a compromised node stops transmitting for a window
/// — its periodic streams simply vanish from the bus (the timing anomaly
/// is the *absence* of traffic, the hardest case for inter-arrival
/// detectors). Modelled as the victim controller going offline at `from`
/// and rejoining at `to`; pending victim traffic is lost, exactly like a
/// crashed node in the paper's temporary-node-fault model.
class SuspensionAttack final : public AttackModel {
 public:
  struct Config {
    NodeId victim = 0;
    TimePoint from;
    TimePoint to;
  };

  explicit SuspensionAttack(Config cfg) : cfg_{cfg} {}

  [[nodiscard]] const char* name() const override { return "suspend"; }
  void arm(const AttackContext& ctx) override;

 private:
  Config cfg_;
};

}  // namespace rtec
