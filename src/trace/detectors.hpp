#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "canbus/bus.hpp"
#include "util/stats.hpp"
#include "util/time_types.hpp"

/// \file detectors.hpp
/// Streaming timing-based anomaly detectors for CAN traffic — the defender
/// side of the robustness layer (the attacker side is canbus/attack.hpp).
///
/// All three detectors follow the evaluation methodology of the CAN IDS
/// benchmarking study (Pollicino/Stabili/Marchetti, arXiv 2307.04561):
/// message *timing* is the only feature, because periodic CAN streams make
/// inter-arrival time (IAT) a strong invariant and payload inspection
/// requires per-vehicle DBC knowledge. Each detector has an explicit
/// training phase [start of run, train_until) in which it learns per-ID
/// statistics from attack-free traffic, then switches to detection:
///
///  * MeanIatGate    — per-ID mean/σ gate: alarm when an IAT deviates from
///                     the trained mean by more than k·σ.
///  * CusumDetector  — two-sided CUSUM over standardized IATs: integrates
///                     small persistent shifts a per-frame gate misses.
///  * WindowFrequencyDetector — per-ID frame counts over tumbling windows
///                     checked against the trained [min, max] band; the
///                     only one of the three that can flag the *absence*
///                     of traffic (message suspension) promptly.
///
/// Common rules:
///  * Input: Scenario::detectors() feeds the bank one on_frame() per
///    successful delivery, at end-of-frame simulated time, in bus order
///    (corrupted attempts are filtered out), and flush_streams() calls
///    finish() once when the run ends; afterwards a detector is only read.
///  * Bounded state: at most `kMaxTrackedIds` identifiers are learned
///    (admission closes when training ends); per-ID state is O(1). IDs
///    that arrive in detection without a trained profile raise an
///    `unknown-id` alarm (this is what catches fuzzing) and are counted,
///    never stored.
///  * Determinism: per-ID state lives in an id-sorted vector (no hash
///    containers), decisions depend only on the event stream, and there is
///    no randomness — detector output is part of the byte-identical trace
///    contract.
///  * Online aggregation only: Welford moments and counters; the stream is
///    never buffered.

namespace rtec {
namespace trace {

/// One detection event. `score` is the detector-specific anomaly
/// magnitude (gate: |z|; CUSUM: the decision statistic; window: band
/// distance in frames; unknown-id alarms: 0).
struct Alarm {
  const char* detector = nullptr;
  std::uint32_t id = 0;  ///< offending CAN identifier
  TimePoint at;          ///< simulated time the alarm fired
  double score = 0.0;
  bool unknown_id = false;  ///< identifier had no trained profile
};

using AlarmSink = std::function<void(const Alarm&)>;

/// Base class: training window, alarm accounting, alarm sink.
class Detector {
 public:
  explicit Detector(TimePoint train_until) : train_until_{train_until} {}
  virtual ~Detector() = default;

  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;

  /// One successful delivery (ev.success is always true here).
  virtual void on_frame(const CanBus::FrameEvent& ev) = 0;
  /// End of run at simulated time `now`; flush window state. Default: no-op.
  virtual void finish(TimePoint now) { (void)now; }

  /// Receives every alarm as it fires (on top of the built-in counters).
  void set_alarm_sink(AlarmSink sink) { sink_ = std::move(sink); }

  [[nodiscard]] TimePoint train_until() const { return train_until_; }
  [[nodiscard]] std::uint64_t alarm_count() const { return alarms_; }
  [[nodiscard]] std::optional<TimePoint> first_alarm() const {
    return first_alarm_;
  }
  /// Detection-phase arrivals whose identifier had no trained profile.
  [[nodiscard]] std::uint64_t unknown_id_frames() const { return unknown_; }

 protected:
  [[nodiscard]] bool in_training(TimePoint t) const {
    return t < train_until_;
  }

  void raise(std::uint32_t id, TimePoint at, double score,
             bool unknown_id = false) {
    ++alarms_;
    if (unknown_id) ++unknown_;
    if (!first_alarm_) first_alarm_ = at;
    if (sink_) sink_(Alarm{name(), id, at, score, unknown_id});
  }

 private:
  TimePoint train_until_;
  AlarmSink sink_;
  std::uint64_t alarms_ = 0;
  std::uint64_t unknown_ = 0;
  std::optional<TimePoint> first_alarm_;
};

/// Identifiers each detector learns at most.
inline constexpr std::size_t kMaxTrackedIds = 256;
/// Training IATs the gate and CUSUM need per ID; fewer ⇒ the ID counts as
/// unknown in detection.
inline constexpr std::size_t kMinTrainSamples = 8;
/// σ floor of the gate and CUSUM, as a fraction of the trained mean.
inline constexpr double kRelFloor = 0.05;

/// Effective σ used to standardize IATs: perfectly periodic training
/// traffic has σ = 0, which would make any deviation infinitely anomalous,
/// so σ is floored at `kRelFloor` times the trained mean.
[[nodiscard]] double effective_sigma(double mean, double stddev);

/// The inter-arrival path the gate and CUSUM share: per-ID admission
/// (closed when training ends), the first sighting, training of the IAT
/// moments, and the unknown-id alarm for an ID without a trained profile.
/// Each detection-phase IAT of a trained ID reaches decide(), the one
/// thing the two detectors do differently.
class IatDetector : public Detector {
 public:
  using Detector::Detector;

  void on_frame(const CanBus::FrameEvent& ev) final;

  [[nodiscard]] std::size_t tracked_ids() const { return ids_.size(); }

 protected:
  struct Entry {
    std::uint32_t id = 0;
    bool has_last = false;
    TimePoint last;
    OnlineStats train;  ///< IAT moments accumulated during training
    double s_pos = 0.0;  ///< CUSUM decision statistics (unused by the gate)
    double s_neg = 0.0;
  };

  /// One detection-phase arrival of a trained ID at `t`: `dev` is the IAT
  /// minus the trained mean, `sigma` the effective σ.
  virtual void decide(Entry& e, double dev, double sigma, TimePoint t) = 0;

 private:
  std::vector<Entry> ids_;  ///< sorted by id; bounded by kMaxTrackedIds
};

/// Per-frame mean/σ gate on inter-arrival times.
class MeanIatGate final : public IatDetector {
 public:
  /// Alarm when |dt - mean| > kSigmas · σ_eff.
  static constexpr double kSigmas = 4.0;

  struct Config {
    TimePoint train_until;
  };

  explicit MeanIatGate(Config cfg) : IatDetector{cfg.train_until} {}

  [[nodiscard]] const char* name() const override { return "iat_gate"; }

 private:
  void decide(Entry& e, double dev, double sigma, TimePoint t) override;
};

/// Two-sided CUSUM on standardized IATs, per identifier. Each arrival
/// contributes z = (dt - mean)/σ_eff; the decision statistics accumulate
/// S⁺ = max(0, S⁺ + z - kDrift) and S⁻ = max(0, S⁻ - z - kDrift) and
/// alarm (then reset the tripped side) when either exceeds `kThreshold`.
/// Catches sustained small rate shifts that stay inside a per-frame gate.
class CusumDetector final : public IatDetector {
 public:
  static constexpr double kDrift = 0.5;      ///< slack per sample, in σ units
  static constexpr double kThreshold = 8.0;  ///< alarm level for S⁺ / S⁻

  struct Config {
    TimePoint train_until;
  };

  explicit CusumDetector(Config cfg) : IatDetector{cfg.train_until} {}

  [[nodiscard]] const char* name() const override { return "cusum"; }

 private:
  void decide(Entry& e, double dev, double sigma, TimePoint t) override;
};

/// Per-ID frame counts over tumbling windows, checked against the trained
/// per-ID [min, max] count band (± kMargin). Windows are aligned to the
/// time origin and advance with the event stream; finish() closes the
/// trailing windows. A window with zero frames from a trained ID is a
/// first-class observation — this is the detector that flags message
/// suspension within one window length.
class WindowFrequencyDetector final : public Detector {
 public:
  /// Allowed slack in frames on both sides of the trained band.
  static constexpr std::int64_t kMargin = 1;
  /// Trained windows required before an ID's band is enforced.
  static constexpr std::uint64_t kMinTrainWindows = 4;

  struct Config {
    TimePoint train_until;
    Duration window = Duration::milliseconds(100);
  };

  explicit WindowFrequencyDetector(Config cfg);

  [[nodiscard]] const char* name() const override { return "win_freq"; }
  void on_frame(const CanBus::FrameEvent& ev) override;
  void finish(TimePoint now) override;

  [[nodiscard]] std::size_t tracked_ids() const { return ids_.size(); }

 private:
  struct Entry {
    std::uint32_t id = 0;
    std::uint64_t first_window = 0;  ///< windows before first sight ignored
    std::uint64_t train_windows = 0;
    std::int64_t min_count = 0;
    std::int64_t max_count = 0;
    std::int64_t count = 0;  ///< frames in the currently open window
  };

  /// Closes every window that ends at or before `t`.
  void close_windows_before(TimePoint t);
  void close_one_window();

  Config cfg_;
  std::vector<Entry> ids_;
  std::uint64_t open_window_ = 0;  ///< index of the currently open window
};

/// Owns a set of detectors and fans the stream into all of them; the unit
/// Scenario installs per network and feeds from its bus observer.
class DetectorBank {
 public:
  Detector& add(std::unique_ptr<Detector> d) {
    detectors_.push_back(std::move(d));
    return *detectors_.back();
  }

  /// One successful delivery, counted and fed to every detector in order.
  void on_frame(const CanBus::FrameEvent& ev) {
    ++deliveries_;
    for (const auto& d : detectors_) d->on_frame(ev);
  }
  void finish(TimePoint now) {
    for (const auto& d : detectors_) d->finish(now);
  }

  /// Successful deliveries fed to the bank so far.
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::size_t size() const { return detectors_.size(); }
  [[nodiscard]] Detector& at(std::size_t i) { return *detectors_[i]; }
  [[nodiscard]] const Detector& at(std::size_t i) const {
    return *detectors_[i];
  }

 private:
  std::vector<std::unique_ptr<Detector>> detectors_;
  std::uint64_t deliveries_ = 0;
};

}  // namespace trace
}  // namespace rtec
