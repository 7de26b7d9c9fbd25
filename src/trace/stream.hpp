#pragma once

#include <cstdint>
#include <vector>

#include "canbus/bus.hpp"
#include "util/time_types.hpp"

/// \file stream.hpp
/// Streaming (online) trace consumers.
///
/// The RTEB recorder (trace/binary.hpp) captures a run for analysis after
/// it; an intrusion detector on a real CAN node instead sees one frame at
/// a time and keeps bounded state *inside* the system. This header is the
/// per-delivery push interface those consumers implement;
/// trace/detectors.hpp provides the anomaly detectors built on it.
///
/// Contract for observers:
///  * on_frame() is called once per successful delivery, at end-of-frame
///    simulated time, in bus order (the tap filters corrupted attempts).
///  * finish() is called once when the run ends so time-windowed state can
///    flush; afterwards the observer is only read, never fed.
///  * Observers keep bounded state and never buffer the stream.
///  * Determinism: observers may derive decisions only from the event
///    stream itself (frame contents + simulated timestamps) so a scenario
///    with detectors stays bit-identical across shard/thread counts.

namespace rtec {
namespace trace {

/// One online consumer of delivered frames.
class StreamObserver {
 public:
  virtual ~StreamObserver() = default;

  StreamObserver() = default;
  StreamObserver(const StreamObserver&) = delete;
  StreamObserver& operator=(const StreamObserver&) = delete;

  /// One successful delivery (ev.success is always true here).
  virtual void on_frame(const CanBus::FrameEvent& ev) = 0;

  /// End of run at simulated time `now`; flush window state. Default: no-op.
  virtual void finish(TimePoint now) { (void)now; }
};

/// Feeds every successful bus delivery to a set of observers, in
/// registration order, with no buffering. Observers are not owned and must
/// outlive the tap (Scenario owns both when wired through it).
class StreamTap {
 public:
  explicit StreamTap(CanBus& bus) {
    bus.add_observer([this](const CanBus::FrameEvent& ev) {
      if (!ev.success) return;
      ++deliveries_;
      for (StreamObserver* o : observers_) o->on_frame(ev);
    });
  }

  StreamTap(const StreamTap&) = delete;
  StreamTap& operator=(const StreamTap&) = delete;

  void add(StreamObserver* obs) { observers_.push_back(obs); }

  /// Forwards end-of-run to every observer.
  void finish(TimePoint now) {
    for (StreamObserver* o : observers_) o->finish(now);
  }

  /// Successful deliveries seen (corrupted attempts are filtered out).
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }

 private:
  std::vector<StreamObserver*> observers_;
  std::uint64_t deliveries_ = 0;
};

}  // namespace trace
}  // namespace rtec
