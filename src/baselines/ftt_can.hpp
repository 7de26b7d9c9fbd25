#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "canbus/controller.hpp"
#include "sched/id_codec.hpp"
#include "sim/simulator.hpp"
#include "util/time_types.hpp"

/// \file ftt_can.hpp
/// FTT-CAN-like baseline (Almeida/Fonseca/Fonseca, RTSS'98 WIP; paper §4):
/// flexible time-triggered communication driven by a *master*.
///
/// Time is divided into Elementary Cycles (ECs). At the start of each EC
/// the master broadcasts a Trigger Message (TM) whose payload encodes
/// which synchronous streams must transmit in this EC (the master can
/// re-plan every cycle — that is the "flexible" part). The EC is split
/// into a synchronous window (the polled streams contend by their CAN
/// ids, all of which beat asynchronous ids) and an asynchronous window
/// for everything else.
///
/// The paper's criticism, which this model reproduces faithfully:
///  * the master is a single point of failure — if its node dies, NO
///    synchronous traffic flows at all (slaves only send when polled);
///  * asynchronous traffic may only start inside the async window with
///    room to finish before the next TM.
///
/// The TM encodes up to 8 stream indices (one byte each, 0xff = unused) —
/// enough for the comparison scenarios.

namespace rtec {

struct FttStream {
  std::uint8_t index = 0;   ///< identity used in the trigger message
  NodeId node = 0;          ///< producing node
  int dlc = 8;
  Duration period;          ///< master schedules the stream at this period
};

struct FttConfig {
  Duration elementary_cycle = Duration::milliseconds(5);
  /// Start of the asynchronous window within the EC (after TM + sync
  /// window).
  Duration async_window_offset = Duration::milliseconds(2);
  BusConfig bus{};
};

/// CAN id of the trigger message (most dominant id in the system).
inline constexpr std::uint32_t kFttTmId = 0x1;

/// The scheduling master: plans and broadcasts the TM each EC.
class FttMaster {
 public:
  FttMaster(Simulator& sim, CanController& controller, FttConfig cfg);

  /// Registers a synchronous stream the master will poll periodically.
  void add_stream(const FttStream& stream);

  void start();
  void stop();

  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

 private:
  void run_cycle();

  Simulator& sim_;
  CanController& controller_;
  FttConfig cfg_;
  std::vector<FttStream> streams_;
  std::vector<Duration> elapsed_;  ///< time since each stream's last poll
  Simulator::TimerHandle timer_;
  std::uint64_t cycles_ = 0;
  bool running_ = false;
};

/// A producing/consuming slave node.
class FttSlave {
 public:
  /// Supplies the payload when stream `index` is polled; nullopt = no
  /// fresh data (the polled slot stays unused).
  using SyncSource =
      std::function<std::optional<CanFrame>(std::uint8_t index)>;

  FttSlave(Simulator& sim, CanController& controller, FttConfig cfg);

  /// Claims a stream index produced by this node.
  void produce(std::uint8_t index, SyncSource source);

  /// Queues an asynchronous frame for the next async window with room.
  void queue_async(const CanFrame& frame);

  [[nodiscard]] std::uint64_t sync_sent() const { return sync_sent_; }
  [[nodiscard]] std::uint64_t async_sent() const { return async_sent_; }

 private:
  void on_frame(const CanFrame& frame, TimePoint now);
  void pump_async(TimePoint window_end);

  Simulator& sim_;
  CanController& controller_;
  FttConfig cfg_;
  std::map<std::uint8_t, SyncSource> produced_;
  std::deque<CanFrame> async_;
  bool async_in_flight_ = false;
  std::uint64_t sync_sent_ = 0;
  std::uint64_t async_sent_ = 0;
};

}  // namespace rtec
