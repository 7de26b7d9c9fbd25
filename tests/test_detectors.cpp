#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "canbus/bus.hpp"
#include "canbus/controller.hpp"
#include "canbus/fault.hpp"
#include "core/scenario.hpp"
#include "trace/detectors.hpp"

/// Streaming anomaly detectors (trace/detectors.hpp): training vs
/// detection behavior of each detector on synthetic event streams, the
/// bounded-state contract, unknown-identifier handling, and the
/// delivered-frames-only feed Scenario::detectors() wires on a real bus.

namespace rtec {
namespace {

using namespace rtec::literals;

constexpr TimePoint at_ms(std::int64_t ms) {
  return TimePoint::origin() + Duration::milliseconds(ms);
}

/// A successful delivery of `id` ending at `end` (the only fields the
/// detectors read).
CanBus::FrameEvent delivery(std::uint32_t id, TimePoint end) {
  CanBus::FrameEvent ev;
  ev.frame.id = id;
  ev.frame.dlc = 8;
  ev.start = end - 130_us;
  ev.end = end;
  ev.success = true;
  ev.wire_bits = 130;
  return ev;
}

/// Feeds a periodic stream of `id` into `obs` (a detector or a bank):
/// arrivals at from, from + period, ... strictly before `until`.
template <typename Observer>
void feed_periodic(Observer& obs, std::uint32_t id, Duration period,
                   TimePoint from, TimePoint until) {
  for (TimePoint t = from; t < until; t += period) obs.on_frame(delivery(id, t));
}

TEST(MeanIatGate, QuietOnBenignFlagsDoubledRate) {
  trace::MeanIatGate::Config cfg;
  cfg.train_until = at_ms(1000);
  trace::MeanIatGate gate{cfg};

  feed_periodic(gate, 0x100, 10_ms, at_ms(0), at_ms(1000));   // training
  feed_periodic(gate, 0x100, 10_ms, at_ms(1000), at_ms(1200));  // benign
  EXPECT_EQ(gate.alarm_count(), 0u);

  // The stream collapses to 5 ms IATs (injection at the victim's id).
  feed_periodic(gate, 0x100, 5_ms, at_ms(1205), at_ms(1400));
  EXPECT_GT(gate.alarm_count(), 0u);
  ASSERT_TRUE(gate.first_alarm().has_value());
  EXPECT_GE(*gate.first_alarm(), at_ms(1200));
  EXPECT_EQ(gate.tracked_ids(), 1u);
}

TEST(MeanIatGate, ToleratesTrainedJitter) {
  trace::MeanIatGate::Config cfg;
  cfg.train_until = at_ms(1000);
  trace::MeanIatGate gate{cfg};

  // 10 ms nominal with ±1 ms alternating jitter, in training AND after:
  // the learned sigma covers the deviation, so no alarms fire.
  const auto feed = [&gate](TimePoint from, TimePoint until) {
    bool high = false;
    for (TimePoint t = from; t < until;
         t += high ? 11_ms : 9_ms, high = !high)
      gate.on_frame(delivery(0x100, t));
  };
  feed(at_ms(0), at_ms(1000));
  feed(at_ms(1000), at_ms(1500));
  EXPECT_EQ(gate.alarm_count(), 0u);
}

TEST(MeanIatGate, UnknownIdAfterTrainingRaisesFlaggedAlarm) {
  trace::MeanIatGate::Config cfg;
  cfg.train_until = at_ms(1000);
  trace::MeanIatGate gate{cfg};
  std::vector<trace::Alarm> alarms;
  gate.set_alarm_sink([&](const trace::Alarm& a) { alarms.push_back(a); });

  feed_periodic(gate, 0x100, 10_ms, at_ms(0), at_ms(1000));
  // A fuzzed identifier that never appeared in training.
  gate.on_frame(delivery(0x999, at_ms(1100)));
  EXPECT_EQ(gate.unknown_id_frames(), 1u);
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_TRUE(alarms.front().unknown_id);
  EXPECT_EQ(alarms.front().id, 0x999u);
  EXPECT_EQ(alarms.front().at, at_ms(1100));
}

TEST(MeanIatGate, SparseTrainingCountsAsUnknown) {
  trace::MeanIatGate::Config cfg;
  cfg.train_until = at_ms(1000);
  trace::MeanIatGate gate{cfg};

  // Only three training IATs: not enough for a profile.
  feed_periodic(gate, 0x200, 10_ms, at_ms(0), at_ms(40));
  gate.on_frame(delivery(0x200, at_ms(1100)));
  EXPECT_EQ(gate.unknown_id_frames(), 1u);
}

TEST(CusumDetector, IntegratesSmallShiftAPerFrameGateMisses) {
  trace::MeanIatGate::Config gate_cfg;
  gate_cfg.train_until = at_ms(1000);
  trace::MeanIatGate gate{gate_cfg};
  trace::CusumDetector::Config cusum_cfg;
  cusum_cfg.train_until = at_ms(1000);
  trace::CusumDetector cusum{cusum_cfg};

  // Train both on a perfect 10 ms stream (sigma floors at 0.5 ms), then
  // shift the rate by 7%: each IAT deviates only 1.4 sigma — inside the
  // 4-sigma gate — but the deviation is persistent and the CUSUM ramps.
  for (trace::Detector* d : {static_cast<trace::Detector*>(&gate),
                             static_cast<trace::Detector*>(&cusum)}) {
    feed_periodic(*d, 0x100, 10_ms, at_ms(0), at_ms(1000));
    feed_periodic(*d, 0x100, Duration::microseconds(9300), at_ms(1000),
                  at_ms(1500));
  }
  EXPECT_EQ(gate.alarm_count(), 0u);
  EXPECT_GT(cusum.alarm_count(), 0u);
  ASSERT_TRUE(cusum.first_alarm().has_value());
  EXPECT_GE(*cusum.first_alarm(), at_ms(1000));
}

TEST(CusumDetector, QuietOnBenignContinuation) {
  trace::CusumDetector::Config cfg;
  cfg.train_until = at_ms(1000);
  trace::CusumDetector cusum{cfg};
  feed_periodic(cusum, 0x100, 10_ms, at_ms(0), at_ms(2000));
  EXPECT_EQ(cusum.alarm_count(), 0u);
}

TEST(WindowFrequency, FlagsSuspensionWithinOneWindow) {
  trace::WindowFrequencyDetector::Config cfg;
  cfg.train_until = at_ms(1000);
  cfg.window = 50_ms;
  trace::WindowFrequencyDetector det{cfg};
  std::vector<trace::Alarm> alarms;
  det.set_alarm_sink([&](const trace::Alarm& a) { alarms.push_back(a); });

  // Victim 0x100 and an independent heartbeat 0x200, both 10 ms periodic.
  for (TimePoint t = at_ms(10); t < at_ms(1000); t += 10_ms) {
    det.on_frame(delivery(0x100, t));
    det.on_frame(delivery(0x200, t + 1_ms));
  }
  // After training the victim is suspended; the heartbeat keeps windows
  // advancing (absence of traffic is only observable against time).
  for (TimePoint t = at_ms(1000); t < at_ms(1500); t += 10_ms)
    det.on_frame(delivery(0x200, t + 1_ms));
  det.finish(at_ms(1500));

  ASSERT_FALSE(alarms.empty());
  // Every alarm names the suspended id, starting within ~one window of
  // the suspension onset.
  for (const trace::Alarm& a : alarms) EXPECT_EQ(a.id, 0x100u);
  EXPECT_LE(*det.first_alarm(), at_ms(1100));
  // A zero-count window against a trained band of ~5 frames: the band
  // distance is meaningful, not epsilon.
  EXPECT_GE(alarms.front().score, 3.0);
}

TEST(WindowFrequency, FlagsInjectionAndStaysQuietOnBenign) {
  trace::WindowFrequencyDetector::Config cfg;
  cfg.train_until = at_ms(1000);
  cfg.window = 50_ms;
  trace::WindowFrequencyDetector det{cfg};

  feed_periodic(det, 0x100, 10_ms, at_ms(10), at_ms(1000));
  feed_periodic(det, 0x100, 10_ms, at_ms(1010), at_ms(1200));
  det.finish(at_ms(1200));
  EXPECT_EQ(det.alarm_count(), 0u);

  // Rate doubles: 10 frames per window against a trained band of ~5.
  feed_periodic(det, 0x100, 5_ms, at_ms(1200), at_ms(1400));
  det.finish(at_ms(1400));
  EXPECT_GT(det.alarm_count(), 0u);
}

TEST(Detectors, TrackingBudgetIsBoundedAndOverflowIsCounted) {
  trace::MeanIatGate::Config cfg;
  cfg.train_until = at_ms(1000);
  trace::MeanIatGate gate{cfg};

  // 16 identifiers past the budget in training: only the first
  // kMaxTrackedIds are admitted.
  const auto ids = static_cast<std::uint32_t>(trace::kMaxTrackedIds) + 16;
  for (std::uint32_t id = 1; id <= ids; ++id)
    feed_periodic(gate, id, 10_ms, at_ms(id % 10), at_ms(1000));
  EXPECT_EQ(gate.tracked_ids(), trace::kMaxTrackedIds);

  // Untracked ids in detection raise unknown-id alarms, not UB.
  gate.on_frame(delivery(ids, at_ms(1100)));
  EXPECT_EQ(gate.unknown_id_frames(), 1u);
}

TEST(Detectors, BankFansOutAndFinishes) {
  trace::DetectorBank bank;
  trace::MeanIatGate::Config gate_cfg;
  gate_cfg.train_until = at_ms(500);
  trace::Detector& gate =
      bank.add(std::make_unique<trace::MeanIatGate>(gate_cfg));
  trace::WindowFrequencyDetector::Config win_cfg;
  win_cfg.train_until = at_ms(500);
  win_cfg.window = 50_ms;
  trace::Detector& win =
      bank.add(std::make_unique<trace::WindowFrequencyDetector>(win_cfg));
  ASSERT_EQ(bank.size(), 2u);

  feed_periodic(bank, 0x100, 10_ms, at_ms(0), at_ms(500));
  feed_periodic(bank, 0x100, 5_ms, at_ms(500), at_ms(700));
  bank.finish(at_ms(700));

  EXPECT_GT(gate.alarm_count(), 0u);
  EXPECT_GT(win.alarm_count(), 0u);
}

TEST(Detectors, BankFedOnlySuccessfulDeliveriesInBusOrder) {
  Scenario scn;
  CanController a{scn.sim(), 1};
  CanController b{scn.sim(), 2};
  scn.bus().attach(a);
  scn.bus().attach(b);

  struct Collector final : trace::Detector {
    Collector() : Detector{TimePoint::origin()} {}
    std::vector<std::uint32_t> ids;
    TimePoint finished;
    [[nodiscard]] const char* name() const override { return "collector"; }
    void on_frame(const CanBus::FrameEvent& ev) override {
      EXPECT_TRUE(ev.success);
      ids.push_back(ev.frame.id);
    }
    void finish(TimePoint now) override { finished = now; }
  };
  auto& coll = static_cast<Collector&>(
      scn.detectors().add(std::make_unique<Collector>()));

  // First two attempts of the first frame are corrupted.
  auto faults = std::make_unique<ScriptedFaults>();
  faults->add_rule([](const FaultContext& ctx) { return ctx.attempt <= 2; });
  scn.set_fault_model(std::move(faults));

  CanFrame f1;
  f1.id = 0x200;
  f1.dlc = 1;
  CanFrame f2;
  f2.id = 0x100;
  f2.dlc = 1;
  ASSERT_TRUE(a.submit(f1, TxMode::kAutoRetransmit).has_value());
  scn.sim().schedule_at(at_ms(5), [&] {
    ASSERT_TRUE(b.submit(f2, TxMode::kAutoRetransmit).has_value());
  });
  scn.run_until(at_ms(10));
  scn.flush_streams();

  // Two successful deliveries in completion order; the corrupted attempts
  // (two per frame) were filtered but still counted by the bus.
  EXPECT_EQ(scn.tapped_deliveries(), 2u);
  ASSERT_EQ(coll.ids.size(), 2u);
  EXPECT_EQ(coll.ids[0], 0x200u);
  EXPECT_EQ(coll.ids[1], 0x100u);
  EXPECT_EQ(coll.finished, scn.now());
  EXPECT_EQ(scn.bus().frames_error(), 4u);
}

}  // namespace
}  // namespace rtec
