#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"
#include "time/clock.hpp"

namespace rtec {
namespace {

using literals::operator""_ns;
using literals::operator""_us;
using literals::operator""_ms;

// ----------------------------------------------------------------- simulator

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::origin() + 30_us, [&] { order.push_back(3); });
  sim.schedule_at(TimePoint::origin() + 10_us, [&] { order.push_back(1); });
  sim.schedule_at(TimePoint::origin() + 20_us, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ns(), 30'000);
}

TEST(Simulator, FifoTieBreakAtEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(TimePoint::origin() + 5_us, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto h = sim.schedule_after(1_ms, [&] { fired = true; });
  sim.cancel(h);
  EXPECT_FALSE(h.valid());
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  auto h = sim.schedule_after(1_us, [] {});
  sim.run();
  sim.cancel(h);  // already fired: harmless
  sim.cancel(h);  // idempotent
}

TEST(Simulator, RunUntilAdvancesTimeEvenWithoutEvents) {
  Simulator sim;
  sim.run_until(TimePoint::origin() + 7_ms);
  EXPECT_EQ(sim.now().ns(), 7'000'000);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  bool early = false;
  bool late = false;
  sim.schedule_after(1_ms, [&] { early = true; });
  sim.schedule_after(5_ms, [&] { late = true; });
  sim.run_until(TimePoint::origin() + 2_ms);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(late);
}

TEST(Simulator, CallbackCanScheduleMoreWork) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.schedule_after(10_us, tick);
  };
  sim.schedule_after(10_us, tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now().ns(), 50'000);
}

TEST(Simulator, ZeroDelayEventRunsAfterCurrentBatch) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::origin() + 1_us, [&] {
    order.push_back(1);
    sim.schedule_after(0_ns, [&] { order.push_back(3); });
  });
  sim.schedule_at(TimePoint::origin() + 1_us, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SurvivesLargeCancelStorm) {
  // Lazy-deletion heap: massive cancellation must neither leak entries
  // into execution nor distort later ordering.
  Simulator sim;
  std::vector<Simulator::TimerHandle> handles;
  handles.reserve(100'000);
  int fired = 0;
  for (int i = 0; i < 100'000; ++i) {
    handles.push_back(sim.schedule_at(
        TimePoint::origin() + Duration::microseconds(i + 1),
        [&fired] { ++fired; }));
  }
  // Cancel every second timer.
  for (std::size_t i = 0; i < handles.size(); i += 2) sim.cancel(handles[i]);
  EXPECT_EQ(sim.pending(), 50'000u);
  sim.run();
  EXPECT_EQ(fired, 50'000);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, InterleavedScheduleCancelFromCallbacks) {
  Simulator sim;
  int fired = 0;
  Simulator::TimerHandle victim;
  sim.schedule_at(TimePoint::origin() + 1_us, [&] {
    ++fired;
    // Cancel a timer that is already in the heap for a later instant.
    sim.cancel(victim);
    // And schedule a replacement.
    sim.schedule_after(5_us, [&] { ++fired; });
  });
  victim = sim.schedule_at(TimePoint::origin() + 3_us, [&] { fired += 100; });
  sim.run();
  EXPECT_EQ(fired, 2);  // victim never ran
}

// --------------------------------------------------------------- local clock

TEST(LocalClock, PerfectClockTracksSim) {
  Simulator sim;
  LocalClock clk{sim, Duration::zero(), 0, 1_ns};
  sim.run_until(TimePoint::origin() + 5_ms);
  EXPECT_EQ(clk.now().ns(), 5'000'000);
}

TEST(LocalClock, OffsetApplies) {
  Simulator sim;
  LocalClock clk{sim, 100_us, 0, 1_ns};
  EXPECT_EQ(clk.now().ns(), 100'000);
  sim.run_until(TimePoint::origin() + 1_ms);
  EXPECT_EQ(clk.now().ns(), 1'100'000);
}

TEST(LocalClock, DriftAccumulates) {
  Simulator sim;
  LocalClock fast{sim, Duration::zero(), 100'000, 1_ns};  // +100 ppm
  sim.run_until(TimePoint::origin() + Duration::seconds(1));
  // After 1 s a +100 ppm clock reads 100 us ahead.
  EXPECT_EQ(fast.now().ns(), 1'000'100'000);
}

TEST(LocalClockDeathTest, RateBeyondMaxDriftIsRefused) {
  Simulator sim;
  EXPECT_DEBUG_DEATH(
      (LocalClock(sim, Duration::zero(), LocalClock::kMaxDriftPpb + 1, 1_ns)),
      "");
  EXPECT_DEBUG_DEATH(
      (LocalClock(sim, Duration::zero(), -LocalClock::kMaxDriftPpb - 1, 1_ns)),
      "");
  // The bound itself is accepted; one servo step past it is not.
  LocalClock clk{sim, Duration::zero(), LocalClock::kMaxDriftPpb, 1_ns};
  clk.adjust_rate(-2 * LocalClock::kMaxDriftPpb);
  EXPECT_EQ(clk.drift_ppb(), -LocalClock::kMaxDriftPpb);
  EXPECT_DEBUG_DEATH(clk.adjust_rate(-1), "");
}

TEST(LocalClock, GranularityQuantizesReadings) {
  Simulator sim;
  LocalClock clk{sim, Duration::zero(), 0, 10_us};
  sim.run_until(TimePoint::origin() + 25_us);
  EXPECT_EQ(clk.now().ns(), 20'000);  // truncated to the 10 us tick
}

TEST(LocalClock, AdjustStepsForwardAndBack) {
  Simulator sim;
  LocalClock clk{sim, Duration::zero(), 0, 1_ns};
  sim.run_until(TimePoint::origin() + 1_ms);
  clk.adjust(50_us);
  EXPECT_EQ(clk.now().ns(), 1'050'000);
  clk.adjust(-70_us);
  EXPECT_EQ(clk.now().ns(), 980'000);
}

TEST(LocalClock, ToPerfectInvertsToLocal) {
  Simulator sim;
  LocalClock clk{sim, 123_us, 50'000, 1_ns};  // offset + 50 ppm
  sim.run_until(TimePoint::origin() + 10_ms);
  const TimePoint local_target = clk.now() + 3_ms;
  const TimePoint perfect = clk.to_perfect(local_target);
  // Reading the clock at `perfect` should give the target within 1 ns of
  // rounding.
  const TimePoint readback = clk.to_local(perfect);
  EXPECT_NEAR(static_cast<double>(readback.ns()),
              static_cast<double>(local_target.ns()), 1.0);
}

TEST(LocalClock, ScheduleAtLocalFiresAtLocalTime) {
  Simulator sim;
  LocalClock clk{sim, 200_us, 0, 1_ns};
  TimePoint fired_local;
  clk.schedule_at_local(TimePoint::origin() + 1_ms,
                        [&] { fired_local = clk.now(); });
  sim.run();
  EXPECT_EQ(fired_local.ns(), 1'000'000);
  // In perfect time that is 1 ms - 200 us (clock is ahead).
  EXPECT_EQ(sim.now().ns(), 800'000);
}

TEST(LocalClock, ScheduleAtLocalPastDeadlineFiresImmediately) {
  Simulator sim;
  LocalClock clk{sim, Duration::zero(), 0, 1_ns};
  sim.run_until(TimePoint::origin() + 1_ms);
  bool fired = false;
  clk.schedule_at_local(TimePoint::origin() + 1_us, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now().ns(), 1'000'000);
}

TEST(LocalClock, RateAdjustChangesSlope) {
  Simulator sim;
  LocalClock clk{sim, Duration::zero(), 100'000, 1_ns};
  sim.run_until(TimePoint::origin() + Duration::seconds(1));
  clk.adjust_rate(-100'000);  // cancel the drift
  EXPECT_EQ(clk.drift_ppb(), 0);
  const TimePoint before = clk.now();
  sim.run_until(TimePoint::origin() + Duration::seconds(2));
  EXPECT_EQ((clk.now() - before).ns(), 1'000'000'000);
}

}  // namespace
}  // namespace rtec
