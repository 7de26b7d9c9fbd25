#include <gtest/gtest.h>

#include "time/periodic.hpp"

namespace rtec {
namespace {

using literals::operator""_ns;
using literals::operator""_us;
using literals::operator""_ms;

// ---------------------------------------------------------- periodic task

TEST(PeriodicLocalTask, FiresAtExactPeriodOnPerfectClock) {
  Simulator sim;
  LocalClock clk{sim, Duration::zero(), 0, 1_ns};
  std::vector<std::int64_t> fires;
  PeriodicLocalTask task{clk, 10_ms, [&] { fires.push_back(sim.now().ns()); }};
  task.start_at(TimePoint::origin() + 5_ms);
  sim.run_until(TimePoint::origin() + 100_ms);
  ASSERT_EQ(fires.size(), 10u);
  for (std::size_t i = 0; i < fires.size(); ++i)
    EXPECT_EQ(fires[i], (5_ms + 10_ms * static_cast<std::int64_t>(i)).ns());
  EXPECT_EQ(task.executions(), 10u);
}

TEST(PeriodicLocalTask, NoPhaseSlideDespiteCoarseTick) {
  // The regression this class exists for: with a 1 us reading tick,
  // re-arming from now() would slide ~1 us per period; the absolute
  // timeline must not.
  Simulator sim;
  LocalClock clk{sim, 137_ns, 0, 1_us};  // offset NOT tick-aligned
  std::vector<std::int64_t> fires;
  PeriodicLocalTask task{clk, 1_ms, [&] { fires.push_back(sim.now().ns()); }};
  task.start();
  sim.run_until(TimePoint::origin() + Duration::seconds(2));
  ASSERT_GE(fires.size(), 1999u);
  // The very first firing may be clamped to "now" (the initial offset is
  // below one tick); from the second firing on the absolute timeline rules.
  const std::int64_t gap = fires[2] - fires[1];
  EXPECT_EQ(gap, (1_ms).ns());
  for (std::size_t i = 3; i < fires.size(); ++i)
    ASSERT_EQ(fires[i] - fires[i - 1], gap) << "slide at " << i;
  // Total elapsed = N periods exactly (no cumulative drift).
  EXPECT_EQ(fires.back() - fires[1],
            static_cast<std::int64_t>(fires.size() - 2) * gap);
}

TEST(PeriodicLocalTask, TracksClockRate) {
  Simulator sim;
  LocalClock clk{sim, Duration::zero(), 100'000, 1_us};  // +100 ppm fast
  int fires = 0;
  PeriodicLocalTask task{clk, 10_ms, [&] { ++fires; }};
  task.start();
  sim.run_until(TimePoint::origin() + Duration::seconds(1));
  // A fast clock reaches its local deadlines early: slightly more than 100
  // executions of a 10 ms-local period fit into 1 s of perfect time.
  EXPECT_GE(fires, 100);
  EXPECT_LE(fires, 102);
}

TEST(PeriodicLocalTask, StopPreventsFurtherExecutions) {
  Simulator sim;
  LocalClock clk{sim, Duration::zero(), 0, 1_ns};
  int fires = 0;
  PeriodicLocalTask task{clk, 1_ms, [&] { ++fires; }};
  task.start();
  sim.run_until(TimePoint::origin() + 5500_us);
  EXPECT_EQ(fires, 6);  // t = 0..5 ms
  task.stop();
  EXPECT_FALSE(task.running());
  sim.run_until(TimePoint::origin() + 20_ms);
  EXPECT_EQ(fires, 6);
}

TEST(PeriodicLocalTask, BodyMayStopTheTask) {
  Simulator sim;
  LocalClock clk{sim, Duration::zero(), 0, 1_ns};
  int fires = 0;
  PeriodicLocalTask task{clk, 1_ms, [&] {
                           if (++fires == 3) task.stop();
                         }};
  task.start();
  sim.run_until(TimePoint::origin() + 20_ms);
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicLocalTask, RestartAfterStop) {
  Simulator sim;
  LocalClock clk{sim, Duration::zero(), 0, 1_ns};
  int fires = 0;
  PeriodicLocalTask task{clk, 1_ms, [&] { ++fires; }};
  task.start();
  sim.run_until(TimePoint::origin() + 2500_us);
  task.stop();
  const int so_far = fires;
  task.start_at(clk.now() + 5_ms);
  sim.run_until(TimePoint::origin() + 10_ms);
  EXPECT_GT(fires, so_far);
}

}  // namespace
}  // namespace rtec
