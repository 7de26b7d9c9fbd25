#include <gtest/gtest.h>

#include "canbus/bus.hpp"
#include "sched/id_codec.hpp"
#include "trace/metrics.hpp"

namespace rtec {
namespace {

using literals::operator""_ms;

CanFrame frame_with_priority(Priority p, NodeId node) {
  CanFrame f;
  f.id = encode_can_id({p, node, 100});
  f.dlc = 2;
  return f;
}

TEST(ClassUtilization, SplitsBusyTimeByPriorityClass) {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController a{sim, 1};
  CanController b{sim, 2};
  bus.attach(a);
  bus.attach(b);
  ClassUtilization util{bus};

  (void)a.submit(frame_with_priority(kHrtPriority, 1), TxMode::kAutoRetransmit);
  (void)a.submit(frame_with_priority(100, 1), TxMode::kAutoRetransmit);
  (void)b.submit(frame_with_priority(255, 2), TxMode::kAutoRetransmit);
  sim.run();
  sim.run_until(TimePoint::origin() + 1_ms);

  EXPECT_EQ(util.frames(TrafficClass::kHrt), 1u);
  EXPECT_EQ(util.frames(TrafficClass::kSrt), 1u);
  EXPECT_EQ(util.frames(TrafficClass::kNrt), 1u);
  EXPECT_GT(util.busy(TrafficClass::kHrt).ns(), 0);
  const double total = util.fraction(TrafficClass::kHrt) +
                       util.fraction(TrafficClass::kSrt) +
                       util.fraction(TrafficClass::kNrt);
  EXPECT_NEAR(total, bus.utilization(), 1e-9);
}

TEST(ClassUtilization, CountsErrorsPerClass) {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController a{sim, 1};
  CanController b{sim, 2};
  bus.attach(a);
  bus.attach(b);
  ScriptedFaults faults;
  faults.add_rule([](const FaultContext& ctx) { return ctx.attempt == 1; });
  bus.set_fault_model(&faults);
  ClassUtilization util{bus};

  (void)a.submit(frame_with_priority(50, 1), TxMode::kAutoRetransmit);
  sim.run();
  EXPECT_EQ(util.errors(TrafficClass::kSrt), 1u);
  EXPECT_EQ(util.frames(TrafficClass::kSrt), 2u);  // 1 failed + 1 ok
}

TEST(ClassUtilization, ResetRestartsTheWindow) {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController a{sim, 1};
  CanController b{sim, 2};
  bus.attach(a);
  bus.attach(b);
  ClassUtilization util{bus};
  (void)a.submit(frame_with_priority(50, 1), TxMode::kAutoRetransmit);
  sim.run();
  util.reset();
  EXPECT_EQ(util.frames(TrafficClass::kSrt), 0u);
  EXPECT_EQ(util.busy(TrafficClass::kSrt).ns(), 0);
  sim.run_until(TimePoint::origin() + 1_ms);
  EXPECT_DOUBLE_EQ(util.fraction(TrafficClass::kSrt), 0.0);
}

}  // namespace
}  // namespace rtec
