#include <gtest/gtest.h>

#include "baselines/ftt_can.hpp"
#include "canbus/bus.hpp"

namespace rtec {
namespace {

using literals::operator""_us;
using literals::operator""_ms;

struct FttFixture : ::testing::Test {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController master_ctl{sim, 1};
  CanController slave_ctl{sim, 2};
  CanController slave2_ctl{sim, 3};
  FttConfig cfg;
  std::vector<CanBus::FrameEvent> events;

  void SetUp() override {
    bus.attach(master_ctl);
    bus.attach(slave_ctl);
    bus.attach(slave2_ctl);
    cfg.bus = bus.config();
    bus.add_observer([this](const CanBus::FrameEvent& ev) {
      if (ev.success) events.push_back(ev);
    });
  }

  static CanFrame sync_frame(std::uint32_t id) {
    CanFrame f;
    f.id = id;
    f.dlc = 4;
    f.data = {1, 2, 3, 4, 0, 0, 0, 0};
    return f;
  }
};

TEST_F(FttFixture, MasterPollsStreamsAtTheirPeriods) {
  FttMaster master{sim, master_ctl, cfg};
  master.add_stream({/*index=*/0, 2, 4, 5_ms});    // every EC
  master.add_stream({/*index=*/1, 2, 4, 10_ms});   // every 2nd EC
  FttSlave slave{sim, slave_ctl, cfg};
  int polls0 = 0;
  int polls1 = 0;
  slave.produce(0, [&](std::uint8_t) {
    ++polls0;
    return sync_frame(0x100);
  });
  slave.produce(1, [&](std::uint8_t) {
    ++polls1;
    return sync_frame(0x101);
  });
  master.start();
  sim.run_until(TimePoint::origin() + 40_ms);
  EXPECT_EQ(polls0, 8);  // 8 ECs
  EXPECT_EQ(polls1, 4);  // every second EC
  EXPECT_EQ(slave.sync_sent(), 12u);
}

TEST_F(FttFixture, MasterDeathStopsAllSynchronousTraffic) {
  FttMaster master{sim, master_ctl, cfg};
  master.add_stream({0, 2, 4, 5_ms});
  FttSlave slave{sim, slave_ctl, cfg};
  slave.produce(0, [&](std::uint8_t) { return sync_frame(0x100); });
  master.start();
  sim.run_until(TimePoint::origin() + 18_ms);  // between EC boundaries
  const std::uint64_t sent_before = slave.sync_sent();
  EXPECT_GT(sent_before, 0u);

  // The single point of failure the paper criticizes: kill the master.
  master_ctl.set_online(false);
  master.stop();
  sim.run_until(TimePoint::origin() + 60_ms);
  EXPECT_EQ(slave.sync_sent(), sent_before);  // nothing moves any more
}

TEST_F(FttFixture, AsyncTrafficConfinedToAsyncWindow) {
  FttMaster master{sim, master_ctl, cfg};
  master.add_stream({0, 2, 4, 5_ms});
  FttSlave producer{sim, slave_ctl, cfg};
  producer.produce(0, [&](std::uint8_t) { return sync_frame(0x100); });
  FttSlave async_node{sim, slave2_ctl, cfg};
  master.start();

  // Queue an async frame during the synchronous window of EC 1.
  sim.schedule_at(TimePoint::origin() + 5_ms + 500_us, [&] {
    CanFrame f;
    f.id = 0x1f000000;  // least dominant: clearly async band
    f.dlc = 2;
    async_node.queue_async(f);
  });
  sim.run_until(TimePoint::origin() + 15_ms);

  TimePoint async_start;
  for (const auto& ev : events)
    if (ev.frame.id == 0x1f000000) async_start = ev.start;
  // Sent only after the async window opened (EC start 5 ms + offset 2 ms).
  EXPECT_GE(async_start.ns(), (7_ms).ns());
  EXPECT_EQ(async_node.async_sent(), 1u);
}

TEST_F(FttFixture, AsyncFrameNeverOverrunsIntoNextTriggerMessage) {
  FttMaster master{sim, master_ctl, cfg};
  FttSlave async_node{sim, slave2_ctl, cfg};
  master.start();
  // Queue just before the EC boundary: must wait for the next window.
  sim.schedule_at(TimePoint::origin() + 5_ms - 60_us, [&] {
    CanFrame f;
    f.id = 0x1f000000;
    f.dlc = 8;
    async_node.queue_async(f);
  });
  sim.run_until(TimePoint::origin() + 13_ms);
  TimePoint async_start;
  for (const auto& ev : events)
    if (ev.frame.id == 0x1f000000) async_start = ev.start;
  EXPECT_GE(async_start.ns(), (7_ms).ns());  // next EC's async window
  // And every TM went out on its cycle boundary, undisturbed.
  int tms = 0;
  for (const auto& ev : events)
    if (ev.frame.id == kFttTmId) {
      ++tms;
      EXPECT_LT(ev.start.ns() % (5_ms).ns(), 100'000) << "TM delayed";
    }
  EXPECT_GE(tms, 2);
}

TEST_F(FttFixture, UnpolledProducerStaysSilent) {
  FttMaster master{sim, master_ctl, cfg};
  master.add_stream({0, 2, 4, 5_ms});  // only stream 0 is ever polled
  FttSlave slave{sim, slave_ctl, cfg};
  int produced1 = 0;
  slave.produce(0, [&](std::uint8_t) { return sync_frame(0x100); });
  slave.produce(1, [&](std::uint8_t) {
    ++produced1;
    return sync_frame(0x101);
  });
  master.start();
  sim.run_until(TimePoint::origin() + 25_ms);
  EXPECT_EQ(produced1, 0);  // never polled, never asked for data
}

}  // namespace
}  // namespace rtec
