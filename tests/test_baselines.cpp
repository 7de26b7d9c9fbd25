#include <gtest/gtest.h>

#include <vector>

#include "baselines/dual_priority.hpp"
#include "baselines/fixed_priority.hpp"
#include "baselines/ttcan.hpp"
#include "canbus/bus.hpp"

namespace rtec {
namespace {

using literals::operator""_us;
using literals::operator""_ms;

// --------------------------------------------------------------------- RTA

TEST(FixedPriority, DmAssignmentSortsByDeadline) {
  std::vector<StreamSpec> streams{
      {1, 1, 10_ms, 8_ms, 8},
      {2, 2, 5_ms, 2_ms, 8},
      {3, 3, 20_ms, 5_ms, 8},
  };
  const auto a = deadline_monotonic_assignment(streams);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].stream.id, 2);  // 2 ms deadline first
  EXPECT_EQ(a[1].stream.id, 3);
  EXPECT_EQ(a[2].stream.id, 1);
  EXPECT_LT(a[0].priority, a[1].priority);
  EXPECT_LT(a[1].priority, a[2].priority);
}

TEST(FixedPriority, RtaHighestPriorityIsBlockingPlusOwnFrame) {
  const BusConfig bus{1'000'000};
  std::vector<StreamSpec> streams{
      {1, 1, 5_ms, 2_ms, 8},
      {2, 2, 10_ms, 10_ms, 8},
  };
  const auto a = deadline_monotonic_assignment(streams);
  const auto r = response_time_analysis(a, bus);
  ASSERT_TRUE(r[0].has_value());
  // Highest priority: one lower-priority blocker + own frame.
  const Duration c8 = worst_case_frame_duration(8, true, bus);
  EXPECT_EQ(r[0]->ns(), (c8 + c8).ns());
}

TEST(FixedPriority, RtaAccountsInterference) {
  const BusConfig bus{1'000'000};
  std::vector<StreamSpec> streams{
      {1, 1, 1_ms, 1_ms, 8},   // high priority, 1 ms period
      {2, 2, 10_ms, 10_ms, 8}, // low priority
  };
  const auto a = deadline_monotonic_assignment(streams);
  const auto r = response_time_analysis(a, bus);
  ASSERT_TRUE(r[1].has_value());
  // The low-priority stream suffers at least one interference hit.
  const Duration c8 = worst_case_frame_duration(8, true, bus);
  EXPECT_GE(r[1]->ns(), (c8 * 2).ns());
  EXPECT_TRUE(feasible(a, bus));
}

TEST(FixedPriority, RtaDetectsInfeasibleSet) {
  const BusConfig bus{1'000'000};
  // 10 streams every 500 us with 8-byte frames (~157 us each): utilization
  // >> 1 — cannot be feasible.
  std::vector<StreamSpec> streams;
  for (int i = 0; i < 10; ++i)
    streams.push_back({i, static_cast<NodeId>(i + 1), 500_us, 500_us, 8});
  const auto a = deadline_monotonic_assignment(streams);
  EXPECT_FALSE(feasible(a, bus));
}

TEST(FixedPriority, SenderTransmitsByStaticPriority) {
  Simulator sim;
  CanBus bus{sim, BusConfig{1'000'000}};
  CanController ctl{sim, 1};
  CanController other{sim, 2};
  bus.attach(ctl);
  bus.attach(other);
  std::vector<std::uint32_t> order;
  bus.add_observer([&](const CanBus::FrameEvent& ev) {
    if (ev.success) order.push_back(ev.frame.id);
  });

  StaticPrioritySender sender{sim, ctl};
  const StreamSpec low{1, 1, 10_ms, 10_ms, 0};
  const StreamSpec high{2, 1, 10_ms, 1_ms, 0};
  // Queue low first; high must still overtake it in the backlog.
  // (First queued is staged immediately; queue both while bus busy.)
  CanFrame blocker;
  blocker.id = 1;
  blocker.dlc = 8;
  (void)other.submit(blocker, TxMode::kAutoRetransmit);
  sim.schedule_after(10_us, [&] {
    sender.queue(low, 50, sim.now() + 10_ms, sim.now());
    sender.queue(high, 10, sim.now() + 1_ms, sim.now());
  });
  sim.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(decode_can_id(order[1]).priority, 50);  // staged before high arrived
  EXPECT_EQ(decode_can_id(order[2]).priority, 10);
  EXPECT_EQ(sender.outcome().sent, 2u);
}

// -------------------------------------------------------------------- TTCAN

struct TtcanFixture : ::testing::Test {
  Simulator sim;
  CanBus bus{sim, BusConfig{1'000'000}};
  CanController owner_ctl{sim, 1};
  CanController async_ctl{sim, 2};
  std::vector<CanBus::FrameEvent> events;

  TtcanSchedule schedule;

  void SetUp() override {
    bus.attach(owner_ctl);
    bus.attach(async_ctl);
    bus.add_observer([this](const CanBus::FrameEvent& ev) { events.push_back(ev); });
    schedule.basic_cycle = 5_ms;
    schedule.bus = bus.config();
    // [0, 1 ms): exclusive for node 1; [1 ms, 5 ms): arbitration.
    schedule.windows.push_back(
        {TtcanWindow::Kind::kExclusive, Duration::zero(), 1_ms, 1, 1});
    schedule.windows.push_back(
        {TtcanWindow::Kind::kArbitration, 1_ms, 4_ms, 0, 1});
  }
};

TEST_F(TtcanFixture, ExclusiveWindowCarriesOwnerMessage) {
  TtcanDriver owner{sim, owner_ctl, schedule};
  owner.set_exclusive_source([&](std::size_t, std::uint64_t) {
    CanFrame f;
    f.id = 0x100;
    f.dlc = 8;
    return f;
  });
  owner.start();
  sim.run_until(TimePoint::origin() + 10_ms);
  EXPECT_EQ(owner.exclusive_sent(), 2u);  // one per basic cycle
}

TEST_F(TtcanFixture, AsyncTrafficWaitsForArbitrationWindow) {
  TtcanDriver owner{sim, owner_ctl, schedule};
  owner.start();
  TtcanDriver async_node{sim, async_ctl, schedule};
  async_node.start();

  // Queue async traffic during the exclusive window: even though the
  // window is EMPTY (owner has no data), the async frame must wait until
  // the arbitration window opens at 1 ms — no reclamation in TTCAN.
  sim.schedule_at(TimePoint::origin() + 100_us, [&] {
    CanFrame f;
    f.id = 0x700;
    f.dlc = 2;
    async_node.queue_async(f);
  });
  sim.run_until(TimePoint::origin() + 5_ms);

  ASSERT_EQ(events.size(), 1u);
  EXPECT_GE(events[0].start.ns(), (1_ms).ns());
  EXPECT_EQ(async_node.async_sent(), 1u);
}

TEST_F(TtcanFixture, RedundantCopiesAlwaysFillTheSlot) {
  schedule.windows[0].copies = 3;
  TtcanDriver owner{sim, owner_ctl, schedule};
  owner.set_exclusive_source([&](std::size_t, std::uint64_t) {
    CanFrame f;
    f.id = 0x100;
    f.dlc = 2;
    return f;
  });
  owner.start();
  sim.run_until(TimePoint::origin() + 5_ms);
  // All 3 copies sent although the first already succeeded — the paper's
  // point about TTCAN redundancy costing bandwidth even without faults.
  int copies = 0;
  for (const auto& ev : events)
    if (ev.frame.id == 0x100 && ev.success) ++copies;
  EXPECT_EQ(copies, 3);
}

TEST_F(TtcanFixture, AsyncFrameNeverOverrunsWindowEnd) {
  TtcanDriver owner{sim, owner_ctl, schedule};
  owner.start();
  TtcanDriver async_node{sim, async_ctl, schedule};
  async_node.start();

  // Queue an async frame 50 us before the arbitration window closes: a
  // worst-case frame does not fit, so it must wait for the next cycle.
  sim.schedule_at(TimePoint::origin() + 5_ms - 50_us, [&] {
    CanFrame f;
    f.id = 0x700;
    f.dlc = 8;
    async_node.queue_async(f);
  });
  sim.run_until(TimePoint::origin() + 12_ms);

  ASSERT_EQ(events.size(), 1u);
  // Sent in the next cycle's arbitration window, not at 4.95 ms.
  EXPECT_GE(events[0].start.ns(), (6_ms).ns());
}

// ------------------------------------------------------------ dual priority

TEST(DualPriority, PromotionLiftsMessageAboveCompetitor) {
  Simulator sim;
  CanBus bus{sim, BusConfig{1'000'000}};
  CanController ctl_a{sim, 1};
  CanController ctl_b{sim, 2};
  CanController blocker_ctl{sim, 3};
  bus.attach(ctl_a);
  bus.attach(ctl_b);
  bus.attach(blocker_ctl);

  std::vector<std::uint32_t> order;
  bus.add_observer([&](const CanBus::FrameEvent& ev) {
    if (ev.success) order.push_back(ev.frame.id);
  });

  // Hold the bus so both messages are pending when it frees.
  CanFrame blocker;
  blocker.id = 0;
  blocker.dlc = 8;
  (void)blocker_ctl.submit(blocker, TxMode::kAutoRetransmit);

  DualPrioritySender a{sim, ctl_a};
  DualPrioritySender b{sim, ctl_b};
  sim.schedule_after(10_us, [&] {
    // a: lazy deadline, stays in the low band during this test.
    a.queue(1, 10, 5, 0, sim.now() + 50_ms, 1_ms);
    // b: tight deadline — promoted almost immediately to the high band.
    b.queue(2, 11, 5, 0, sim.now() + 1_ms, 900_us);
  });
  sim.run_until(TimePoint::origin() + 3_ms);

  ASSERT_EQ(order.size(), 3u);  // blocker + 2
  // b overtook a despite a's lower TxNode, because b was promoted.
  EXPECT_EQ(decode_can_id(order[1]).tx_node, 2);
  EXPECT_EQ(decode_can_id(order[2]).tx_node, 1);
  EXPECT_EQ(b.outcome().promotions, 1u);
  EXPECT_EQ(b.outcome().sent_by_deadline, 1u);
}

TEST(DualPriority, NoPromotionNeededWhenBusFree) {
  Simulator sim;
  CanBus bus{sim, BusConfig{1'000'000}};
  CanController ctl{sim, 1};
  CanController peer{sim, 2};
  bus.attach(ctl);
  bus.attach(peer);
  DualPrioritySender s{sim, ctl};
  s.queue(1, 10, 5, 4, sim.now() + 10_ms, 1_ms);
  sim.run_until(TimePoint::origin() + 1_ms);
  EXPECT_EQ(s.outcome().sent, 1u);
  EXPECT_EQ(s.outcome().sent_by_deadline, 1u);
  EXPECT_EQ(s.outcome().promotions, 0u);
}

}  // namespace
}  // namespace rtec
