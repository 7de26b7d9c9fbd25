#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "sched/id_codec.hpp"
#include "util/task_pool.hpp"

namespace rtec {
namespace {

using literals::operator""_ns;
using literals::operator""_us;
using literals::operator""_ms;

Node::ClockParams perfect_clock() {
  Node::ClockParams p;
  p.granularity = 1_ns;
  return p;
}

Event srt_event(std::uint8_t tag, TimePoint deadline,
                TimePoint expiration = TimePoint::max()) {
  Event e;
  e.content = {tag};
  e.attributes.deadline = deadline;
  e.attributes.expiration = expiration;
  return e;
}

struct SrtFixture : ::testing::Test {
  TaskPool tasks;
  Scenario scn;
  Node* n1 = nullptr;
  Node* n2 = nullptr;
  Node* n3 = nullptr;
  std::vector<std::uint32_t> bus_order;  // successful frame ids in bus order

  void SetUp() override {
    n1 = &scn.add_node(1, perfect_clock());
    n2 = &scn.add_node(2, perfect_clock());
    n3 = &scn.add_node(3, perfect_clock());
    scn.bus().add_observer([this](const CanBus::FrameEvent& ev) {
      if (ev.success) bus_order.push_back(ev.frame.id);
    });
  }

  /// Occupies the bus with back-to-back exclusive-priority frames until
  /// `until` (simulated raw HRT-band traffic from node 7's controller is
  /// not needed — priority 0 raw frames do the job at bus level).
  void block_bus_until(TimePoint until) {
    auto& blocker = scn.add_node(7, perfect_clock());
    auto* pump = tasks.make();
    *pump = [this, until, &blocker, pump] {
      if (scn.sim().now() >= until) return;
      CanFrame f;
      f.id = encode_can_id({kHrtPriority, 7, 1000});
      f.dlc = 8;
      f.data.fill(0);
      (void)blocker.controller().submit(
          f, TxMode::kAutoRetransmit,
          [pump](auto, const CanFrame&, bool, TimePoint) { (*pump)(); });
    };
    (*pump)();
  }
};

// ------------------------------------------------------------- happy path

TEST_F(SrtFixture, PublishDeliversToSubscriber) {
  Srtec pub{n1->middleware()};
  Srtec sub{n2->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("srt/data"), {}, nullptr).has_value());
  int notified = 0;
  ASSERT_TRUE(
      sub.subscribe(subject_of("srt/data"), {}, [&] { ++notified; }, nullptr)
          .has_value());

  Event e;
  e.content = {0x42};
  ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  scn.run_for(1_ms);

  EXPECT_EQ(notified, 1);
  const auto got = sub.getEvent();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->content, (std::vector<std::uint8_t>{0x42}));
  EXPECT_EQ(n1->middleware().srt().counters().sent_by_deadline, 1u);
}

TEST_F(SrtFixture, MultipleSubscribersAllNotified) {
  Srtec pub{n1->middleware()};
  Srtec sub_a{n2->middleware()};
  Srtec sub_b{n3->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("srt/data"), {}, nullptr).has_value());
  int a = 0;
  int b = 0;
  ASSERT_TRUE(sub_a.subscribe(subject_of("srt/data"), {}, [&] { ++a; }, nullptr)
                  .has_value());
  ASSERT_TRUE(sub_b.subscribe(subject_of("srt/data"), {}, [&] { ++b; }, nullptr)
                  .has_value());
  Event e;
  e.content = {1};
  ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  scn.run_for(1_ms);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

// ----------------------------------------------------------------- EDF order

TEST_F(SrtFixture, LocalQueueDrainsInDeadlineOrder) {
  Srtec pub{n1->middleware()};
  Srtec sub{n2->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("srt/data"), {}, nullptr).has_value());
  ASSERT_TRUE(sub.subscribe(subject_of("srt/data"),
                            AttributeList{attr::QueueCapacity{8}}, nullptr,
                            nullptr)
                  .has_value());

  block_bus_until(TimePoint::origin() + 1_ms);
  const TimePoint t0 = TimePoint::origin();
  scn.sim().schedule_at(t0 + 100_us, [&] {
    ASSERT_TRUE(pub.publish(srt_event(0xA, t0 + 10_ms)).has_value());
    ASSERT_TRUE(pub.publish(srt_event(0xB, t0 + 5_ms)).has_value());
    ASSERT_TRUE(pub.publish(srt_event(0xC, t0 + 7_ms)).has_value());
  });
  scn.run_for(4_ms);

  // Delivery order follows deadlines: B, C, A.
  std::vector<std::uint8_t> tags;
  while (auto e = sub.getEvent()) tags.push_back(e->content[0]);
  EXPECT_EQ(tags, (std::vector<std::uint8_t>{0xB, 0xC, 0xA}));
  // B overtook A in the staged mailbox (one preemption).
  EXPECT_GE(n1->middleware().srt().counters().preemptions, 1u);
}

TEST_F(SrtFixture, GlobalEdfAcrossNodesViaPriorityBands) {
  Srtec pub1{n1->middleware()};
  Srtec pub2{n2->middleware()};
  Srtec sub{n3->middleware()};
  ASSERT_TRUE(pub1.announce(subject_of("srt/a"), {}, nullptr).has_value());
  ASSERT_TRUE(pub2.announce(subject_of("srt/b"), {}, nullptr).has_value());
  ASSERT_TRUE(sub.subscribe(subject_of("srt/a"), {}, nullptr, nullptr).has_value());

  block_bus_until(TimePoint::origin() + 1_ms);
  const TimePoint t0 = TimePoint::origin();
  scn.sim().schedule_at(t0 + 100_us, [&] {
    // Node 1 publishes a relaxed deadline, node 2 an urgent one.
    ASSERT_TRUE(pub1.publish(srt_event(1, t0 + 9_ms)).has_value());
    ASSERT_TRUE(pub2.publish(srt_event(2, t0 + 2_ms)).has_value());
  });
  scn.run_for(4_ms);

  // On the bus, node 2's urgent frame went first even though node 1 has the
  // lower TxNode: the deadline band dominates the identifier.
  std::vector<NodeId> srt_senders;
  for (std::uint32_t id : bus_order) {
    const auto f = decode_can_id(id);
    if (classify_priority(f.priority) == TrafficClass::kSrt)
      srt_senders.push_back(f.tx_node);
  }
  ASSERT_EQ(srt_senders.size(), 2u);
  EXPECT_EQ(srt_senders[0], 2);
  EXPECT_EQ(srt_senders[1], 1);
}

TEST_F(SrtFixture, SameBandDeadlinesResolveByTxNodeArbitrarily) {
  // The paper's Δt_p trade-off: two deadlines inside one priority slot are
  // ordered by the other identifier fields, i.e. possibly *against* EDF.
  Srtec pub1{n1->middleware()};
  Srtec pub2{n2->middleware()};
  ASSERT_TRUE(pub1.announce(subject_of("srt/a"), {}, nullptr).has_value());
  ASSERT_TRUE(pub2.announce(subject_of("srt/b"), {}, nullptr).has_value());

  block_bus_until(TimePoint::origin() + 1_ms);
  const TimePoint t0 = TimePoint::origin();
  scn.sim().schedule_at(t0 + 100_us, [&] {
    // Node 2's deadline is 1 ns earlier — same 160 us band at any instant;
    // node 1 wins on TxNode: a deadline inversion.
    ASSERT_TRUE(pub1.publish(srt_event(1, t0 + 5'050_us + 1_ns)).has_value());
    ASSERT_TRUE(pub2.publish(srt_event(2, t0 + 5'050_us)).has_value());
  });
  scn.run_for(4_ms);

  std::vector<NodeId> srt_senders;
  for (std::uint32_t id : bus_order) {
    const auto f = decode_can_id(id);
    if (classify_priority(f.priority) == TrafficClass::kSrt)
      srt_senders.push_back(f.tx_node);
  }
  ASSERT_EQ(srt_senders.size(), 2u);
  EXPECT_EQ(srt_senders[0], 1);  // inversion: later deadline sent first
}

// ------------------------------------------------------------- promotion

TEST_F(SrtFixture, QueuedMessagePromotedAsDeadlineApproaches) {
  Srtec pub{n1->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("srt/data"), {}, nullptr).has_value());

  // Keep the bus saturated with exclusive-priority traffic for 3 ms.
  block_bus_until(TimePoint::origin() + 3_ms);
  const TimePoint t0 = TimePoint::origin();
  std::vector<Priority> observed_bands;
  scn.bus().add_observer([&](const CanBus::FrameEvent& ev) {
    const auto f = decode_can_id(ev.frame.id);
    if (classify_priority(f.priority) == TrafficClass::kSrt && ev.success)
      observed_bands.push_back(f.priority);
  });

  scn.sim().schedule_at(t0 + 100_us, [&] {
    ASSERT_TRUE(pub.publish(srt_event(1, t0 + 4_ms)).has_value());
  });
  scn.run_for(5_ms);

  // While blocked, the staged mailbox id was rewritten repeatedly.
  const auto& c = n1->middleware().srt().counters();
  EXPECT_GE(c.promotions, 5u);
  EXPECT_EQ(c.sent, 1u);
  // It went out at a band far more urgent than the initial mapping
  // (laxity 3.9 ms -> band ~25; at transmission laxity ~1 ms -> band ~7).
  ASSERT_EQ(observed_bands.size(), 1u);
  const auto& map = n1->middleware().srt().priority_map();
  EXPECT_LT(observed_bands[0],
            map.priority_for(t0 + 100_us, t0 + 4_ms));
}

// -------------------------------------------------- deadline miss and expiry

TEST_F(SrtFixture, DeadlineMissReportedButStillTransmitted) {
  Srtec pub{n1->middleware()};
  Srtec sub{n2->middleware()};
  std::vector<ChannelError> errors;
  ASSERT_TRUE(pub.announce(subject_of("srt/data"), {},
                           [&](const ExceptionInfo& e) {
                             errors.push_back(e.error);
                           })
                  .has_value());
  int delivered = 0;
  ASSERT_TRUE(
      sub.subscribe(subject_of("srt/data"), {}, [&] { ++delivered; }, nullptr)
          .has_value());

  block_bus_until(TimePoint::origin() + 2_ms);
  const TimePoint t0 = TimePoint::origin();
  scn.sim().schedule_at(t0 + 100_us, [&] {
    // Deadline 1 ms (inside the blockade), expiration 10 ms (after it).
    ASSERT_TRUE(pub.publish(srt_event(1, t0 + 1_ms, t0 + 10_ms)).has_value());
  });
  scn.run_for(5_ms);

  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0], ChannelError::kDeadlineMissed);
  EXPECT_EQ(delivered, 1);  // best effort: still delivered late
  const auto& c = n1->middleware().srt().counters();
  EXPECT_EQ(c.sent, 1u);
  EXPECT_EQ(c.sent_by_deadline, 0u);
  EXPECT_EQ(c.expired, 0u);
}

TEST_F(SrtFixture, ExpiredMessageDroppedFromSendQueue) {
  Srtec pub{n1->middleware()};
  Srtec sub{n2->middleware()};
  std::vector<ChannelError> errors;
  ASSERT_TRUE(pub.announce(subject_of("srt/data"), {},
                           [&](const ExceptionInfo& e) {
                             errors.push_back(e.error);
                           })
                  .has_value());
  int delivered = 0;
  ASSERT_TRUE(
      sub.subscribe(subject_of("srt/data"), {}, [&] { ++delivered; }, nullptr)
          .has_value());

  block_bus_until(TimePoint::origin() + 3_ms);
  const TimePoint t0 = TimePoint::origin();
  scn.sim().schedule_at(t0 + 100_us, [&] {
    // Both deadline and expiration fall inside the blockade.
    ASSERT_TRUE(pub.publish(srt_event(1, t0 + 1_ms, t0 + 2_ms)).has_value());
  });
  scn.run_for(6_ms);

  // kDeadlineMissed at 1 ms, kExpired at 2 ms; never transmitted.
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], ChannelError::kDeadlineMissed);
  EXPECT_EQ(errors[1], ChannelError::kExpired);
  EXPECT_EQ(delivered, 0);
  const auto& c = n1->middleware().srt().counters();
  EXPECT_EQ(c.sent, 0u);
  EXPECT_EQ(c.expired, 1u);
}

TEST_F(SrtFixture, ChannelDefaultsApplyWhenEventCarriesNone) {
  Srtec pub{n1->middleware()};
  std::vector<ChannelError> errors;
  ASSERT_TRUE(pub.announce(subject_of("srt/data"),
                           AttributeList{attr::Deadline{500_us},
                                         attr::Expiration{800_us}},
                           [&](const ExceptionInfo& e) {
                             errors.push_back(e.error);
                           })
                  .has_value());
  block_bus_until(TimePoint::origin() + 2_ms);
  scn.sim().schedule_at(TimePoint::origin() + 100_us, [&] {
    Event e;
    e.content = {1};
    ASSERT_TRUE(pub.publish(std::move(e)).has_value());  // defaults apply
  });
  scn.run_for(3_ms);
  // Deadline (600 us) and expiration (900 us) both inside the blockade.
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], ChannelError::kDeadlineMissed);
  EXPECT_EQ(errors[1], ChannelError::kExpired);
}

TEST_F(SrtFixture, RefusedMessageCancelsItsTimers) {
  // An offline controller refuses every message, so each is dropped at
  // once with kBusOff. Its deadline and expiration timers go with it:
  // cancelled in the kernel, never fired.
  Srtec pub{n1->middleware()};
  std::vector<ChannelError> errors;
  ASSERT_TRUE(pub.announce(subject_of("srt/data"),
                           AttributeList{attr::Deadline{500_us},
                                         attr::Expiration{800_us}},
                           [&](const ExceptionInfo& e) {
                             errors.push_back(e.error);
                           })
                  .has_value());
  n1->controller().set_online(false);
  const Simulator::Stats before = scn.sim().stats();
  for (int i = 0; i < 100; ++i) {
    Event e;
    e.content = {static_cast<std::uint8_t>(i)};
    ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  }
  scn.run_for(2_ms);  // past the last expiration (800 us)

  ASSERT_EQ(errors.size(), 100u);
  for (const ChannelError e : errors) EXPECT_EQ(e, ChannelError::kBusOff);
  const Simulator::Stats& after = scn.sim().stats();
  EXPECT_EQ(after.cancelled - before.cancelled, 200u);
  EXPECT_EQ(after.fired - before.fired, 0u);
  const auto& c = n1->middleware().srt().counters();
  EXPECT_EQ(c.deadline_missed, 0u);
  EXPECT_EQ(c.expired, 0u);
}

// --------------------------------------------------------------- validation

TEST_F(SrtFixture, ExpirationBeforeDeadlineRejected) {
  Srtec pub{n1->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("srt/data"), {}, nullptr).has_value());
  const TimePoint t0 = scn.sim().now();
  const auto r = pub.publish(srt_event(1, t0 + 5_ms, t0 + 2_ms));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), ChannelError::kInvalidAttribute);
}

TEST_F(SrtFixture, BadChannelAttributesRejected) {
  Srtec pub{n1->middleware()};
  const auto r = pub.announce(
      subject_of("srt/data"),
      AttributeList{attr::Deadline{5_ms}, attr::Expiration{2_ms}}, nullptr);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), ChannelError::kInvalidAttribute);
}

TEST_F(SrtFixture, OversizedPayloadRejected) {
  Srtec pub{n1->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("srt/data"), {}, nullptr).has_value());
  Event e;
  e.content.assign(9, 0);
  const auto r = pub.publish(std::move(e));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), ChannelError::kPayloadTooLarge);
}

// ------------------------------------------------------ priority relation

TEST_F(SrtFixture, PendingHrtAlwaysBeatsPendingSrt) {
  // Raw bus-level check of 0 <= P_HRT < P_SRT: stage both while the bus is
  // busy; the HRT frame must go first at the next arbitration.
  block_bus_until(TimePoint::origin() + 500_us);
  Srtec pub{n1->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("srt/data"), {}, nullptr).has_value());
  scn.sim().schedule_at(TimePoint::origin() + 100_us, [&] {
    ASSERT_TRUE(
        pub.publish(srt_event(1, scn.sim().now() + 300_us)).has_value());
    CanFrame hrt;
    hrt.id = encode_can_id({kHrtPriority, 3, 999});
    hrt.dlc = 1;
    ASSERT_TRUE(
        n3->controller().submit(hrt, TxMode::kAutoRetransmit).has_value());
  });
  scn.run_for(2_ms);

  std::vector<TrafficClass> classes;
  for (std::uint32_t id : bus_order) {
    const auto f = decode_can_id(id);
    if (f.etag == 999 || classify_priority(f.priority) == TrafficClass::kSrt)
      classes.push_back(classify_priority(f.priority));
  }
  ASSERT_GE(classes.size(), 2u);
  EXPECT_EQ(classes[0], TrafficClass::kHrt);
  EXPECT_EQ(classes[1], TrafficClass::kSrt);
}

}  // namespace
}  // namespace rtec
