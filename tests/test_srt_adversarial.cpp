#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "sched/id_codec.hpp"
#include "trace/binary.hpp"
#include "util/random.hpp"
#include "util/task_pool.hpp"

/// Adversarially timed SRT cases: expiry and promotion racing with the
/// non-preemptable wire, preemption chains, and starvation behaviour.

namespace rtec {
namespace {

using literals::operator""_ns;
using literals::operator""_us;
using literals::operator""_ms;

Node::ClockParams perfect() {
  Node::ClockParams p;
  p.granularity = 1_ns;
  return p;
}

struct SrtAdvFixture : ::testing::Test {
  TaskPool tasks;
  Scenario scn;
  Node* n1 = nullptr;
  Node* n2 = nullptr;
  std::vector<CanBus::FrameEvent> frames;

  void SetUp() override {
    n1 = &scn.add_node(1, perfect());
    n2 = &scn.add_node(2, perfect());
    scn.bus().add_observer(
        [this](const CanBus::FrameEvent& ev) { frames.push_back(ev); });
  }

  void hold_bus_until(TimePoint until, NodeId id = 7) {
    auto& blocker = scn.add_node(id, perfect());
    auto* pump = tasks.make();
    *pump = [this, until, &blocker, pump] {
      if (scn.sim().now() >= until) return;
      CanFrame f;
      f.id = encode_can_id({kHrtPriority, blocker.id(), 1000});
      f.dlc = 8;
      f.data.fill(0);
      (void)blocker.controller().submit(
          f, TxMode::kAutoRetransmit,
          [pump](auto, const CanFrame&, bool, TimePoint) { (*pump)(); });
    };
    (*pump)();
  }
};

TEST_F(SrtAdvFixture, ExpiryWhileFrameIsOnTheWireLetsItComplete) {
  Srtec pub{n1->middleware()};
  Srtec sub{n2->middleware()};
  std::vector<ChannelError> errors;
  ASSERT_TRUE(pub.announce(subject_of("adv/x"), {},
                           [&](const ExceptionInfo& e) {
                             errors.push_back(e.error);
                           })
                  .has_value());
  int delivered = 0;
  ASSERT_TRUE(sub.subscribe(subject_of("adv/x"), {},
                            [&] {
                              ++delivered;
                              (void)sub.getEvent();
                            },
                            nullptr)
                  .has_value());

  // Bus idle: the message starts transmitting immediately (frame takes
  // ~100+ us). Expiration hits 20 us into the transmission — too late to
  // abort a non-preemptable frame.
  const TimePoint t0 = scn.sim().now();
  Event e;
  e.content = {1, 2, 3, 4, 5, 6, 7, 8};
  e.attributes.deadline = t0 + 10_us;
  e.attributes.expiration = t0 + 20_us;
  ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  scn.run_for(2_ms);

  // Delivered despite deadline + expiry passing mid-flight; kExpired is
  // NOT raised (the event left the send queue by transmission).
  EXPECT_EQ(delivered, 1);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0], ChannelError::kDeadlineMissed);
  EXPECT_EQ(n1->middleware().srt().counters().expired, 0u);
}

TEST_F(SrtAdvFixture, ExpiryWhileStagedButBlockedAbortsTheMailbox) {
  Srtec pub{n1->middleware()};
  Srtec sub{n2->middleware()};
  std::vector<ChannelError> errors;
  ASSERT_TRUE(pub.announce(subject_of("adv/x"), {},
                           [&](const ExceptionInfo& e) {
                             errors.push_back(e.error);
                           })
                  .has_value());
  int delivered = 0;
  ASSERT_TRUE(sub.subscribe(subject_of("adv/x"), {},
                            [&] { ++delivered; }, nullptr)
                  .has_value());

  hold_bus_until(TimePoint::origin() + 2_ms);
  const TimePoint t0 = TimePoint::origin();
  scn.sim().schedule_at(t0 + 100_us, [&] {
    Event e;
    e.content = {1};
    e.attributes.deadline = t0 + 500_us;
    e.attributes.expiration = t0 + 1_ms;  // inside the blockade
    ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  });
  scn.run_for(4_ms);

  // Staged in the mailbox but never on the wire: the expiry aborts it.
  EXPECT_EQ(delivered, 0);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], ChannelError::kDeadlineMissed);
  EXPECT_EQ(errors[1], ChannelError::kExpired);
  EXPECT_EQ(n1->middleware().srt().counters().sent, 0u);
}

TEST_F(SrtAdvFixture, PreemptionChainKeepsEdfOrder) {
  Srtec pub{n1->middleware()};
  Srtec sub{n2->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("adv/x"), {}, nullptr).has_value());
  ASSERT_TRUE(sub.subscribe(subject_of("adv/x"),
                            AttributeList{attr::QueueCapacity{16}}, nullptr,
                            nullptr)
                  .has_value());

  hold_bus_until(TimePoint::origin() + 1_ms);
  const TimePoint t0 = TimePoint::origin();
  // Publish with strictly decreasing deadlines: each newcomer preempts the
  // staged one.
  for (int i = 0; i < 5; ++i) {
    scn.sim().schedule_at(t0 + 100_us * (i + 1), [&, i] {
      Event e;
      e.content = {static_cast<std::uint8_t>(i)};
      e.attributes.deadline = t0 + 20_ms - 1_ms * i;
      e.attributes.expiration = t0 + 100_ms;
      ASSERT_TRUE(pub.publish(std::move(e)).has_value());
    });
  }
  scn.run_for(5_ms);

  // Delivery order = reverse publish order (EDF), 4 preemption swaps.
  std::vector<std::uint8_t> tags;
  while (auto e = sub.getEvent()) tags.push_back(e->content[0]);
  EXPECT_EQ(tags, (std::vector<std::uint8_t>{4, 3, 2, 1, 0}));
  EXPECT_EQ(n1->middleware().srt().counters().preemptions, 4u);
}

TEST_F(SrtAdvFixture, PromotionBlockedWhileOnWireStillCountsAndRecovers) {
  Scenario::Config cfg;
  cfg.srt_map.slot_length = 50_us;  // promotions due every 50 us
  Scenario scn2{cfg};
  Node& a = scn2.add_node(1, perfect());
  Node& b = scn2.add_node(2, perfect());
  Srtec pub{a.middleware()};
  Srtec sub{b.middleware()};
  ASSERT_TRUE(pub.announce(subject_of("adv/p"), {}, nullptr).has_value());
  ASSERT_TRUE(sub.subscribe(subject_of("adv/p"), {}, nullptr, nullptr)
                  .has_value());

  // Bus idle: the frame goes straight to the wire (~130 us) while 2-3
  // promotion boundaries pass — every attempt must be refused gracefully.
  Event e;
  e.content = {1, 2, 3, 4, 5, 6, 7, 8};
  e.attributes.deadline = scn2.sim().now() + 1_ms;
  e.attributes.expiration = scn2.sim().now() + 10_ms;
  ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  scn2.run_for(2_ms);

  const auto& c = a.middleware().srt().counters();
  EXPECT_EQ(c.sent, 1u);
  EXPECT_GE(c.promotion_blocked, 2u);
  EXPECT_EQ(c.promotions, 0u);  // never promotable: always on the wire
}

TEST_F(SrtAdvFixture, ContinuousUrgentTrafficStarvesRelaxedMessageUntilPromoted) {
  // A relaxed-deadline message from node 1 competes against a steady
  // stream of urgent messages from node 2. Thanks to promotion it must
  // eventually win the bus *before* its deadline.
  Srtec relaxed{n1->middleware()};
  Srtec urgent{n2->middleware()};
  ASSERT_TRUE(relaxed.announce(subject_of("adv/relaxed"), {}, nullptr)
                  .has_value());
  ASSERT_TRUE(urgent.announce(subject_of("adv/urgent"), {}, nullptr)
                  .has_value());

  // Publish the relaxed message only after the urgent stream has saturated
  // the bus (else it would slip onto the idle wire immediately).
  const TimePoint t0 = scn.sim().now();
  scn.sim().schedule_at(t0 + 1_ms, [&] {
    Event slow;
    slow.content = {0xEE};
    slow.attributes.deadline = scn.sim().now() + 8_ms;
    slow.attributes.expiration = scn.sim().now() + 50_ms;
    ASSERT_TRUE(relaxed.publish(std::move(slow)).has_value());
  });

  // Urgent stream: ~130 us frames every 100 us — the urgent node always
  // has a pending frame, so the bus never idles.
  auto* loop = tasks.make();
  *loop = [&, loop] {
    Event e;
    e.content.assign(8, 0xAA);
    e.attributes.deadline = scn.sim().now() + 300_us;
    e.attributes.expiration = scn.sim().now() + 5_ms;
    (void)urgent.publish(std::move(e));
    scn.sim().schedule_after(100_us, [loop] { (*loop)(); });
  };
  scn.sim().schedule_after(0_ns, [loop] { (*loop)(); });

  scn.run_for(20_ms);
  const auto& c = n1->middleware().srt().counters();
  EXPECT_EQ(c.sent, 1u);
  EXPECT_EQ(c.sent_by_deadline, 1u) << "promotion must beat the urgent flood";
  EXPECT_GE(c.promotions, 10u);  // climbed many bands while waiting
}

TEST_F(SrtAdvFixture, PerPublisherFifoForEqualDeadlines) {
  Srtec pub{n1->middleware()};
  Srtec sub{n2->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("adv/fifo"), {}, nullptr).has_value());
  ASSERT_TRUE(sub.subscribe(subject_of("adv/fifo"),
                            AttributeList{attr::QueueCapacity{16}}, nullptr,
                            nullptr)
                  .has_value());
  hold_bus_until(TimePoint::origin() + 1_ms);
  const TimePoint t0 = TimePoint::origin();
  scn.sim().schedule_at(t0 + 100_us, [&] {
    for (std::uint8_t i = 0; i < 6; ++i) {
      Event e;
      e.content = {i};
      e.attributes.deadline = t0 + 10_ms;  // all identical
      e.attributes.expiration = t0 + 50_ms;
      ASSERT_TRUE(pub.publish(std::move(e)).has_value());
    }
  });
  scn.run_for(5_ms);
  std::vector<std::uint8_t> tags;
  while (auto e = sub.getEvent()) tags.push_back(e->content[0]);
  EXPECT_EQ(tags, (std::vector<std::uint8_t>{0, 1, 2, 3, 4, 5}));
}

TEST_F(SrtAdvFixture, PreemptedMessageKeepsItsArrivalPlaceAmongEqualDeadlines) {
  Srtec pub{n1->middleware()};
  Srtec sub{n2->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("adv/tie"), {}, nullptr).has_value());
  ASSERT_TRUE(sub.subscribe(subject_of("adv/tie"),
                            AttributeList{attr::QueueCapacity{8}}, nullptr,
                            nullptr)
                  .has_value());
  hold_bus_until(TimePoint::origin() + 1_ms);
  const TimePoint t0 = TimePoint::origin();
  const auto publish = [&](std::uint8_t tag, TimePoint deadline) {
    Event e;
    e.content = {tag};
    e.attributes.deadline = deadline;
    e.attributes.expiration = t0 + 50_ms;
    ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  };
  // A is staged, C queues behind it at the same deadline, and B's earlier
  // deadline preempts A while the bus is held.
  scn.sim().schedule_at(t0 + 100_us, [&] {
    publish(0xA, t0 + 10_ms);
    publish(0xC, t0 + 10_ms);
    publish(0xB, t0 + 9_ms);
  });
  scn.run_for(5_ms);

  // The abort does not move A behind C: equal deadlines leave in arrival
  // order, whether or not one of them was staged in between.
  std::vector<std::uint8_t> tags;
  while (auto e = sub.getEvent()) tags.push_back(e->content[0]);
  EXPECT_EQ(tags, (std::vector<std::uint8_t>{0xB, 0xA, 0xC}));
  EXPECT_EQ(n1->middleware().srt().counters().preemptions, 1u);
}

/// One segment, seeded: node 1 publishes bursts of equal deadlines on two
/// channels with the same default deadline (so none of its messages ever
/// preempts another), nodes 2 and 3 each publish two channels with random
/// deadlines and expirations, and node 7 holds the bus with HRT-band frames
/// for 1.5 ms in every 10 ms, so messages expire both queued and staged.
/// Promotions are due every 50 us, so some are refused while the frame is
/// on the wire. Returns the RTEB stream and the summed SRT counters.
struct SrtStream {
  std::string rteb;
  SrtEngine::Counters counters;
};

SrtStream run_srt_stream() {
  Scenario::Config cfg;
  cfg.srt_map.slot_length = 50_us;
  Scenario scn{cfg};
  TaskPool tasks;
  Node& bursts = scn.add_node(1);
  Node& mixed_a = scn.add_node(2);
  Node& mixed_b = scn.add_node(3);
  Node& sink = scn.add_node(4);
  Node& blocker = scn.add_node(7);
  const trace::RtebWriter& rec = scn.record_rteb(0);

  std::vector<std::unique_ptr<Srtec>> channels;
  const auto open = [&](Node& n, const std::string& name,
                        const AttributeList& attrs) -> Srtec& {
    channels.push_back(std::make_unique<Srtec>(n.middleware()));
    EXPECT_TRUE(channels.back()->announce(subject_of(name), attrs, nullptr)
                    .has_value());
    channels.push_back(std::make_unique<Srtec>(sink.middleware()));
    EXPECT_TRUE(channels.back()
                    ->subscribe(subject_of(name), {}, nullptr, nullptr)
                    .has_value());
    return *channels[channels.size() - 2];
  };

  const AttributeList burst_attrs{attr::Deadline{2_ms},
                                  attr::Expiration{3_ms}};
  Srtec& b0 = open(bursts, "pin/b0", burst_attrs);
  Srtec& b1 = open(bursts, "pin/b1", burst_attrs);
  auto* burst = tasks.make();
  *burst = [&, burst, n = std::uint8_t{0}]() mutable {
    for (int i = 0; i < 3; ++i)
      for (Srtec* ch : {&b0, &b1}) {
        Event e;
        e.content.assign(8, n++);
        (void)ch->publish(std::move(e));
      }
    scn.sim().schedule_after(5_ms, [burst] { (*burst)(); });
  };
  scn.sim().schedule_at(TimePoint::origin() + 300_us, [burst] { (*burst)(); });

  std::uint64_t seed = 11;
  for (Node* n : {&mixed_a, &mixed_b})
    for (int c = 0; c < 2; ++c) {
      Srtec& ch = open(*n,
                       "pin/n" + std::to_string(n->id()) + "c" +
                           std::to_string(c),
                       {});
      auto* loop = tasks.make();
      *loop = [&, loop, rng = Rng{seed++}]() mutable {
        const TimePoint now = scn.sim().now();
        Event e;
        e.content.assign(static_cast<std::size_t>(rng.uniform_int(1, 8)),
                         static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
        e.attributes.deadline =
            now + Duration::microseconds(rng.uniform_int(150, 3000));
        e.attributes.expiration =
            e.attributes.deadline +
            Duration::microseconds(rng.uniform_int(0, 1000));
        (void)ch.publish(std::move(e));
        scn.sim().schedule_after(
            Duration::microseconds(rng.uniform_int(200, 1800)),
            [loop] { (*loop)(); });
      };
      scn.sim().schedule_at(TimePoint::origin() + 100_us * (c + 1),
                            [loop] { (*loop)(); });
    }

  auto* hold = tasks.make();
  *hold = [&, hold] {
    if (scn.sim().now().ns() % 10'000'000 >= 1'500'000) return;
    CanFrame f;
    f.id = encode_can_id({kHrtPriority, blocker.id(), 1000});
    f.dlc = 8;
    (void)blocker.controller().submit(
        f, TxMode::kAutoRetransmit,
        [hold](auto, const CanFrame&, bool, TimePoint) { (*hold)(); });
  };
  auto* holds = tasks.make();
  *holds = [&, hold, holds] {
    (*hold)();
    scn.sim().schedule_after(10_ms, [holds] { (*holds)(); });
  };
  scn.sim().schedule_at(TimePoint::origin() + 10_ms, [holds] { (*holds)(); });

  scn.run_for(300_ms);
  SrtStream out{rec.bytes(), {}};
  for (Node* n : {&bursts, &mixed_a, &mixed_b, &sink}) {
    const SrtEngine::Counters& s = n->middleware().srt().counters();
    out.counters.published += s.published;
    out.counters.sent += s.sent;
    out.counters.sent_by_deadline += s.sent_by_deadline;
    out.counters.deadline_missed += s.deadline_missed;
    out.counters.expired += s.expired;
    out.counters.promotions += s.promotions;
    out.counters.promotion_blocked += s.promotion_blocked;
    out.counters.preemptions += s.preemptions;
    out.counters.delivered += s.delivered;
  }
  return out;
}

TEST(SrtStreamPin, SharedNodesBurstsExpiriesAndPromotionsPinned) {
  // Size, record count and FNV-1a of the bus trace, and every SRT counter:
  // any change in the order a node's queue sends, preempts, promotes or
  // expires its messages moves one of them. The scenario holds no
  // preempted message with an equal-deadline message queued behind it
  // (node 1 never preempts; random deadlines do not tie), so it reads the
  // same under either tie rule for a preempted message.
  const SrtStream s = run_srt_stream();
  std::size_t records = 0;
  for (std::size_t pos = trace::kRtebHeaderSize; pos < s.rteb.size();
       pos += std::size_t{1} + static_cast<std::uint8_t>(s.rteb[pos]))
    ++records;
  std::uint64_t fnv = 0xcbf29ce484222325ULL;
  for (const char c : s.rteb) {
    fnv ^= static_cast<std::uint8_t>(c);
    fnv *= 0x100000001b3ULL;
  }
  EXPECT_EQ(s.rteb.size(), 29300u);
  EXPECT_EQ(records, 1857u);
  EXPECT_EQ(fnv, 0xb287f1183adf42faULL);
  const SrtEngine::Counters& c = s.counters;
  EXPECT_EQ(c.published, 1587u);
  EXPECT_EQ(c.sent, 1546u);
  EXPECT_EQ(c.sent_by_deadline, 1333u);
  EXPECT_EQ(c.deadline_missed, 253u);
  EXPECT_EQ(c.expired, 40u);
  EXPECT_EQ(c.promotions, 4765u);
  EXPECT_EQ(c.promotion_blocked, 2990u);
  EXPECT_EQ(c.preemptions, 120u);
  EXPECT_EQ(c.delivered, 1546u);
}

TEST_F(SrtAdvFixture, PromotionBoundaryBetweenTwoClockReadingsIsCrossedOnce) {
  // Node 3's clock reads whole microseconds; a deadline 500 ns past a tick
  // puts every band boundary between two readings. Each promotion must
  // still happen once, once the clock reads past its boundary, instead of
  // re-arming at the boundary's instant forever.
  Node& coarse = scn.add_node(3);
  Srtec pub{coarse.middleware()};
  Srtec sub{n2->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("adv/tick"), {}, nullptr).has_value());
  ASSERT_TRUE(sub.subscribe(subject_of("adv/tick"), {}, nullptr, nullptr)
                  .has_value());
  hold_bus_until(TimePoint::origin() + 1_ms);
  const TimePoint t0 = TimePoint::origin();
  scn.sim().schedule_at(t0 + 100_us, [&] {
    Event e;
    e.content = {1};
    e.attributes.deadline = t0 + 2_ms + 500_ns;
    e.attributes.expiration = t0 + 10_ms;
    ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  });
  scn.run_for(5_ms);

  const SrtEngine::Counters& c = coarse.middleware().srt().counters();
  EXPECT_EQ(c.sent, 1u);
  // Boundaries at 240.5, 400.5, 560.5, 720.5 and 880.5 us pass while the
  // bus is held and the frame waits in its mailbox.
  EXPECT_GE(c.promotions, 5u);
}

TEST_F(SrtAdvFixture, PromotionBoundaryTheDriftingClockReachesLateIsCrossedOnce) {
  // A clock 100 ppm slow reads 109,998 us at the perfect instant its inverse
  // gives for local 109,999 us. The staged frame's first band boundary sits
  // there, 30 us after it goes on the wire: the promotion is due once the
  // clock reads the boundary, and then refused because the frame is on the
  // wire.
  Node::ClockParams slow_clock;
  slow_clock.drift_ppb = -100'000;
  Node& slow = scn.add_node(3, slow_clock);
  Srtec pub{slow.middleware()};
  Srtec sub{n2->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("adv/slow"), {}, nullptr).has_value());
  ASSERT_TRUE(sub.subscribe(subject_of("adv/slow"), {}, nullptr, nullptr)
                  .has_value());
  const TimePoint boundary = TimePoint::origin() + 109'999_us;
  LocalClock& clk = slow.clock();
  ASSERT_LT(clk.to_local(clk.to_perfect(boundary)), boundary);
  scn.sim().schedule_at(clk.to_perfect(boundary - 30_us), [&] {
    Event e;
    e.content = {1};
    e.attributes.deadline = boundary + 800_us;  // band 5 of 160-us slots
    e.attributes.expiration = boundary + 10_ms;
    ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  });
  scn.run_for(120_ms);

  const SrtEngine::Counters& c = slow.middleware().srt().counters();
  EXPECT_EQ(c.sent, 1u);
  EXPECT_EQ(c.promotion_blocked, 1u);
}

}  // namespace
}  // namespace rtec
