#include <gtest/gtest.h>

#include <vector>

#include "canbus/frame.hpp"
#include "core/hrtec.hpp"
#include "core/nrtec.hpp"
#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "sched/calendar.hpp"
#include "sched/priority_map.hpp"
#include "util/random.hpp"
#include "util/task_pool.hpp"

/// Property-based suites: randomized inputs checked against invariants or
/// reference models rather than hand-picked expectations.

namespace rtec {
namespace {

using literals::operator""_ns;
using literals::operator""_us;
using literals::operator""_ms;

// --------------------------------------------------------- frame properties

class FrameLengthProperty : public ::testing::TestWithParam<int> {};

TEST_P(FrameLengthProperty, MonotoneInDlcAndBoundedByFormula) {
  const int dlc = GetParam();
  for (const bool extended : {false, true}) {
    if (dlc > 0) {
      // Worst case grows strictly with dlc (8 data bits + up to 2 stuff).
      EXPECT_GT(worst_case_wire_bits(dlc, extended),
                worst_case_wire_bits(dlc - 1, extended));
    }
    Rng rng{static_cast<std::uint64_t>(dlc) * 7 + (extended ? 1 : 0)};
    for (int trial = 0; trial < 300; ++trial) {
      CanFrame f;
      f.extended = extended;
      f.id = static_cast<std::uint32_t>(
          rng.uniform_int(0, extended ? kMaxExtendedId : kMaxBaseId));
      f.dlc = static_cast<std::uint8_t>(dlc);
      for (auto& b : f.data)
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      const int bits = frame_wire_bits(f);
      EXPECT_LE(bits, worst_case_wire_bits(dlc, extended));
      EXPECT_GE(bits, frame_stuffable_bits(f).count + 10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDlc, FrameLengthProperty, ::testing::Range(0, 9));

// ------------------------------------------------------ calendar admission

class CalendarAdmissionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CalendarAdmissionProperty, AcceptedSlotsNeverOverlapOnTheRoundCircle) {
  Rng rng{GetParam()};
  Calendar::Config cfg;
  cfg.round_length = 20_ms;
  cfg.gap = 40_us;
  Calendar cal{cfg};

  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    SlotSpec s;
    s.lst_offset = Duration::microseconds(rng.uniform_int(0, 20'000));
    s.dlc = static_cast<int>(rng.uniform_int(0, 8));
    s.fault.omission_degree = static_cast<int>(rng.uniform_int(0, 3));
    s.etag = static_cast<Etag>(rng.uniform_int(4, 100));
    s.publisher = static_cast<NodeId>(rng.uniform_int(0, 20));
    if (cal.reserve(s)) ++accepted;
  }
  ASSERT_GT(accepted, 3);  // dense enough to be meaningful

  // Global invariant, checked independently of the admission code path:
  // sample the round at 10 us resolution; no instant may be covered by two
  // windows, and adjacent windows keep the gap.
  const std::int64_t round = cfg.round_length.ns();
  std::vector<int> owner((static_cast<std::size_t>(round / 10'000)) + 1, -1);
  for (std::size_t i = 0; i < cal.size(); ++i) {
    const SlotTiming t = cal.timing(i);
    // Include the gap half on each side: windows + gap/2 must still not
    // collide if separation >= gap holds.
    const std::int64_t from = t.ready_offset.ns() - cfg.gap.ns() / 2;
    const std::int64_t to = t.deadline_offset.ns() + cfg.gap.ns() / 2;
    for (std::int64_t ns = from; ns < to; ns += 10'000) {
      std::int64_t wrapped = ns % round;
      if (wrapped < 0) wrapped += round;
      auto& cell = owner[static_cast<std::size_t>(wrapped / 10'000)];
      if (cell != -1 && cell != static_cast<int>(i)) {
        FAIL() << "windows " << cell << " and " << i
               << " overlap (incl. half-gap) at offset " << wrapped << " ns";
      }
      cell = static_cast<int>(i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarAdmissionProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --------------------------------------------------- priority map properties

class PriorityMapProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(PriorityMapProperty, BandIsMonotoneInDeadlineAndTime) {
  const Duration slot = Duration::microseconds(GetParam());
  const DeadlinePriorityMap map{{1, 250, slot}};
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  for (int trial = 0; trial < 2000; ++trial) {
    const TimePoint now =
        TimePoint::origin() + Duration::microseconds(rng.uniform_int(0, 1'000'000));
    const TimePoint d1 = now + Duration::microseconds(rng.uniform_int(0, 80'000));
    const TimePoint d2 = d1 + Duration::microseconds(rng.uniform_int(0, 80'000));
    // Later deadline never maps to a more urgent (smaller) band.
    EXPECT_LE(map.priority_for(now, d1), map.priority_for(now, d2));
    // As time advances urgency never decreases.
    const TimePoint later = now + Duration::microseconds(rng.uniform_int(0, 50'000));
    EXPECT_LE(map.priority_for(later, d1), map.priority_for(now, d1));
  }
}

TEST_P(PriorityMapProperty, PromotionWalkTerminatesAtMostUrgent) {
  const Duration slot = Duration::microseconds(GetParam());
  const DeadlinePriorityMap map{{1, 250, slot}};
  Rng rng{static_cast<std::uint64_t>(GetParam()) + 99};
  for (int trial = 0; trial < 200; ++trial) {
    TimePoint now = TimePoint::origin();
    const TimePoint deadline =
        now + Duration::microseconds(rng.uniform_int(1, 200'000));
    Priority prev = map.priority_for(now, deadline);
    int steps = 0;
    while (true) {
      const TimePoint next = map.next_promotion(now, deadline);
      if (next == TimePoint::max()) break;
      ASSERT_GT(next.ns(), now.ns()) << "promotion must move forward";
      now = next;
      const Priority p = map.priority_for(now, deadline);
      ASSERT_LT(p, prev) << "each promotion raises urgency by >= 1 band";
      prev = p;
      ASSERT_LT(++steps, 251) << "walk must terminate within the band count";
    }
    EXPECT_EQ(prev, 1);  // ended at the most urgent band
  }
}

INSTANTIATE_TEST_SUITE_P(SlotLengths, PriorityMapProperty,
                         ::testing::Values(20, 100, 160, 640, 5000));

// ---------------------------------------- HRT delivery sweep over (dlc, k)

class HrtDeliveryProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HrtDeliveryProperty, ExactlyKFaultsAlwaysDeliveredAtDeadline) {
  const auto [dlc, k] = GetParam();
  Scenario::Config cfg;
  cfg.calendar.round_length = 10_ms;
  Scenario scn{cfg};
  Node::ClockParams perfect;
  perfect.granularity = 1_ns;
  Node& pub_node = scn.add_node(1, perfect);
  Node& sub_node = scn.add_node(2, perfect);

  const Subject subject = subject_of("prop/hrt");
  SlotSpec slot;
  slot.lst_offset = 2_ms;
  slot.dlc = dlc;
  slot.fault.omission_degree = k;
  slot.etag = *scn.binding().bind(subject);
  slot.publisher = pub_node.id();
  const auto slot_index = scn.calendar().reserve(slot);
  ASSERT_TRUE(slot_index.has_value());

  auto faults = std::make_unique<ScriptedFaults>();
  auto counter = std::make_shared<int>(0);
  const int kk = k;
  faults->add_rule([counter, kk](const FaultContext& ctx) {
    if (id_priority(ctx.frame.id) != kHrtPriority) return false;
    return (*counter)++ % (kk + 1) < kk;  // exactly k corruptions/message
  });
  scn.set_fault_model(std::move(faults));

  Hrtec pub{pub_node.middleware()};
  Hrtec sub{sub_node.middleware()};
  ASSERT_TRUE(pub.announce(subject, {}, nullptr).has_value());
  std::vector<TimePoint> deliveries;
  ASSERT_TRUE(sub.subscribe(subject, AttributeList{attr::QueueCapacity{32}},
                            [&] { deliveries.push_back(sub_node.clock().now()); },
                            nullptr)
                  .has_value());

  constexpr int kRounds = 10;
  for (int r = 0; r < kRounds; ++r) {
    const auto inst = scn.calendar().instance_at_or_after(
        *slot_index, TimePoint::origin() + 10_ms * r);
    scn.sim().schedule_at(inst.ready - 5_us, [&pub, dlc = dlc] {
      Event e;
      e.content.assign(static_cast<std::size_t>(dlc), 0x3C);
      ASSERT_TRUE(pub.publish(std::move(e)).has_value());
    });
  }
  scn.run_for(10_ms * kRounds + 5_ms);

  ASSERT_EQ(deliveries.size(), static_cast<std::size_t>(kRounds));
  for (int r = 0; r < kRounds; ++r) {
    const auto inst = scn.calendar().instance_at_or_after(
        *slot_index, TimePoint::origin() + 10_ms * r);
    EXPECT_EQ(deliveries[static_cast<std::size_t>(r)].ns(), inst.deadline.ns());
  }
  EXPECT_EQ(pub_node.middleware().hrt().counters().retries,
            static_cast<std::uint64_t>(k * kRounds));
}

INSTANTIATE_TEST_SUITE_P(DlcByOmission, HrtDeliveryProperty,
                         ::testing::Combine(::testing::Values(0, 1, 4, 8),
                                            ::testing::Values(0, 1, 2, 3)));

// ----------------------------------------------------------- determinism

TEST(Determinism, IdenticalScenarioProducesIdenticalBusTrace) {
  const auto run_once = [] {
    TaskPool tasks;
    std::vector<std::tuple<std::int64_t, std::uint32_t, bool>> trace;
    Scenario::Config cfg;
    cfg.calendar.round_length = 10_ms;
    Scenario scn{cfg};
    Node& a = scn.add_node(1, {Duration::microseconds(10), 50'000, 1_us});
    Node& b = scn.add_node(2, {Duration::microseconds(-10), -50'000, 1_us});
    scn.add_node(3);
    (void)scn.enable_clock_sync(3, 500_us);
    scn.set_fault_model(std::make_unique<RandomOmissionFaults>(0.05, 777));
    scn.bus().add_observer([&](const CanBus::FrameEvent& ev) {
      trace.emplace_back(ev.start.ns(), ev.frame.id, ev.success);
    });

    Srtec pub{a.middleware()};
    (void)pub.announce(subject_of("det/x"), {}, nullptr);
    Srtec sub{b.middleware()};
    (void)sub.subscribe(subject_of("det/x"), {}, nullptr, nullptr);
    auto* loop = tasks.make();
    *loop = [&scn, &pub, loop] {
      Event e;
      e.content = {1, 2};
      (void)pub.publish(std::move(e));
      scn.sim().schedule_after(700_us, [loop] { (*loop)(); });
    };
    scn.sim().schedule_after(0_ns, [loop] { (*loop)(); });
    scn.run_for(200_ms);
    return trace;
  };

  const auto t1 = run_once();
  const auto t2 = run_once();
  ASSERT_EQ(t1.size(), t2.size());
  EXPECT_GT(t1.size(), 100u);
  for (std::size_t i = 0; i < t1.size(); ++i)
    EXPECT_EQ(t1[i], t2[i]) << "divergence at frame " << i;
}

// ------------------------------------------------- fragmentation roundtrip

TEST(FragmentationProperty, RandomSizesAndContentsRoundTrip) {
  Rng rng{31415};
  Scenario scn;
  Node::ClockParams perfect;
  perfect.granularity = 1_ns;
  Node& a = scn.add_node(1, perfect);
  Node& b = scn.add_node(2, perfect);
  const AttributeList frag{attr::Fragmentation{true}};
  Nrtec pub{a.middleware()};
  Nrtec sub{b.middleware()};
  ASSERT_TRUE(pub.announce(subject_of("prop/bulk"), frag, nullptr).has_value());
  std::vector<std::vector<std::uint8_t>> received;
  ASSERT_TRUE(sub.subscribe(subject_of("prop/bulk"),
                            AttributeList{attr::Fragmentation{true},
                                          attr::QueueCapacity{64}},
                            [&] {
                              while (auto e = sub.getEvent())
                                received.push_back(e->content);
                            },
                            nullptr)
                  .has_value());

  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 30; ++i) {
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(rng.uniform_int(1, 600)));
    for (auto& byte : payload)
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    sent.push_back(payload);
    Event e;
    e.content = std::move(payload);
    ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  }
  scn.run_for(Duration::seconds(3));

  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i)
    EXPECT_EQ(received[i], sent[i]) << "message " << i;
}

}  // namespace
}  // namespace rtec
