#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/gateway.hpp"
#include "core/hrtec.hpp"
#include "core/scenario.hpp"

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

struct GatewayFixture : ::testing::Test {
  Scenario scn;
  Node* a1 = nullptr;  // publisher on network A
  Node* a2 = nullptr;  // subscriber on network A
  Node* b1 = nullptr;  // subscriber on network B
  Node* gw_a = nullptr;
  Node* gw_b = nullptr;
  std::unique_ptr<Gateway> gateway;

  GatewayFixture()
      : scn{[] {
          Scenario::Config cfg;
          cfg.networks = 2;
          return cfg;
        }()} {}

  static constexpr Duration kForwardLatency = Duration::microseconds(10);

  void SetUp() override {
    a1 = &scn.add_node(1, perfect(), /*network=*/0);
    a2 = &scn.add_node(2, perfect(), 0);
    b1 = &scn.add_node(11, perfect(), /*network=*/1);
    gw_a = &scn.add_node(20, perfect(), 0);
    gw_b = &scn.add_node(21, perfect(), 1);
    gateway = std::make_unique<Gateway>(
        *gw_a, *gw_b, scn.link_gateway(*gw_a, *gw_b, kForwardLatency));
  }
};

TEST_F(GatewayFixture, NetworksAreIsolatedWithoutBridge) {
  Srtec pub{a1->middleware()};
  Srtec sub_b{b1->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("x/data"), {}, nullptr).has_value());
  int rx_b = 0;
  ASSERT_TRUE(
      sub_b.subscribe(subject_of("x/data"), {}, [&] { ++rx_b; }, nullptr)
          .has_value());
  Event e;
  e.content = {1};
  ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  scn.run_for(5_ms);
  EXPECT_EQ(rx_b, 0);  // different bus; no physical path
}

TEST_F(GatewayFixture, SrtEventsForwardedAcrossNetworks) {
  ASSERT_TRUE(gateway->bridge_srt(subject_of("x/data"), 5_ms, 10_ms).has_value());

  Srtec pub{a1->middleware()};
  Srtec sub_b{b1->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("x/data"), {}, nullptr).has_value());
  int rx_b = 0;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(sub_b.subscribe(subject_of("x/data"), {},
                              [&] {
                                if (auto e = sub_b.getEvent()) {
                                  ++rx_b;
                                  payload = e->content;
                                }
                              },
                              nullptr)
                  .has_value());
  Event e;
  e.content = {0xAB, 0xCD};
  ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  scn.run_for(5_ms);
  EXPECT_EQ(rx_b, 1);
  EXPECT_EQ(payload, (std::vector<std::uint8_t>{0xAB, 0xCD}));
  EXPECT_EQ(gateway->counters().forwarded_a_to_b, 1u);
  EXPECT_EQ(gateway->counters().forwarded_b_to_a, 0u);
}

TEST_F(GatewayFixture, BridgeIsBidirectional) {
  ASSERT_TRUE(gateway->bridge_srt(subject_of("x/data"), 5_ms, 10_ms).has_value());
  Srtec pub_b{b1->middleware()};
  Srtec sub_a{a2->middleware()};
  ASSERT_TRUE(pub_b.announce(subject_of("x/data"), {}, nullptr).has_value());
  int rx_a = 0;
  ASSERT_TRUE(sub_a.subscribe(subject_of("x/data"), {},
                              [&] {
                                ++rx_a;
                                (void)sub_a.getEvent();
                              },
                              nullptr)
                  .has_value());
  Event e;
  e.content = {7};
  ASSERT_TRUE(pub_b.publish(std::move(e)).has_value());
  scn.run_for(5_ms);
  EXPECT_EQ(rx_a, 1);
  EXPECT_EQ(gateway->counters().forwarded_b_to_a, 1u);
}

TEST_F(GatewayFixture, NoEchoLoop) {
  ASSERT_TRUE(gateway->bridge_srt(subject_of("x/data"), 5_ms, 10_ms).has_value());
  Srtec pub{a1->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("x/data"), {}, nullptr).has_value());
  Event e;
  e.content = {1};
  ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  scn.run_for(50_ms);  // plenty of time for any echo to circulate
  // Exactly one forward, nothing bounced back and forth.
  EXPECT_EQ(gateway->counters().forwarded_a_to_b, 1u);
  EXPECT_EQ(gateway->counters().forwarded_b_to_a, 0u);
}

TEST_F(GatewayFixture, LocalOnlySubscriberIgnoresForwardedEvents) {
  ASSERT_TRUE(gateway->bridge_srt(subject_of("x/data"), 5_ms, 10_ms).has_value());

  Srtec pub_a{a1->middleware()};
  ASSERT_TRUE(pub_a.announce(subject_of("x/data"), {}, nullptr).has_value());

  // On network B: one plain subscriber, one LocalOnly subscriber.
  Srtec plain{b1->middleware()};
  int plain_rx = 0;
  ASSERT_TRUE(plain.subscribe(subject_of("x/data"), {},
                              [&] {
                                ++plain_rx;
                                const auto e = plain.getEvent();
                                ASSERT_TRUE(e.has_value());
                                // Remote origin is tagged.
                                EXPECT_TRUE(e->attributes.remote);
                              },
                              nullptr)
                  .has_value());
  Node& b2 = scn.add_node(12, perfect(), 1);
  scn.register_gateway(21, 1);  // idempotent for the new node's benefit
  Srtec local_only{b2.middleware()};
  int local_rx = 0;
  ASSERT_TRUE(local_only.subscribe(subject_of("x/data"),
                                   AttributeList{attr::LocalOnly{}},
                                   [&] { ++local_rx; }, nullptr)
                  .has_value());

  Event e;
  e.content = {1};
  ASSERT_TRUE(pub_a.publish(std::move(e)).has_value());
  scn.run_for(5_ms);
  EXPECT_EQ(plain_rx, 1);
  EXPECT_EQ(local_rx, 0);  // filtered: event originated on network A
}

/// A subscriber on segment `seg` receives one SRT and one NRT event
/// published there (content 1) and one of each that a gateway forwards
/// from segment `seg - 1` (content 2); returns what each one's
/// EventAttributes::remote read, as (content, remote) pairs in arrival
/// order, SRT first.
std::vector<std::pair<int, bool>> origin_flags(int networks, int seg) {
  Scenario::Config cfg;
  cfg.networks = networks;
  Scenario scn{cfg};
  Node& far_pub_node = scn.add_node(1, perfect(), seg - 1);
  Node& local_pub_node = scn.add_node(2, perfect(), seg);
  Node& sub_node = scn.add_node(3, perfect(), seg);
  Node& gw_near = scn.add_node(20, perfect(), seg - 1);
  Node& gw_far = scn.add_node(21, perfect(), seg);
  Gateway gw{gw_near, gw_far, scn.link_gateway(gw_near, gw_far, 10_us)};
  const Subject srt = subject_of("origin/srt");
  const Subject nrt = subject_of("origin/nrt");
  EXPECT_TRUE(gw.bridge_srt(srt, 5_ms, 10_ms).has_value());
  EXPECT_TRUE(gw.bridge_nrt(nrt, /*fragmented=*/false, kNrtPriorityMax)
                  .has_value());

  std::vector<std::pair<int, bool>> srt_seen;
  std::vector<std::pair<int, bool>> nrt_seen;
  Srtec srt_sub{sub_node.middleware()};
  EXPECT_TRUE(srt_sub.subscribe(srt, {},
                                [&] {
                                  while (auto e = srt_sub.getEvent())
                                    srt_seen.emplace_back(e->content.at(0),
                                                          e->attributes.remote);
                                },
                                nullptr)
                  .has_value());
  Nrtec nrt_sub{sub_node.middleware()};
  EXPECT_TRUE(nrt_sub.subscribe(nrt, {},
                                [&] {
                                  while (auto e = nrt_sub.getEvent())
                                    nrt_seen.emplace_back(e->content.at(0),
                                                          e->attributes.remote);
                                },
                                nullptr)
                  .has_value());

  Srtec srt_far{far_pub_node.middleware()};
  Srtec srt_local{local_pub_node.middleware()};
  Nrtec nrt_far{far_pub_node.middleware()};
  Nrtec nrt_local{local_pub_node.middleware()};
  for (auto* pub : {&srt_far, &srt_local})
    EXPECT_TRUE(pub->announce(srt, {}, nullptr).has_value());
  for (auto* pub : {&nrt_far, &nrt_local})
    EXPECT_TRUE(pub->announce(nrt, {}, nullptr).has_value());
  EXPECT_TRUE(srt_local.publish(Event{srt, {1}}).has_value());
  EXPECT_TRUE(nrt_local.publish(Event{nrt, {1}}).has_value());
  EXPECT_TRUE(srt_far.publish(Event{srt, {2}}).has_value());
  EXPECT_TRUE(nrt_far.publish(Event{nrt, {2}}).has_value());
  scn.run_for(10_ms);

  srt_seen.insert(srt_seen.end(), nrt_seen.begin(), nrt_seen.end());
  return srt_seen;
}

// The remote flag follows the sending node alone: a local event reads
// local and a forwarded one remote on every segment, the last of a full
// kMaxNetworks scenario (id 255) included.
TEST(GatewayOrigin, LocalAndForwardedEventsOnAnySegment) {
  const std::vector<std::pair<int, bool>> want = {
      {1, false}, {2, true}, {1, false}, {2, true}};
  EXPECT_EQ(origin_flags(2, 1), want);
  EXPECT_EQ(origin_flags(Scenario::kMaxNetworks, Scenario::kMaxNetworks - 1),
            want);
}

TEST_F(GatewayFixture, NrtBulkBridgedWithReassembly) {
  ASSERT_TRUE(gateway->bridge_nrt(subject_of("x/blob"), /*fragmented=*/true,
                                  kNrtPriorityMax)
                  .has_value());
  const AttributeList frag{attr::Fragmentation{true}};
  Nrtec pub{a1->middleware()};
  Nrtec sub{b1->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("x/blob"), frag, nullptr).has_value());
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(sub.subscribe(subject_of("x/blob"), frag,
                            [&] {
                              if (auto e = sub.getEvent()) got = e->content;
                            },
                            nullptr)
                  .has_value());
  Event blob;
  blob.content.assign(500, 0x5A);
  ASSERT_TRUE(pub.publish(std::move(blob)).has_value());
  scn.run_for(50_ms);
  ASSERT_EQ(got.size(), 500u);
  EXPECT_EQ(got[0], 0x5A);
  EXPECT_EQ(got[499], 0x5A);
}

TEST_F(GatewayFixture, HrtBridgedViaOwnReservationOnTheFarSide) {
  // The HRT-bridging recipe from gateway.hpp: HRT channels are not
  // bridged automatically (a reservation only means something inside one
  // calendar); instead the gateway subscribes on A and re-publishes into
  // a slot reserved FOR THE GATEWAY on B. End-to-end latency is then the
  // sum of both slots' windows, and B-side subscribers keep the full
  // jitter-free delivery semantics.
  const Subject subject = subject_of("hrt/bridged");
  const Etag etag = *scn.binding().bind(subject);
  SlotSpec slot_a;
  slot_a.lst_offset = 1_ms;
  slot_a.etag = etag;
  slot_a.publisher = 1;  // a1 publishes on network A
  ASSERT_TRUE(scn.calendar(0).reserve(slot_a).has_value());
  SlotSpec slot_b;
  slot_b.lst_offset = 4_ms;  // later in the round: time to forward
  slot_b.etag = etag;
  slot_b.publisher = 21;  // the gateway's B-side stack owns the B slot
  ASSERT_TRUE(scn.calendar(1).reserve(slot_b).has_value());

  Hrtec pub{a1->middleware()};
  ASSERT_TRUE(pub.announce(subject, {}, nullptr).has_value());

  // Gateway glue: subscribe on A, re-publish on B.
  Hrtec gw_sub{gw_a->middleware()};
  Hrtec gw_pub{gw_b->middleware()};
  ASSERT_TRUE(gw_pub.announce(subject, {}, nullptr).has_value());
  ASSERT_TRUE(gw_sub.subscribe(subject, {},
                               [&] {
                                 while (auto e = gw_sub.getEvent()) {
                                   Event fwd;
                                   fwd.content = std::move(e->content);
                                   (void)gw_pub.publish(std::move(fwd));
                                 }
                               },
                               nullptr)
                  .has_value());

  Hrtec sub{b1->middleware()};
  std::vector<TimePoint> deliveries;
  ASSERT_TRUE(sub.subscribe(subject, AttributeList{attr::QueueCapacity{8}},
                            [&] {
                              (void)sub.getEvent();
                              deliveries.push_back(b1->clock().now());
                            },
                            nullptr)
                  .has_value());

  for (int r = 0; r < 3; ++r) {
    scn.sim().schedule_at(TimePoint::origin() + 10_ms * r, [&] {
      Event e;
      e.content = {0x42};
      (void)pub.publish(std::move(e));
    });
  }
  scn.run_for(35_ms);

  // Every event crossed both segments and was delivered exactly at the
  // B-side slot deadlines (A delivery ~1.157 ms -> B slot ready 3.84 ms
  // of the same round -> B delivery at its deadline).
  ASSERT_EQ(deliveries.size(), 3u);
  const auto b_first = scn.calendar(1).instance_at_or_after(
      scn.calendar(1).size() - 1, TimePoint::origin());
  for (int r = 0; r < 3; ++r)
    EXPECT_EQ(deliveries[static_cast<std::size_t>(r)].ns(),
              (b_first.deadline + 10_ms * r).ns());
}

TEST_F(GatewayFixture, IndependentCalendarsPerNetwork) {
  // Reserve the same LST on both networks for different publishers —
  // separate calendars must both accept.
  SlotSpec s;
  s.lst_offset = 2_ms;
  s.etag = *scn.binding().bind(subject_of("hrt/a"));
  s.publisher = 1;
  ASSERT_TRUE(scn.calendar(0).reserve(s).has_value());
  SlotSpec s2;
  s2.lst_offset = 2_ms;
  s2.etag = *scn.binding().bind(subject_of("hrt/b"));
  s2.publisher = 11;
  ASSERT_TRUE(scn.calendar(1).reserve(s2).has_value());

  // And HRT streams run concurrently without interfering (separate buses).
  Hrtec pub_a{a1->middleware()};
  Hrtec pub_b{b1->middleware()};
  ASSERT_TRUE(pub_a.announce(subject_of("hrt/a"), {}, nullptr).has_value());
  ASSERT_TRUE(pub_b.announce(subject_of("hrt/b"), {}, nullptr).has_value());
  Hrtec sub_a{a2->middleware()};
  int rx = 0;
  ASSERT_TRUE(
      sub_a.subscribe(subject_of("hrt/a"), {}, [&] { ++rx; }, nullptr)
          .has_value());
  Event e1;
  e1.content = {1};
  ASSERT_TRUE(pub_a.publish(std::move(e1)).has_value());
  Event e2;
  e2.content = {2};
  ASSERT_TRUE(pub_b.publish(std::move(e2)).has_value());
  scn.run_for(5_ms);
  EXPECT_EQ(rx, 1);
}

// Three segments in a chain, two gateways. Without transit forwarding a
// subject travels exactly one hop: the default gateway subscription is
// LocalOnly, so the second gateway ignores what the first forwarded into
// the middle segment. With forward_transit the event relays end to end,
// and the no-echo property still holds (sender exclusion, acyclic chain).
TEST(GatewayTransit, ChainRelaysOnlyWithForwardTransit) {
  for (const bool transit : {false, true}) {
    Scenario::Config cfg;
    cfg.networks = 3;
    Scenario scn{cfg};
    Node& pub_node = scn.add_node(1, perfect(), 0);
    Node& sub_node = scn.add_node(11, perfect(), 2);
    Node& g0a = scn.add_node(20, perfect(), 0);
    Node& g0b = scn.add_node(21, perfect(), 1);
    Node& g1a = scn.add_node(22, perfect(), 1);
    Node& g1b = scn.add_node(23, perfect(), 2);
    Gateway gw0{g0a, g0b, scn.link_gateway(g0a, g0b, 250_us)};
    Gateway gw1{g1a, g1b, scn.link_gateway(g1a, g1b, 250_us)};
    const Subject subj = subject_of("chain/data");
    ASSERT_TRUE(gw0.bridge_srt(subj, 5_ms, 10_ms, transit).has_value());
    ASSERT_TRUE(gw1.bridge_srt(subj, 5_ms, 10_ms, transit).has_value());

    Srtec pub{pub_node.middleware()};
    ASSERT_TRUE(pub.announce(subj, {}, nullptr).has_value());
    Srtec sub{sub_node.middleware()};
    int rx = 0;
    ASSERT_TRUE(sub.subscribe(subj, {},
                              [&] {
                                while (sub.getEvent()) ++rx;
                              },
                              nullptr)
                    .has_value());
    Event e;
    e.content = {0x42};
    ASSERT_TRUE(pub.publish(std::move(e)).has_value());
    scn.run_for(50_ms);

    EXPECT_EQ(rx, transit ? 1 : 0) << "transit=" << transit;
    EXPECT_EQ(gw0.counters().forwarded_a_to_b, 1u);
    EXPECT_EQ(gw1.counters().forwarded_a_to_b, transit ? 1u : 0u);
    // Nothing circulates back toward the publisher in either mode.
    EXPECT_EQ(gw0.counters().forwarded_b_to_a, 0u);
    EXPECT_EQ(gw1.counters().forwarded_b_to_a, 0u);
  }
}

}  // namespace
}  // namespace rtec
