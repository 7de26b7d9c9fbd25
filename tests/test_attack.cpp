#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "canbus/attack.hpp"
#include "canbus/bus.hpp"
#include "canbus/controller.hpp"
#include "core/gateway.hpp"
#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "sched/id_codec.hpp"
#include "sim/simulator.hpp"
#include "trace/binary.hpp"
#include "trace/candump.hpp"
#include "trace/detectors.hpp"
#include "util/task_pool.hpp"

/// Adversarial workloads (canbus/attack.hpp): same-identifier collision
/// physics, the four attack families through the real submission path,
/// candump interop for injected traffic, detector wiring through
/// Scenario, and the byte-identical sharding contract under attack.

namespace rtec {
namespace {

using namespace rtec::literals;

constexpr TimePoint at_ms(std::int64_t ms) {
  return TimePoint::origin() + Duration::milliseconds(ms);
}

/// Controller-level periodic publisher: one single-shot frame of `id`
/// every `period` in [from, until). Bypasses the middleware so attack
/// tests control the exact benign timing process.
void periodic_publisher(Simulator& sim, CanController& c, std::uint32_t id,
                        Duration period, TimePoint from, TimePoint until,
                        TaskPool& pool) {
  auto* tick = pool.make();
  auto next = std::make_shared<TimePoint>(from);
  *tick = [&sim, &c, id, period, until, next, tick] {
    if (*next >= until) return;
    CanFrame f;
    f.id = id;
    f.dlc = 8;
    (void)c.submit(f, TxMode::kSingleShot);
    *next += period;
    sim.schedule_at(*next, [tick] { (*tick)(); });
  };
  sim.schedule_at(from, [tick] { (*tick)(); });
}

// ----------------------------- same-identifier collision semantics ------

struct CollisionFixture : ::testing::Test {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController a{sim, 1};
  CanController b{sim, 2};
  CanController rx{sim, 3};
  std::vector<CanBus::FrameEvent> events;

  void SetUp() override {
    bus.attach(a);
    bus.attach(b);
    bus.attach(rx);
    bus.add_observer(
        [this](const CanBus::FrameEvent& ev) { events.push_back(ev); });
  }
};

TEST_F(CollisionFixture, DifferingPayloadsCorruptAtFirstDifferingBit) {
  CanFrame fa;
  fa.id = 0x100;
  fa.dlc = 1;
  fa.data = {0x00};
  CanFrame fb = fa;
  fb.data[0] = 0xff;

  ASSERT_TRUE(a.submit(fa, TxMode::kSingleShot).has_value());
  ASSERT_TRUE(b.submit(fb, TxMode::kSingleShot).has_value());
  sim.run();

  ASSERT_EQ(events.size(), 1u);
  const CanBus::FrameEvent& ev = events.front();
  EXPECT_TRUE(ev.collision);
  EXPECT_FALSE(ev.success);
  // The deterministic primary is the lower NodeId.
  EXPECT_EQ(ev.sender, 1u);
  const int diff = frame_first_difference_bit(fa, fb);
  ASSERT_GT(diff, 0);
  EXPECT_EQ(ev.wire_bits, diff + kErrorFrameBits);
  // Both transmitters take the tx-error hit; the receiver sees one
  // corrupted attempt.
  EXPECT_EQ(a.tec(), 8);
  EXPECT_EQ(b.tec(), 8);
  EXPECT_EQ(rx.rec(), 1);
}

TEST_F(CollisionFixture, BitIdenticalFramesSuperimposeCleanly) {
  CanFrame f;
  f.id = 0x100;
  f.dlc = 2;
  f.data = {0xAB, 0xCD};
  EXPECT_EQ(frame_first_difference_bit(f, f), 0);

  int rx_count = 0;
  rx.add_rx_listener([&](const CanFrame& got, TimePoint) {
    EXPECT_EQ(got.id, 0x100u);
    ++rx_count;
  });
  bool a_ok = false;
  bool b_ok = false;
  ASSERT_TRUE(a.submit(f, TxMode::kSingleShot,
                       [&](CanController::MailboxId, const CanFrame&,
                           bool success, TimePoint) { a_ok = success; })
                  .has_value());
  ASSERT_TRUE(b.submit(f, TxMode::kSingleShot,
                       [&](CanController::MailboxId, const CanFrame&,
                           bool success, TimePoint) { b_ok = success; })
                  .has_value());
  sim.run();

  // One frame on the wire, received once, acknowledged to both senders.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events.front().success);
  EXPECT_TRUE(events.front().collision);
  EXPECT_EQ(rx_count, 1);
  EXPECT_TRUE(a_ok);
  EXPECT_TRUE(b_ok);
  EXPECT_EQ(a.tec(), 0);
  EXPECT_EQ(b.tec(), 0);
}

// --------------------------------------------- attack families ----------

TEST(AttackScenario, SpoofingInjectsThroughArbitration) {
  Scenario scn;
  scn.add_node(1);
  const std::uint32_t spoofed = encode_can_id({10, 1, 100});

  int seen = 0;
  scn.bus().add_observer([&](const CanBus::FrameEvent& ev) {
    if (ev.success && ev.frame.id == spoofed) ++seen;
  });

  SpoofingAttack::Config cfg;
  cfg.id = spoofed;
  cfg.from = at_ms(10);
  cfg.to = at_ms(110);
  cfg.period = 10_ms;
  AttackModel& atk = scn.install_attack(std::make_unique<SpoofingAttack>(cfg),
                                        /*attacker_id=*/9, /*seed=*/42);
  scn.run_for(200_ms);

  // Slots at 10, 20, ..., 100 ms: ten injections, all delivered (the bus
  // is otherwise idle).
  EXPECT_EQ(atk.frames_injected(), 10u);
  EXPECT_EQ(atk.frames_delivered(), 10u);
  EXPECT_EQ(seen, 10);
}

TEST(AttackScenario, FuzzingStaysInsideConfiguredIdBands) {
  Scenario scn;
  scn.add_node(1);

  std::vector<std::uint32_t> fuzzed;
  scn.bus().add_observer([&](const CanBus::FrameEvent& ev) {
    if (ev.success && ev.sender == 9) fuzzed.push_back(ev.frame.id);
  });

  FuzzingAttack::Config cfg;
  cfg.from = at_ms(0);
  cfg.to = at_ms(100);
  cfg.mean_gap = 2_ms;
  AttackModel& atk = scn.install_attack(std::make_unique<FuzzingAttack>(cfg),
                                        /*attacker_id=*/9, /*seed=*/7);
  scn.run_for(150_ms);

  EXPECT_GT(atk.frames_injected(), 10u);
  EXPECT_EQ(atk.frames_delivered(), static_cast<std::uint64_t>(fuzzed.size()));
  ASSERT_FALSE(fuzzed.empty());
  for (const std::uint32_t id : fuzzed) {
    const CanIdFields f = decode_can_id(id);
    // Defaults keep the attack off HRT priority 0 and the infrastructure
    // etags (sync rounds, binding protocol).
    EXPECT_GE(f.priority, kSrtPriorityMin);
    EXPECT_GE(f.etag, kFirstApplicationEtag);
  }
}

TEST(AttackScenario, ReplayReproducesRecordedTraffic) {
  Scenario scn;
  Node& victim = scn.add_node(1);
  TaskPool pool;
  const std::uint32_t id = encode_can_id({5, 1, 200});
  periodic_publisher(scn.sim(), victim.controller(), id, 10_ms, at_ms(5),
                     at_ms(100), pool);

  int replayed = 0;
  scn.bus().add_observer([&](const CanBus::FrameEvent& ev) {
    if (ev.success && ev.sender == 9 && ev.frame.id == id) ++replayed;
  });

  ReplayAttack::Config cfg;
  cfg.record_from = at_ms(0);
  cfg.record_to = at_ms(100);
  cfg.replay_at = at_ms(200);
  auto attack = std::make_unique<ReplayAttack>(cfg);
  ReplayAttack& replay = *attack;
  scn.install_attack(std::move(attack), /*attacker_id=*/9, /*seed=*/3);
  scn.run_for(400_ms);

  // Victim published at 5, 15, ..., 95 ms: ten frames on the tape, all
  // re-submitted with the original spacing after replay_at.
  EXPECT_EQ(replay.frames_recorded(), 10u);
  EXPECT_EQ(replayed, 10);
}

TEST(AttackScenario, SuspensionSilencesVictimForTheWindow) {
  Scenario scn;
  Node& victim = scn.add_node(1);
  TaskPool pool;
  const std::uint32_t id = encode_can_id({5, 1, 300});
  periodic_publisher(scn.sim(), victim.controller(), id, 10_ms, at_ms(5),
                     at_ms(300), pool);

  int before = 0;
  int during = 0;
  int after = 0;
  scn.bus().add_observer([&](const CanBus::FrameEvent& ev) {
    if (!ev.success || ev.sender != 1) return;
    if (ev.end < at_ms(100))
      ++before;
    else if (ev.end < at_ms(200))
      ++during;
    else
      ++after;
  });

  SuspensionAttack::Config cfg;
  cfg.victim = 1;
  cfg.from = at_ms(100);
  cfg.to = at_ms(200);
  scn.install_attack(std::make_unique<SuspensionAttack>(cfg),
                     /*attacker_id=*/9, /*seed=*/0);
  scn.run_for(300_ms);

  EXPECT_GT(before, 0);
  EXPECT_EQ(during, 0);  // the victim's stream vanishes from the bus
  EXPECT_GT(after, 0);   // and resumes when the window closes
}

// --------------------------------------- candump interop ----------------

TEST(AttackTrace, SpoofedFramesCandumpRoundTrip) {
  Scenario scn;
  scn.add_node(1);
  const trace::RtebWriter& rec = scn.record_rteb();

  SpoofingAttack::Config cfg;
  cfg.id = encode_can_id({10, 1, 77});
  cfg.from = at_ms(10);
  cfg.to = at_ms(60);
  cfg.period = 10_ms;
  scn.install_attack(std::make_unique<SpoofingAttack>(cfg),
                     /*attacker_id=*/9, /*seed=*/1);
  scn.run_for(100_ms);

  const auto log = trace::rteb_to_candump(rec.bytes(), "rtec0");
  ASSERT_TRUE(log.has_value()) << log.error();
  const std::vector<CandumpEntry> entries = parse_candump(*log);
  ASSERT_EQ(entries.size(), 5u);
  for (const CandumpEntry& e : entries) {
    EXPECT_EQ(e.frame.id, cfg.id);
    EXPECT_EQ(e.frame.dlc, SpoofingAttack::kDlc);
    EXPECT_EQ(e.frame.data, (std::array<std::uint8_t, 8>{}));
  }

  // The log replays into a fresh simulation: same frames, same count.
  Simulator sim2;
  CanBus bus2{sim2, BusConfig{}};
  CanController tx{sim2, 9};
  CanController listener{sim2, 3};
  bus2.attach(tx);
  bus2.attach(listener);
  int redelivered = 0;
  listener.add_rx_listener([&](const CanFrame& got, TimePoint) {
    EXPECT_EQ(got.id, cfg.id);
    ++redelivered;
  });
  EXPECT_EQ(replay_candump(sim2, tx, entries, at_ms(1)), 5u);
  sim2.run();
  EXPECT_EQ(redelivered, 5);
}

// ------------------------------- detectors wired through Scenario -------

TEST(AttackScenario, DetectorsFlagSpoofedStreamEndToEnd) {
  Scenario scn;
  Node& victim = scn.add_node(1);
  TaskPool pool;
  const std::uint32_t id = encode_can_id({5, 1, 400});
  periodic_publisher(scn.sim(), victim.controller(), id, 10_ms, at_ms(5),
                     at_ms(2000), pool);

  trace::DetectorBank& bank = scn.detectors();
  trace::MeanIatGate::Config gate_cfg;
  gate_cfg.train_until = at_ms(500);
  trace::Detector& gate =
      bank.add(std::make_unique<trace::MeanIatGate>(gate_cfg));
  trace::CusumDetector::Config cusum_cfg;
  cusum_cfg.train_until = at_ms(500);
  trace::Detector& cusum =
      bank.add(std::make_unique<trace::CusumDetector>(cusum_cfg));
  trace::WindowFrequencyDetector::Config win_cfg;
  win_cfg.train_until = at_ms(500);
  win_cfg.window = 100_ms;
  trace::Detector& win =
      bank.add(std::make_unique<trace::WindowFrequencyDetector>(win_cfg));

  // Spoof the victim's exact identifier at the victim's own rate,
  // phase-shifted: the stream's arrival process collapses to ~5 ms IATs.
  SpoofingAttack::Config atk_cfg;
  atk_cfg.id = id;
  atk_cfg.from = at_ms(1000);
  atk_cfg.to = at_ms(1500);
  atk_cfg.period = 10_ms;
  scn.install_attack(std::make_unique<SpoofingAttack>(atk_cfg),
                     /*attacker_id=*/9, /*seed=*/11);

  scn.run_for(2000_ms);
  scn.flush_streams();

  EXPECT_GT(scn.tapped_deliveries(), 100u);
  for (const trace::Detector* d : {&gate, &cusum, &win}) {
    EXPECT_GT(d->alarm_count(), 0u) << d->name();
    ASSERT_TRUE(d->first_alarm().has_value()) << d->name();
    // Quiet through the benign half (no false positives before the attack
    // begins), alarms soon after it does.
    EXPECT_GE(*d->first_alarm(), at_ms(1000)) << d->name();
    EXPECT_LT(*d->first_alarm(), at_ms(1300)) << d->name();
  }
}

// ------------------------------- sharding determinism under attack ------

std::string format_frame(const CanBus::FrameEvent& ev) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%lld-%lld id=%u n=%u ok=%d bits=%d a=%d c=%d",
                static_cast<long long>(ev.start.ns()),
                static_cast<long long>(ev.end.ns()), ev.frame.id,
                static_cast<unsigned>(ev.sender), ev.success ? 1 : 0,
                ev.wire_bits, ev.attempt, ev.collision ? 1 : 0);
  return buf;
}

/// Two bridged segments, all four attack families live, full per-segment
/// frame traces as the observable.
std::vector<std::vector<std::string>> run_attacked_multiseg(int shards,
                                                            unsigned threads) {
  Scenario::Config cfg;
  cfg.networks = 2;
  cfg.shards = shards;
  cfg.threads = threads;
  Scenario scn{cfg};
  TaskPool pool;

  std::vector<std::vector<std::string>> traces(2);
  for (int net = 0; net < 2; ++net) {
    auto* trace = &traces[static_cast<std::size_t>(net)];
    scn.bus(net).add_observer([trace](const CanBus::FrameEvent& ev) {
      trace->push_back(format_frame(ev));
    });
  }

  // Regular nodes publishing controller-level periodic streams.
  for (int net = 0; net < 2; ++net) {
    for (NodeId k : {NodeId{1}, NodeId{2}}) {
      Node& n = scn.add_node(k, {}, net);
      periodic_publisher(
          scn.segment_sim(net), n.controller(),
          encode_can_id({5, k, static_cast<Etag>(500 + net * 10 + k)}),
          7_ms + Duration::milliseconds(k), at_ms(2 + k), at_ms(200), pool);
    }
  }

  // A bridged SRT subject so the shards actually exchange handoffs.
  Node& ga = scn.add_node(40, {}, 0);
  Node& gb = scn.add_node(41, {}, 1);
  Gateway gw{ga, gb, scn.link_gateway(ga, gb, 250_us)};
  const Subject subj = subject_of("atk/bridge");
  EXPECT_TRUE(gw.bridge_srt(subj, 10_ms, 30_ms).has_value());
  Srtec pub{scn.node(1, 0).middleware()};
  EXPECT_TRUE(pub.announce(subj, AttributeList{attr::Deadline{10_ms}}, nullptr)
                  .has_value());
  Srtec sub{scn.node(2, 1).middleware()};
  EXPECT_TRUE(
      sub.subscribe(subj, {}, [&sub] { (void)sub.getEvent(); }, nullptr)
          .has_value());
  auto* feed = pool.make();
  Simulator* sim0 = &scn.segment_sim(0);
  *feed = [&pub, sim0, feed] {
    Event e;
    e.content = {0x42};
    (void)pub.publish(std::move(e));
    sim0->schedule_after(9_ms, [feed] { (*feed)(); });
  };
  sim0->schedule_after(4_ms, [feed] { (*feed)(); });

  // All four attack families: spoof + suspension on segment 0 (the spoof
  // targets node 1's stream id), fuzz + replay on segment 1.
  SpoofingAttack::Config spoof;
  spoof.id = encode_can_id({5, 1, 501});
  spoof.from = at_ms(40);
  spoof.to = at_ms(120);
  spoof.period = 4_ms;
  spoof.jitter = 500_us;
  scn.install_attack(std::make_unique<SpoofingAttack>(spoof), 9, 1001, 0);

  SuspensionAttack::Config susp;
  susp.victim = 2;
  susp.from = at_ms(80);
  susp.to = at_ms(140);
  scn.install_attack(std::make_unique<SuspensionAttack>(susp), 9, 0, 0);

  FuzzingAttack::Config fuzz;
  fuzz.from = at_ms(30);
  fuzz.to = at_ms(150);
  fuzz.mean_gap = 3_ms;
  scn.install_attack(std::make_unique<FuzzingAttack>(fuzz), 9, 2002, 1);

  ReplayAttack::Config rep;
  rep.record_from = at_ms(0);
  rep.record_to = at_ms(60);
  rep.replay_at = at_ms(160);
  scn.install_attack(std::make_unique<ReplayAttack>(rep), 10, 3003, 1);

  scn.run_for(220_ms);
  return traces;
}

TEST(AttackMultiseg, ByteIdenticalAcrossShardsAndThreads) {
  const auto ref = run_attacked_multiseg(/*shards=*/1, /*threads=*/1);
  std::size_t total = 0;
  for (const auto& t : ref) total += t.size();
  ASSERT_GT(total, 100u) << "attacked workload too idle to be a meaningful diff";

  for (const unsigned threads : {1u, 2u, 4u}) {
    const auto got = run_attacked_multiseg(/*shards=*/2, threads);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t net = 0; net < ref.size(); ++net) {
      ASSERT_EQ(got[net].size(), ref[net].size())
          << "frame count, segment " << net << ", threads " << threads;
      for (std::size_t i = 0; i < ref[net].size(); ++i)
        ASSERT_EQ(got[net][i], ref[net][i])
            << "segment " << net << ", frame " << i << ", threads " << threads;
    }
  }
}

}  // namespace
}  // namespace rtec
