#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "sim/handoff.hpp"
#include "sim/shard_engine.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

// Kernel injected lane + conservative shard engine (sim/shard_engine.hpp):
// the ordering rules that make sharded execution bit-identical to
// sequential execution, and the lookahead/barrier machinery itself.

namespace rtec {
namespace {

using literals::operator""_ns;
using literals::operator""_us;
using literals::operator""_ms;

TimePoint at_ns(std::int64_t t) { return TimePoint::from_ns(t); }

// --- Simulator injected lane -------------------------------------------

TEST(InjectedLane, RunsAfterLocalEventsAtEqualTimestamp) {
  Simulator sim;
  std::vector<std::string> log;
  sim.schedule_injected(at_ns(100), /*channel=*/0, /*seq=*/0,
                        [&] { log.push_back("inj"); });
  sim.schedule_at(at_ns(100), [&] { log.push_back("local1"); });
  sim.schedule_at(at_ns(100), [&] { log.push_back("local2"); });
  sim.run_until(at_ns(100));
  // Locals keep FIFO order and all precede the injected event, even though
  // the injection was scheduled first.
  EXPECT_EQ(log, (std::vector<std::string>{"local1", "local2", "inj"}));
}

TEST(InjectedLane, OrderIsChannelThenSequenceNotInsertionTime) {
  // Two interleavings of the same injected set must execute identically:
  // the tie-break key is (channel, seq), never the insertion order.
  const auto run = [](bool reversed) {
    Simulator sim;
    std::vector<std::string> log;
    const auto inject = [&](std::uint32_t chan, std::uint64_t seq) {
      sim.schedule_injected(at_ns(50), chan, seq, [&log, chan, seq] {
        log.push_back("c" + std::to_string(chan) + "s" + std::to_string(seq));
      });
    };
    if (reversed) {
      inject(2, 0);
      inject(1, 1);
      inject(1, 0);
    } else {
      inject(1, 0);
      inject(1, 1);
      inject(2, 0);
    }
    sim.run_until(at_ns(50));
    return log;
  };
  const std::vector<std::string> want{"c1s0", "c1s1", "c2s0"};
  EXPECT_EQ(run(false), want);
  EXPECT_EQ(run(true), want);
}

TEST(InjectedLane, EventsScheduledByInjectedCallbackUseTheLocalBand) {
  Simulator sim;
  std::vector<std::string> log;
  sim.schedule_injected(at_ns(10), 0, 0, [&] {
    log.push_back("inj0");
    // Same-timestamp local event scheduled from inside an injected
    // callback: it sorts in the local band, but having already passed it,
    // the heap pops it after the current event — before the next injected
    // entry only if its key says so. The local band precedes the injected
    // band, so it runs before inj1.
    sim.schedule_at(at_ns(10), [&] { log.push_back("local"); });
  });
  sim.schedule_injected(at_ns(10), 0, 1, [&] { log.push_back("inj1"); });
  sim.run_until(at_ns(10));
  EXPECT_EQ(log, (std::vector<std::string>{"inj0", "local", "inj1"}));
}

TEST(InjectedLane, PeekAndRunBefore) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(at_ns(10), [&] { ++fired; });
  sim.schedule_at(at_ns(20), [&] { ++fired; });
  auto h = sim.schedule_at(at_ns(5), [&] { ++fired; });
  sim.cancel(h);

  EXPECT_EQ(sim.peek_next_time().ns(), 10);  // pruned the cancelled front
  sim.run_before(at_ns(20));                 // strictly-before horizon
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ns(), 10);  // parked at the last executed event
  EXPECT_EQ(sim.peek_next_time().ns(), 20);
  sim.run_before(at_ns(21));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.peek_next_time(), TimePoint::max());
}

// --- HandoffChannel ----------------------------------------------------

TEST(HandoffChannel, UnbufferedInjectsImmediatelyWithLatencyStamp) {
  Simulator sim;
  HandoffChannel chan{sim, /*id=*/3, /*latency=*/10_us, /*batch=*/nullptr};
  std::vector<std::int64_t> deliveries;
  sim.schedule_at(at_ns(1000), [&] {
    chan.post(sim.now(), [&] { deliveries.push_back(sim.now().ns()); });
  });
  sim.run_until(at_ns(1'000'000));
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], 1000 + 10'000);
  EXPECT_EQ(chan.posted(), 1u);
  EXPECT_FALSE(chan.buffered());
}

TEST(HandoffBatch, HoldsUntilDrainAndPreservesFifo) {
  Simulator dest;
  HandoffBatch batch{dest};
  HandoffChannel chan{dest, 1, 5_us, &batch};
  std::vector<int> order;
  chan.post(at_ns(100), [&] { order.push_back(0); });
  chan.post(at_ns(100), [&] { order.push_back(1); });  // same send slot
  chan.post(at_ns(100), [&] { order.push_back(2); });
  EXPECT_TRUE(chan.buffered());
  EXPECT_EQ(batch.pending(), 3u);
  EXPECT_EQ(dest.pending(), 0u);

  EXPECT_EQ(batch.earliest(), at_ns(100) + 5_us);
  EXPECT_EQ(batch.seal(), 3u);
  EXPECT_EQ(batch.pending(), 0u);
  EXPECT_EQ(dest.pending(), 0u);  // sealed, not yet injected
  batch.inject();
  EXPECT_EQ(dest.pending(), 3u);
  dest.run_until(at_ns(100) + 5_us);
  // All three release at the same stamped instant, in post order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(HandoffBatch, ReleaseStampsSurviveBatchingAcrossChannels) {
  // Two channels of one direction share a batch. Posts interleave in an
  // order adversarial to both channel id and release time; every delivery
  // must still land at exactly send + its channel's latency, and ties at
  // one instant must resolve by (channel, seq) — never by post order.
  Simulator dest;
  HandoffBatch batch{dest};
  HandoffChannel fast{dest, 2, 5_us, &batch};
  HandoffChannel slow{dest, 1, 40_us, &batch};
  std::vector<std::string> log;
  const auto tag = [&](const char* name) {
    return [&log, &dest, name] {
      log.push_back(std::string{name} + "@" + std::to_string(dest.now().ns()));
    };
  };
  slow.post(at_ns(0), tag("slow0"));     // releases at 40'000
  fast.post(at_ns(10'000), tag("fast0"));  // releases at 15'000
  fast.post(at_ns(35'000), tag("fast1"));  // releases at 40'000 (tie)
  slow.post(at_ns(5'000), tag("slow1"));   // releases at 45'000
  EXPECT_EQ(batch.pending(), 4u);
  EXPECT_EQ(batch.earliest(), at_ns(15'000));  // min release, not first post
  batch.seal();
  batch.inject();
  dest.run_until(at_ns(100'000));
  // At the 40'000 tie the lower channel id (slow, id 1) precedes fast's
  // entry even though fast1 was posted earlier.
  EXPECT_EQ(log, (std::vector<std::string>{"fast0@15000", "slow0@40000",
                                           "fast1@40000", "slow1@45000"}));
}

// --- ShardEngine -------------------------------------------------------

/// Two shards exchanging ping-pong handoffs plus local chatter; the log of
/// (shard, time, tag) triples is the full observable behavior.
struct PingPong {
  Simulator a;
  Simulator b;
  ShardEngine engine;
  HandoffChannel* ab = nullptr;
  HandoffChannel* ba = nullptr;
  std::vector<std::string> log_a;
  std::vector<std::string> log_b;

  explicit PingPong(unsigned threads) {
    engine.add_shard(a);
    engine.add_shard(b);
    ab = &engine.link(0, 1, 10_us);
    ba = &engine.link(1, 0, 10_us);
    engine.set_threads(threads);
  }

  void build(int bounces) {
    // Local chatter on both shards at adversarially tied timestamps.
    for (int i = 0; i < 50; ++i) {
      a.schedule_at(at_ns(i * 7'000), [this] {
        log_a.push_back("tick@" + std::to_string(a.now().ns()));
      });
      b.schedule_at(at_ns(i * 7'000), [this] {
        log_b.push_back("tock@" + std::to_string(b.now().ns()));
      });
    }
    // Ping-pong: a → b → a → ..., `bounces` crossings.
    a.schedule_at(at_ns(1'000), [this, bounces] { ping(bounces); });
  }

  void ping(int remaining) {
    log_a.push_back("ping@" + std::to_string(a.now().ns()));
    if (remaining <= 0) return;
    ab->post(a.now(), [this, remaining] { pong(remaining - 1); });
  }

  void pong(int remaining) {
    log_b.push_back("pong@" + std::to_string(b.now().ns()));
    if (remaining <= 0) return;
    ba->post(b.now(), [this, remaining] { ping(remaining - 1); });
  }
};

TEST(ShardEngine, PingPongCrossesAtExactLatencyStamps) {
  PingPong pp{1};
  pp.build(4);
  pp.engine.run_until(at_ns(1'000'000));
  // ping at 1000, pong at 11000, ping at 21000, ...
  EXPECT_NE(std::find(pp.log_a.begin(), pp.log_a.end(), "ping@21000"),
            pp.log_a.end());
  EXPECT_NE(std::find(pp.log_b.begin(), pp.log_b.end(), "pong@11000"),
            pp.log_b.end());
  EXPECT_NE(std::find(pp.log_b.begin(), pp.log_b.end(), "pong@31000"),
            pp.log_b.end());
  EXPECT_EQ(pp.engine.incoming_lookahead(0).ns(), (10_us).ns());
  EXPECT_EQ(pp.engine.incoming_lookahead(1).ns(), (10_us).ns());
  EXPECT_GT(pp.engine.stats().epochs, 0u);
  EXPECT_EQ(pp.engine.stats().handoffs, 4u);
  EXPECT_EQ(pp.a.now().ns(), 1'000'000);
  EXPECT_EQ(pp.b.now().ns(), 1'000'000);
}

TEST(ShardEngine, BitIdenticalAcrossThreadCounts) {
  // Thread counts beyond the shard count clamp to it; the run is driven in
  // slices, so the helper threads are reused across run_until calls.
  std::vector<std::string> ref_a;
  std::vector<std::string> ref_b;
  for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    PingPong pp{threads};
    pp.build(20);
    for (std::int64_t t = 250'000; t <= 2'000'000; t += 250'000)
      pp.engine.run_until(at_ns(t));
    const ShardEngine::Stats& st = pp.engine.stats();
    if (threads == 1u) {
      ref_a = pp.log_a;
      ref_b = pp.log_b;
      EXPECT_EQ(st.barrier_spins + st.barrier_parks, 0u);
      continue;
    }
    EXPECT_EQ(pp.log_a, ref_a) << threads << " threads";
    EXPECT_EQ(pp.log_b, ref_b) << threads << " threads";
    EXPECT_GT(st.barrier_spins + st.barrier_parks, 0u) << threads << " threads";
  }
  ASSERT_FALSE(ref_a.empty());
}

TEST(ShardEngine, RepeatedRunUntilInjectsLeftoverHandoffs) {
  // A handoff committed in one run call whose release falls beyond the
  // horizon must be delivered by the next call.
  PingPong pp{2};
  int delivered = 0;
  pp.a.schedule_at(at_ns(90'000), [&] {
    pp.ab->post(pp.a.now(), [&] { ++delivered; });  // releases at 100'000
  });
  pp.engine.run_until(at_ns(95'000));
  EXPECT_EQ(delivered, 0);
  pp.engine.run_until(at_ns(200'000));
  EXPECT_EQ(delivered, 1);
}

TEST(ShardEngine, EventScheduledOnIdleShardBetweenCallsFiresAtItsStamp) {
  // Shard b is empty through the first call, so no epoch runs or feeds it.
  // An event scheduled on it from outside before the second call must be
  // seen by that call's first barrier: it fires at its stamp, and the
  // handoff it sends reaches busy shard a at exactly its release.
  Simulator a;
  Simulator b;
  ShardEngine engine;
  engine.add_shard(a);
  engine.add_shard(b);
  HandoffChannel& ba = engine.link(1, 0, 10_us);
  engine.link(0, 1, 10_us);
  engine.set_threads(2);

  std::vector<std::int64_t> a_times;
  for (int i = 0; i < 300; ++i)
    a.schedule_at(at_ns(i * 1'000), [&] { a_times.push_back(a.now().ns()); });
  engine.run_until(at_ns(100'000));

  std::int64_t fired_at = -1;
  b.schedule_at(at_ns(150'500), [&] {
    fired_at = b.now().ns();
    ba.post(b.now(), [&] { a_times.push_back(-a.now().ns()); });
  });
  engine.run_until(at_ns(300'000));

  EXPECT_EQ(fired_at, 150'500);
  const auto it = std::find(a_times.begin(), a_times.end(), -160'500);
  ASSERT_NE(it, a_times.end());
  for (auto p = a_times.begin(); p != it; ++p) EXPECT_LT(*p, 160'500);
  for (auto p = it + 1; p != a_times.end(); ++p) EXPECT_GE(*p, 160'500);
}

TEST(ShardEngine, HandoffIntoSkippedShardIsDeliveredAtItsRelease) {
  // Shard b holds one far-future event, so while busy shard a trails it
  // by less than the link latency b is skipped (pending work, no safe
  // horizon). A handoff sealed for b must refresh its next time at the
  // barrier: b then runs the delivery at its release and the reply lands
  // in a's stream at exactly its own release.
  for (const unsigned threads : {1u, 2u}) {
    Simulator a;
    Simulator b;
    ShardEngine engine;
    engine.add_shard(a);
    engine.add_shard(b);
    HandoffChannel& ab = engine.link(0, 1, 10_us);
    HandoffChannel& ba = engine.link(1, 0, 10_us);
    engine.set_threads(threads);

    std::vector<std::int64_t> a_times;
    std::int64_t b_got = -1;
    for (int i = 0; i < 400; ++i)
      a.schedule_at(at_ns(i * 1'000), [&] { a_times.push_back(a.now().ns()); });
    b.schedule_at(at_ns(500'000), [] {});
    a.schedule_at(at_ns(50'500), [&] {
      ab.post(a.now(), [&] {
        b_got = b.now().ns();
        ba.post(b.now(), [&] { a_times.push_back(-a.now().ns()); });
      });
    });
    engine.run_until(at_ns(600'000));

    EXPECT_GT(engine.stats().per_shard_skips[1], 0u) << threads << " threads";
    EXPECT_EQ(b_got, 60'500) << threads << " threads";
    const auto it = std::find(a_times.begin(), a_times.end(), -70'500);
    ASSERT_NE(it, a_times.end()) << threads << " threads";
    for (auto p = a_times.begin(); p != it; ++p) EXPECT_LT(*p, 70'500);
    for (auto p = it + 1; p != a_times.end(); ++p) EXPECT_GE(*p, 70'500);
  }
}

TEST(ShardEngine, IndependentShardsRunInOneEpoch) {
  // No cross-shard channels: the horizon is the run bound itself.
  Simulator a;
  Simulator b;
  ShardEngine engine;
  engine.add_shard(a);
  engine.add_shard(b);
  engine.set_threads(2);
  // Per-shard counters: the two shards run concurrently inside an epoch.
  int fired_a = 0;
  int fired_b = 0;
  for (int i = 0; i < 100; ++i) {
    a.schedule_at(at_ns(i * 997), [&] { ++fired_a; });
    b.schedule_at(at_ns(i * 1013), [&] { ++fired_b; });
  }
  engine.run_until(at_ns(1'000'000));
  EXPECT_EQ(fired_a + fired_b, 200);
  EXPECT_EQ(engine.stats().epochs, 1u);
}

TEST(ShardEngine, LookaheadNeverOutrunsAnInboundHandoff) {
  // Shard B is saturated with events at every microsecond; a handoff from
  // A released mid-stream must interleave at exactly its release stamp —
  // i.e. B must never have advanced past the release when it arrives.
  Simulator a;
  Simulator b;
  ShardEngine engine;
  engine.add_shard(a);
  engine.add_shard(b);
  HandoffChannel& ab = engine.link(0, 1, 7_us);
  engine.set_threads(2);

  std::vector<std::int64_t> b_times;
  for (int i = 0; i < 200; ++i)
    b.schedule_at(at_ns(i * 1'000),
                  [&] { b_times.push_back(b.now().ns()); });
  a.schedule_at(at_ns(50'500), [&] {
    ab.post(a.now(), [&] { b_times.push_back(-b.now().ns()); });
  });
  engine.run_until(at_ns(500'000));

  const auto it = std::find(b_times.begin(), b_times.end(), -57'500);
  ASSERT_NE(it, b_times.end());
  // Everything before the handoff marker is strictly earlier than its
  // release; everything after is at or beyond it.
  for (auto p = b_times.begin(); p != it; ++p) EXPECT_LT(*p, 57'500);
  for (auto p = it + 1; p != b_times.end(); ++p) EXPECT_GE(*p, 57'500);
}

TEST(ShardEngine, IncomingLookaheadIsPerShardNotGlobal) {
  Simulator a;
  Simulator b;
  Simulator c;
  ShardEngine engine;
  engine.add_shard(a);
  engine.add_shard(b);
  engine.add_shard(c);
  engine.link(0, 1, 10_us);
  engine.link(1, 2, 500_us);
  engine.link(0, 1, 300_us);  // second channel on the 0->1 direction
  // Per-shard incoming bounds differ from the 10 us minimum over all
  // links — that asymmetry is what per-link horizons exploit.
  EXPECT_EQ(engine.incoming_lookahead(0), Duration::max());  // nothing feeds 0
  EXPECT_EQ(engine.incoming_lookahead(1).ns(), (10_us).ns());
  EXPECT_EQ(engine.incoming_lookahead(2).ns(), (500_us).ns());
}

/// Weakly-coupled chain fixture for the epoch count: shard 0 is busy
/// (events every 5 us), shards 1..3 are light (events every 2 ms),
/// bidirectional links everywhere, sparse real handoffs so the coupling
/// is exercised, not just declared.
struct WeakChain {
  static constexpr int kShards = 4;
  static constexpr int kBusyEvents = 2000;
  static constexpr std::int64_t kBusyGapNs = 5'000;
  static constexpr int kLightEvents = 5;
  static constexpr std::int64_t kLightGapNs = 2'000'000;
  static constexpr int kHandoffs = 10;
  static constexpr std::int64_t kHandoffGapNs = 1'000'000;
  static constexpr std::int64_t kBusyLinkNs = 400'000;
  std::vector<std::unique_ptr<Simulator>> sims;
  ShardEngine engine;
  std::vector<HandoffChannel*> right;  // shard i -> i+1
  /// Per-shard event logs: the observable behaviour. (A single global log
  /// would record cross-shard interleaving, which the horizon policy is
  /// allowed to change — only each shard's own sequence is invariant.)
  std::vector<std::vector<std::int64_t>> trace{kShards};

  WeakChain() {
    for (int i = 0; i < kShards; ++i) {
      sims.push_back(std::make_unique<Simulator>());
      engine.add_shard(*sims.back());
    }
    // Heterogeneous latencies, the honest per-link story: the busy shard
    // sits behind a 400 us gateway while the light tail is joined by fast
    // 20 us links. A global horizon would throttle *every* shard to the
    // globally shortest link; per-link horizons only feel the local
    // neighbourhood.
    const Duration lat[] = {Duration::nanoseconds(kBusyLinkNs), 100_us, 20_us};
    for (std::size_t i = 0; i + 1 < static_cast<std::size_t>(kShards); ++i) {
      right.push_back(&engine.link(i, i + 1, lat[i]));
      engine.link(i + 1, i, lat[i]);
    }
    Simulator& busy = *sims[0];
    for (int i = 0; i < kBusyEvents; ++i)
      busy.schedule_at(at_ns(i * kBusyGapNs),
                       [this, &busy] { trace[0].push_back(busy.now().ns()); });
    for (int s = 1; s < kShards; ++s) {
      Simulator& light = *sims[static_cast<std::size_t>(s)];
      for (int i = 0; i < kLightEvents; ++i)
        light.schedule_at(at_ns(i * kLightGapNs), [this, &light, s] {
          trace[static_cast<std::size_t>(s)].push_back(light.now().ns());
        });
    }
    // A real handoff each millisecond keeps the chain genuinely coupled
    // (delivery runs in shard 1's context and logs there, negated).
    for (int i = 0; i < kHandoffs; ++i)
      busy.schedule_at(at_ns(i * kHandoffGapNs + 1), [this] {
        right[0]->post(sims[0]->now(), [this] {
          trace[1].push_back(-sims[1]->now().ns());
        });
      });
  }

  /// The per-shard logs the schedule above implies: every stamp in time
  /// order, handoffs released kBusyLinkNs after their send.
  [[nodiscard]] static std::vector<std::vector<std::int64_t>> expected() {
    std::vector<std::vector<std::int64_t>> want(kShards);
    for (int i = 0; i < kBusyEvents; ++i) want[0].push_back(i * kBusyGapNs);
    for (std::size_t s = 1; s < static_cast<std::size_t>(kShards); ++s)
      for (int i = 0; i < kLightEvents; ++i) want[s].push_back(i * kLightGapNs);
    for (int i = 0; i < kHandoffs; ++i)
      want[1].push_back(-(i * kHandoffGapNs + 1 + kBusyLinkNs));
    std::stable_sort(want[1].begin(), want[1].end(),
                     [](std::int64_t x, std::int64_t y) {
                       return std::abs(x) < std::abs(y);
                     });
    return want;
  }
};

TEST(ShardEngine, PerLinkLookaheadCutsEpochsOnWeaklyCoupledChain) {
  // Any global-minimum horizon (next event + the 20 us shortest link)
  // lets the busy shard run at most 4 of its events (5 us apart) per
  // epoch, so covering its 2000 events takes 500 epochs. Per-link
  // horizons give it the 400 us round trip through its own gateway.
  constexpr std::uint64_t kGlobalMinEpochs =
      WeakChain::kBusyEvents / (20'000 / WeakChain::kBusyGapNs);
  WeakChain chain;
  chain.engine.run_until(at_ns(10'000'000));

  EXPECT_EQ(chain.trace, WeakChain::expected());
  EXPECT_EQ(chain.engine.stats().handoffs,
            static_cast<std::uint64_t>(WeakChain::kHandoffs));
  const auto epochs = chain.engine.stats().epochs;
  EXPECT_EQ(epochs, 21u);  // pinned: a horizon change shows here first
  EXPECT_LT(epochs * 2, kGlobalMinEpochs);
  // Idle shards skip their run entirely: shard executions stay well
  // below epochs * shard_count.
  EXPECT_LT(chain.engine.stats().shard_runs, epochs * WeakChain::kShards);
}

// --- Reach table -------------------------------------------------------

/// The label-correcting relaxation the engine used before its reach
/// table, kept as the reference: ET = N, then sweep every link until
/// nothing lowers, then H_i = min(end, min over links (j -> i) of
/// ET_j + L_ji), with saturating arithmetic throughout.
struct Link {
  std::size_t from;
  std::size_t to;
  std::int64_t latency_ns;
};

std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  const std::int64_t max = TimePoint::max().ns();
  return a > max - b ? max : a + b;
}

std::vector<std::int64_t> relaxed_horizons(std::size_t n,
                                           const std::vector<Link>& links,
                                           const std::vector<std::int64_t>& next,
                                           std::int64_t end) {
  std::vector<std::int64_t> et = next;
  for (bool lowered = true; lowered;) {
    lowered = false;
    for (const Link& l : links) {
      const std::int64_t reach = sat_add(et[l.from], l.latency_ns);
      if (reach < et[l.to]) {
        et[l.to] = reach;
        lowered = true;
      }
    }
  }
  std::vector<std::int64_t> h(n, end);
  for (const Link& l : links)
    h[l.to] = std::min(h[l.to], sat_add(et[l.from], l.latency_ns));
  return h;
}

TEST(ShardEngine, ReachRowsGiveTheRelaxedHorizonsOnRandomWeightedGraphs) {
  const std::int64_t max = TimePoint::max().ns();
  int unreachable_pairs = 0;
  int drained = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng{seed};
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<std::unique_ptr<Simulator>> sims;
    ShardEngine engine;
    for (std::size_t i = 0; i < n; ++i) {
      sims.push_back(std::make_unique<Simulator>());
      engine.add_shard(*sims.back());
    }
    const auto latency = [&] {
      // Mostly gateway-sized, now and then large enough that a sum of
      // several saturates.
      return rng.uniform_int(0, 19) == 0 ? max / 3
                                         : rng.uniform_int(1, 400'000);
    };
    std::vector<Link> links;
    const auto add = [&](std::size_t from, std::size_t to) {
      const std::int64_t l = latency();
      engine.link(from, to, Duration::nanoseconds(l));
      links.push_back({from, to, l});
    };
    // A chain over a prefix of the shards; the rest get only what the
    // random links below give them, which leaves some unreachable.
    const auto chain = static_cast<std::size_t>(rng.uniform_int(
        1, static_cast<std::int64_t>(n)));
    for (std::size_t i = 0; i + 1 < chain; ++i) {
      add(i, i + 1);
      if (rng.uniform_int(0, 1) == 0) add(i + 1, i);
    }
    // Shortcuts, back edges and second channels on existing directions.
    const auto extra = rng.uniform_int(0, static_cast<std::int64_t>(n));
    for (std::int64_t e = 0; e < extra; ++e) {
      const auto from = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto to = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (from != to) add(from, to);
    }
    std::vector<std::int64_t> next(n);
    for (std::int64_t& v : next) {
      v = rng.uniform_int(0, 4) == 0 ? max : rng.uniform_int(0, 1'000'000);
      if (v == max) ++drained;
    }
    const std::int64_t end = rng.uniform_int(1, 2'000'000);

    const std::vector<std::int64_t> want = relaxed_horizons(n, links, next, end);
    for (std::size_t i = 0; i < n; ++i) {
      std::int64_t h = end;
      for (std::size_t k = 0; k < n; ++k) {
        const std::int64_t r = engine.reach(i, k).ns();
        if (r == max) {
          ++unreachable_pairs;
          continue;
        }
        h = std::min(h, sat_add(next[k], r));
      }
      EXPECT_EQ(h, want[i]) << "seed " << seed << " shard " << i;
    }
  }
  // The generator covered the cases the closed form must get right.
  EXPECT_GT(unreachable_pairs, 0);
  EXPECT_GT(drained, 0);
}

TEST(ShardEngine, ReachCountsPathsOfOneOrMoreLinks) {
  Simulator a;
  Simulator b;
  Simulator c;
  ShardEngine engine;
  engine.add_shard(a);
  engine.add_shard(b);
  engine.add_shard(c);
  engine.link(0, 1, 10_us);
  engine.link(1, 2, 20_us);
  engine.link(0, 2, 50_us);  // a shortcut longer than the two-hop path
  engine.link(2, 0, 5_us);
  EXPECT_EQ(engine.reach(2, 0).ns(), (30_us).ns());
  EXPECT_EQ(engine.reach(0, 1).ns(), (25_us).ns());
  EXPECT_EQ(engine.reach(1, 2).ns(), (15_us).ns());
  // A shard reaches itself only around a cycle: 0 -> 1 -> 2 -> 0.
  EXPECT_EQ(engine.reach(0, 0).ns(), (35_us).ns());
  EXPECT_EQ(engine.reach(1, 1).ns(), (35_us).ns());
}

/// Four shards in a ring of 10 us links; every shard posts a handoff to
/// its successor from an event at exactly `bound`.
struct RingAtBound {
  static constexpr std::size_t kShards = 4;
  std::vector<std::unique_ptr<Simulator>> sims;
  ShardEngine engine;
  /// Delivery times per destination shard (one writer each).
  std::vector<std::vector<std::int64_t>> delivered{kShards};

  RingAtBound(unsigned threads, TimePoint bound) {
    for (std::size_t i = 0; i < kShards; ++i) {
      sims.push_back(std::make_unique<Simulator>());
      engine.add_shard(*sims.back());
    }
    std::vector<HandoffChannel*> next;
    for (std::size_t i = 0; i < kShards; ++i)
      next.push_back(&engine.link(i, (i + 1) % kShards, 10_us));
    engine.set_threads(threads);
    for (std::size_t i = 0; i < kShards; ++i) {
      Simulator& src = *sims[i];
      const std::size_t to = (i + 1) % kShards;
      // Busy work before the bound so several epochs run.
      for (int e = 1; e <= 40; ++e)
        src.schedule_at(bound - Duration::microseconds(e), [] {});
      src.schedule_at(bound, [this, &src, ch = next[i], to] {
        ch->post(src.now(), [this, to] {
          delivered[to].push_back(sims[to]->now().ns());
        });
      });
    }
  }

  [[nodiscard]] std::vector<std::uint64_t> injected() const {
    std::vector<std::uint64_t> v;
    for (const auto& s : sims) v.push_back(s->stats().injected);
    return v;
  }
};

TEST(ShardEngine, HandoffPostedAtTheRunBoundFiresInTheNextRunUntil) {
  const TimePoint bound = at_ns(100'000);
  for (const unsigned threads : {1u, 2u, 3u, 4u}) {
    RingAtBound ring{threads, bound};
    ring.engine.run_until(bound);
    // Posted at exactly the bound: nothing fired yet, but every handoff
    // is already in its destination kernel, for every thread count.
    for (std::size_t s = 0; s < RingAtBound::kShards; ++s) {
      EXPECT_TRUE(ring.delivered[s].empty()) << threads << " threads";
      EXPECT_EQ(ring.sims[s]->now(), bound);
      EXPECT_EQ(ring.sims[s]->peek_next_time(), bound + 10_us);
    }
    EXPECT_EQ(ring.injected(),
              std::vector<std::uint64_t>(RingAtBound::kShards, 1))
        << threads << " threads";
    ring.engine.run_until(bound + 20_us);
    for (std::size_t s = 0; s < RingAtBound::kShards; ++s)
      EXPECT_EQ(ring.delivered[s],
                std::vector<std::int64_t>{(bound + 10_us).ns()})
          << threads << " threads, shard " << s;
    EXPECT_EQ(ring.injected(),
              std::vector<std::uint64_t>(RingAtBound::kShards, 1))
        << threads << " threads";
    EXPECT_EQ(ring.engine.stats().handoffs, RingAtBound::kShards);
  }
}

TEST(ShardEngine, LinkAfterRunUntilRebuildsReachAndKeepsBufferedHandoffs) {
  for (const unsigned threads : {1u, 2u, 3u}) {
    Simulator a;
    Simulator b;
    Simulator c;
    ShardEngine engine;
    engine.add_shard(a);
    engine.add_shard(b);
    HandoffChannel& ab = engine.link(0, 1, 10_us);
    engine.set_threads(threads);
    for (int i = 0; i < 100; ++i) a.schedule_at(at_ns(i * 1'000), [] {});
    engine.run_until(at_ns(50'000));
    EXPECT_EQ(engine.reach(1, 0).ns(), (10_us).ns());
    EXPECT_EQ(engine.reach(0, 1), Duration::max());

    // A handoff committed between calls waits in the batch; a shard and
    // links added now must neither drop it nor leave the table stale.
    std::vector<std::string> log;
    ab.post(a.now(), [&] { log.push_back("b@" + std::to_string(b.now().ns())); });
    engine.add_shard(c);
    HandoffChannel& bc = engine.link(1, 2, 5_us);
    engine.link(2, 0, 7_us);
    EXPECT_EQ(engine.reach(2, 0).ns(), (15_us).ns());
    EXPECT_EQ(engine.reach(0, 1).ns(), (12_us).ns());
    EXPECT_EQ(engine.reach(0, 0).ns(), (22_us).ns());

    // The delivery on b relays over the new link; c must not run past it.
    ab.post(a.now(), [&] {
      log.push_back("b2@" + std::to_string(b.now().ns()));
      bc.post(b.now(),
              [&] { log.push_back("c@" + std::to_string(c.now().ns())); });
    });
    for (int i = 0; i < 100; ++i) c.schedule_at(at_ns(50'000 + i * 500), [] {});
    engine.run_until(at_ns(200'000));
    EXPECT_EQ(log, (std::vector<std::string>{"b@60000", "b2@60000", "c@65000"}))
        << threads << " threads";
    EXPECT_EQ(engine.stats().handoffs, 3u) << threads << " threads";
    EXPECT_EQ(c.now().ns(), 200'000);
  }
}

}  // namespace
}  // namespace rtec
