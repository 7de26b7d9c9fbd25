// Tests for the simulator hot paths: the bus times every attempt with the
// exact length of the frame in the mailbox at arbitration, the memoised
// arbitration candidate, the bus fan-out (contender list, acceptance index,
// REC heal list), and the deque-backed TaskPool.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "canbus/bus.hpp"
#include "canbus/controller.hpp"
#include "canbus/fault.hpp"
#include "canbus/frame.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"
#include "util/task_pool.hpp"

namespace rtec {
namespace {

using literals::operator""_ms;

CanFrame frame_with(std::uint32_t id, int dlc, std::uint8_t fill) {
  CanFrame f;
  f.id = id;
  f.dlc = static_cast<std::uint8_t>(dlc);
  for (int i = 0; i < dlc; ++i) f.data[static_cast<std::size_t>(i)] = fill;
  return f;
}

/// One sender and one receiver on a fault-free 1 Mbit/s bus, recording every
/// bus occupancy.
struct TimedBus {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController tx{sim, 1};
  CanController rx{sim, 2};
  std::vector<CanBus::FrameEvent> events;

  TimedBus() {
    bus.attach(tx);
    bus.attach(rx);
    bus.add_observer(
        [this](const CanBus::FrameEvent& ev) { events.push_back(ev); });
  }

  static std::int64_t wire_ns(const CanFrame& f) {
    return (BusConfig{}.bit_time() * frame_wire_bits(f)).ns();
  }
};

TEST(MailboxWireBits, MatchesFrameWireBits) {
  // Every attempt occupies the bus for exactly frame_wire_bits of the frame
  // it carries, and receivers see end-of-frame at that instant.
  std::vector<CanFrame> frames;
  for (int dlc : {0, 1, 4, 8})
    frames.push_back(frame_with(0x2A0u + static_cast<std::uint32_t>(dlc), dlc,
                                0x55));
  for (const CanFrame& f : frames) {
    TimedBus t;
    TimePoint eof = TimePoint::origin();
    t.rx.add_rx_listener([&](const CanFrame&, TimePoint at) { eof = at; });
    ASSERT_TRUE(t.tx.submit(f, TxMode::kSingleShot).has_value());
    t.sim.run();
    ASSERT_EQ(t.events.size(), 1u);
    const CanBus::FrameEvent& ev = t.events[0];
    EXPECT_TRUE(ev.success);
    EXPECT_EQ(ev.start, TimePoint::origin());
    EXPECT_EQ((ev.end - ev.start).ns(), TimedBus::wire_ns(f))
        << "dlc " << int{f.dlc};
    EXPECT_EQ(ev.wire_bits, frame_wire_bits(f));
    EXPECT_EQ(eof, ev.end);
  }
}

TEST(MailboxWireBits, RewriteIdRetimesFrame) {
  // The first attempt of an all-dominant frame is corrupted at its last
  // bit; the id is rewritten while the mailbox waits for the retry. The
  // retry must be timed with the rewritten frame, whose stuffing differs.
  TimedBus t;
  ScriptedFaults faults{1.0};
  faults.add_rule([](const FaultContext& ctx) { return ctx.attempt == 1; });
  t.bus.set_fault_model(&faults);
  const CanFrame f = frame_with(0x00000000u, 8, 0x00);
  auto mb = t.tx.submit(f, TxMode::kAutoRetransmit);
  ASSERT_TRUE(mb.has_value());
  const std::uint32_t new_id = 0x15555555u;
  t.bus.add_observer([&](const CanBus::FrameEvent& ev) {
    if (!ev.success) {
      EXPECT_TRUE(t.tx.rewrite_id(*mb, new_id));
    }
  });
  t.sim.run();

  CanFrame rewritten = f;
  rewritten.id = new_id;
  ASSERT_NE(frame_wire_bits(rewritten), frame_wire_bits(f));
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_FALSE(t.events[0].success);
  EXPECT_EQ(t.events[0].wire_bits, frame_wire_bits(f) + kErrorFrameBits);
  EXPECT_TRUE(t.events[1].success);
  EXPECT_EQ(t.events[1].frame.id, new_id);
  EXPECT_EQ((t.events[1].end - t.events[1].start).ns(),
            TimedBus::wire_ns(rewritten));
}

TEST(MailboxWireBits, MailboxReuseRecomputes) {
  TimedBus t;
  const CanFrame small = frame_with(0x100u, 0, 0);
  const CanFrame big = frame_with(0x100u, 8, 0xFF);

  auto mb1 = t.tx.submit(small, TxMode::kSingleShot);
  ASSERT_TRUE(mb1.has_value());
  t.sim.run();

  // The transmission released the mailbox; the next frame recycles it and
  // must be timed with its own length.
  auto mb2 = t.tx.submit(big, TxMode::kSingleShot);
  ASSERT_TRUE(mb2.has_value());
  EXPECT_EQ(*mb1, *mb2);
  t.sim.run();
  ASSERT_EQ(t.events.size(), 2u);
  EXPECT_EQ((t.events[0].end - t.events[0].start).ns(),
            TimedBus::wire_ns(small));
  EXPECT_EQ((t.events[1].end - t.events[1].start).ns(),
            TimedBus::wire_ns(big));
  EXPECT_NE(frame_wire_bits(big), frame_wire_bits(small));
}

TEST(MailboxWireBits, BusTimingUnchangedByCache) {
  // End-to-end: an auto-retransmit frame's end-of-frame time at the receiver
  // is its serialized bit count times the bit time.
  TimedBus t;
  const CanFrame f = frame_with(0x321u, 6, 0xA5);
  TimePoint eof = TimePoint::origin();
  int got = 0;
  t.rx.add_rx_listener([&](const CanFrame&, TimePoint at) {
    eof = at;
    ++got;
  });
  ASSERT_TRUE(t.tx.submit(f, TxMode::kAutoRetransmit).has_value());
  t.sim.run();
  ASSERT_EQ(got, 1);
  EXPECT_EQ((eof - TimePoint::origin()).ns(), TimedBus::wire_ns(f));
}

// The memoised arbitration candidate must track every mailbox state change
// (submit / abort / rewrite_id / release) — a stale cache would change
// arbitration winners and therefore whole traces.
TEST(ArbitrationCandidate, CacheTracksMailboxChanges) {
  Simulator sim;
  CanController ctl{sim, 1};

  EXPECT_FALSE(ctl.arbitration_candidate().has_value());

  auto hi = ctl.submit(frame_with(0x300, 1, 0x11), TxMode::kSingleShot);
  ASSERT_TRUE(hi.has_value());
  ASSERT_TRUE(ctl.arbitration_candidate().has_value());
  EXPECT_EQ(*ctl.arbitration_candidate(), *hi);

  // A lower identifier must displace the cached winner immediately.
  auto lo = ctl.submit(frame_with(0x100, 1, 0x22), TxMode::kSingleShot);
  ASSERT_TRUE(lo.has_value());
  EXPECT_EQ(*ctl.arbitration_candidate(), *lo);

  // Rewriting the loser below the winner must flip the candidate.
  ASSERT_TRUE(ctl.rewrite_id(*hi, 0x050));
  EXPECT_EQ(*ctl.arbitration_candidate(), *hi);

  // Aborting the winner must fall back to the remaining mailbox.
  ASSERT_TRUE(ctl.abort(*hi));
  EXPECT_EQ(*ctl.arbitration_candidate(), *lo);

  ASSERT_TRUE(ctl.abort(*lo));
  EXPECT_FALSE(ctl.arbitration_candidate().has_value());
}

TEST(ArbitrationCandidate, CandidateClearedWhenMailboxFires) {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController ctl{sim, 1};
  bus.attach(ctl);
  int results = 0;
  auto mb = ctl.submit(frame_with(0x123, 4, 0xAB), TxMode::kSingleShot,
                       [&](auto, const CanFrame&, bool ok, TimePoint) {
                         EXPECT_TRUE(ok);
                         ++results;
                       });
  ASSERT_TRUE(mb.has_value());
  sim.run();
  EXPECT_EQ(results, 1);
  // The transmission released the mailbox; the cache must not resurrect it.
  EXPECT_FALSE(ctl.arbitration_candidate().has_value());
}

// ------------------------------------------------------------ bus fan-out
//
// The bus polls only its contenders, hands a good frame only to the
// audience its acceptance index finds, and heals only raised RECs. A scan
// over every controller in attach order is the reference for all three.

using Filter = CanController::AcceptanceFilter;

constexpr std::uint32_t kLow14 = 0x3fffu;
constexpr std::uint32_t kTopByte = 0xffu << 21;
constexpr std::uint32_t kFullId = kMaxExtendedId;

bool model_accepts(const std::vector<Filter>& filters, std::uint32_t id) {
  if (filters.empty()) return true;
  return std::any_of(filters.begin(), filters.end(), [id](const Filter& f) {
    return (id & f.mask) == (f.match & f.mask);
  });
}

/// Random traffic, collisions, corruptions, online toggles, filter changes
/// and late attaches on one bus of `n` controllers. Every FrameEvent is
/// checked against the reference scan: the deliveries and their order,
/// every REC, and that no frame eligible at SOF had a lower id than the
/// winner.
void run_fanout_differential(std::size_t n, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << n << " controllers, seed " << seed);
  Rng rng{seed};
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  ScriptedFaults faults{0.6};
  faults.add_rule([&rng](const FaultContext&) { return rng.bernoulli(0.08); });
  bus.set_fault_model(&faults);

  // Distinct node ids in shuffled order, so NodeId order is not attach order.
  std::array<NodeId, kMaxNodeId + 1> nodes{};
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  for (std::size_t i = nodes.size() - 1; i > 0; --i)
    std::swap(nodes[i], nodes[static_cast<std::size_t>(
                            rng.uniform_int(0, static_cast<std::int64_t>(i)))]);
  std::array<std::size_t, kMaxNodeId + 1> index_of{};
  std::vector<std::unique_ptr<CanController>> ctl;
  std::vector<std::size_t> delivered;
  for (std::size_t i = 0; i < n; ++i) {
    index_of[nodes[i]] = i;
    ctl.push_back(std::make_unique<CanController>(sim, nodes[i]));
    ctl[i]->add_rx_listener(
        [&delivered, i](const CanFrame&, TimePoint) { delivered.push_back(i); });
  }

  // Ids are (subject << 7) | sender index, so two controllers never offer
  // the same id by accident; collision ids end in 127 and are never reused.
  std::vector<std::uint32_t> subjects(24);
  for (std::uint32_t& sub : subjects)
    sub = static_cast<std::uint32_t>(rng.uniform_int(0, (1 << 22) - 1));
  std::map<std::uint32_t, std::vector<std::size_t>> collision_owners;
  std::uint32_t next_collision = 1;

  // Reference state.
  std::vector<std::vector<Filter>> filters(n);
  std::vector<int> rec(n, 0);
  std::vector<bool> attached(n, false);
  std::vector<TimePoint> attached_at(n, TimePoint::origin());
  std::vector<TimePoint> online_since(n, TimePoint::origin());
  std::vector<std::array<TimePoint, 4>> submitted_at(n);

  auto pick = [&]() {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  auto subject = [&]() {
    return subjects[static_cast<std::size_t>(rng.uniform_int(0, 23))];
  };
  // Mostly a traffic id, so filters hit; otherwise any 29-bit value.
  auto random_filter = [&]() {
    static constexpr std::array<std::uint32_t, 3> kMasks{kLow14, kTopByte,
                                                          kFullId};
    const std::uint32_t mask =
        kMasks[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    const std::uint32_t match =
        rng.bernoulli(0.7)
            ? (subject() << 7) | static_cast<std::uint32_t>(pick())
            : static_cast<std::uint32_t>(rng.uniform_int(0, kFullId));
    return Filter{match, mask};
  };
  auto random_frame = [&](std::uint32_t id) {
    CanFrame f;
    f.id = id;
    f.dlc = static_cast<std::uint8_t>(rng.uniform_int(0, 8));
    for (auto& b : f.data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    return f;
  };
  auto submit = [&](std::size_t i, const CanFrame& f, TxMode mode) {
    const auto mb = ctl[i]->submit(f, mode);
    if (!mb) return false;
    submitted_at[i][*mb] = sim.now();
    return true;
  };
  auto attach = [&](std::size_t i) {
    bus.attach(*ctl[i]);
    attached[i] = true;
    attached_at[i] = sim.now();
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) continue;  // promiscuous
    const auto count = rng.uniform_int(1, 3);
    for (std::int64_t k = 0; k < count; ++k) {
      filters[i].push_back(random_filter());
      ctl[i]->add_acceptance_filter(filters[i].back());
    }
  }
  // The last tenth joins mid-run, each with a mailbox submitted before.
  const std::size_t late = std::max<std::size_t>(1, n / 10);
  for (std::size_t i = 0; i < n - late; ++i) attach(i);
  for (std::size_t i = n - late; i < n; ++i)
    submit(i, random_frame((subject() << 7) | static_cast<std::uint32_t>(i)),
           TxMode::kAutoRetransmit);

  int mismatches = 0;
  std::size_t ok = 0, errors = 0, collisions = 0, filtered_deliveries = 0,
              high_deliveries = 0;
  bus.add_observer([&](const CanBus::FrameEvent& ev) {
    const std::size_t sender = index_of[ev.sender];
    std::size_t rival = n;
    if (ev.collision) {
      const auto& owners = collision_owners.at(ev.frame.id);
      rival = owners[0] == sender ? owners[1] : owners[0];
      ++collisions;
    }
    std::vector<std::size_t> expect;
    for (std::size_t i = 0; i < n; ++i) {
      const CanController& c = *ctl[i];
      if (!attached[i] || i == sender || i == rival) continue;
      if (!c.online() || c.bus_off()) continue;
      if (!ev.success) {
        ++rec[i];
      } else {
        if (rec[i] > 0) --rec[i];
        if (!model_accepts(filters[i], ev.frame.id)) continue;
        expect.push_back(i);
        if (!filters[i].empty()) ++filtered_deliveries;
      }
    }
    ev.success ? ++ok : ++errors;
    high_deliveries += static_cast<std::size_t>(std::count_if(
        delivered.begin(), delivered.end(), [](std::size_t i) { return i >= 64; }));
    if (delivered != expect && ++mismatches == 1)
      ADD_FAILURE() << "deliveries of frame " << std::hex << ev.frame.id
                    << std::dec << " at " << ev.end.ns() << " ns differ";
    delivered.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (ctl[i]->rec() != rec[i] && ++mismatches == 1)
        ADD_FAILURE() << "REC of controller " << i << " is " << ctl[i]->rec()
                      << ", reference " << rec[i];
      // Pending since before SOF, online throughout: it was offered.
      for (CanController::MailboxId mb = 0; mb < 4; ++mb) {
        if (!attached[i] || !ctl[i]->online() ||
            !ctl[i]->mailbox_pending(mb))
          continue;
        const TimePoint since = std::max(submitted_at[i][mb], attached_at[i]);
        if (online_since[i] > submitted_at[i][mb] || since >= ev.start) continue;
        if (ctl[i]->mailbox_frame(mb).id < ev.frame.id && ++mismatches == 1)
          ADD_FAILURE() << "controller " << i << " offered a lower id than "
                        << "the winner at " << ev.start.ns() << " ns";
      }
    }
  });

  std::size_t filter_changes = 0, toggles = 0;
  std::size_t next_late = n - late;
  TimePoint at = TimePoint::origin();
  for (int step = 0; step < 1500; ++step) {
    at = at + Duration::microseconds(rng.uniform_int(1, 80));
    const double u = rng.uniform();
    const std::size_t i = pick();
    std::size_t j = pick();
    if (j == i) j = (i + 1) % n;
    const CanFrame f =
        random_frame((subject() << 7) | static_cast<std::uint32_t>(i));
    const bool auto_mode = rng.bernoulli(0.5);
    const Filter filter = random_filter();
    const bool same_payload = rng.bernoulli(0.5);
    sim.schedule_at(at, [&, u, i, j, f, auto_mode, filter, same_payload] {
      if (u < 0.55) {
        if (attached[i])
          submit(i, f, auto_mode ? TxMode::kAutoRetransmit : TxMode::kSingleShot);
      } else if (u < 0.62) {
        // Same id from two controllers at one arbitration point.
        CanFrame g = f;
        g.id = (next_collision++ << 7) | 127u;
        CanFrame h = g;
        if (!same_payload) {
          h.dlc = 8;
          g.dlc = 8;
          h.data[3] = static_cast<std::uint8_t>(g.data[3] ^ 0x10);
        }
        if (!attached[i] || !attached[j]) return;
        if (submit(i, g, TxMode::kSingleShot))
          collision_owners[g.id].push_back(i);
        if (submit(j, h, TxMode::kSingleShot))
          collision_owners[g.id].push_back(j);
      } else if (u < 0.77) {
        filters[i].push_back(filter);
        ctl[i]->add_acceptance_filter(filter);
        ++filter_changes;
      } else if (u < 0.82) {
        filters[i].clear();
        ctl[i]->clear_acceptance_filters();
        ++filter_changes;
      } else if (u < 0.90) {
        if (!ctl[i]->online()) {
          rec[i] = 0;
          online_since[i] = sim.now();
        }
        ctl[i]->set_online(!ctl[i]->online());
        ++toggles;
      } else if (u < 0.92 && next_late < n) {
        attach(next_late++);
      }
    });
  }
  sim.run();

  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(next_late, n) << "every late controller attached";
  EXPECT_GT(ok, 100u);
  EXPECT_GT(errors, 10u);
  EXPECT_GT(collisions, 2u);
  EXPECT_GT(filtered_deliveries, 10u) << "deliveries through the mask tables";
  EXPECT_GT(filter_changes, 100u);
  EXPECT_GT(toggles, 50u);
  if (n > 64) {
    EXPECT_GT(high_deliveries, 100u) << "second receiver-set word";
  }
}

TEST(BusFanout, BruteForceDifferential) {
  for (const std::size_t n : {3u, 40u, 100u})
    for (const std::uint64_t seed : {1u, 2u, 3u}) run_fanout_differential(n, seed);
}

TEST(BusFanout, PreAttachMailboxWinsNextArbitration) {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController early{sim, 1};
  CanController late{sim, 2};
  bus.attach(early);
  std::vector<CanBus::FrameEvent> events;
  bus.add_observer([&](const CanBus::FrameEvent& ev) { events.push_back(ev); });
  ASSERT_TRUE(late.submit(frame_with(0x010, 1, 0x11), TxMode::kSingleShot));
  bus.attach(late);
  ASSERT_TRUE(early.submit(frame_with(0x020, 1, 0x22), TxMode::kSingleShot));
  sim.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].sender, 2);
  EXPECT_EQ(events[0].frame.id, 0x010u);
  EXPECT_EQ(events[1].sender, 1);
}

TEST(BusFanout, OfflineRetransmitRejoinsAfterSetOnline) {
  // The first attempt is corrupted while its controller is offline: the
  // mailbox survives, and the arbitration after the error frame finds
  // nothing to offer. Coming back online must put the frame up again.
  TimedBus t;
  ScriptedFaults faults{1.0};
  faults.add_rule([](const FaultContext& ctx) { return ctx.attempt == 1; });
  t.bus.set_fault_model(&faults);
  std::vector<int> rx_rec;
  t.bus.add_observer(
      [&](const CanBus::FrameEvent&) { rx_rec.push_back(t.rx.rec()); });
  ASSERT_TRUE(t.tx.submit(frame_with(0x0AB, 8, 0x3C), TxMode::kAutoRetransmit));
  t.sim.schedule_after(Duration::microseconds(20),
                       [&] { t.tx.set_online(false); });
  t.sim.schedule_after(Duration::microseconds(400), [&] {
    EXPECT_TRUE(t.rx.submit(frame_with(0x300, 1, 0), TxMode::kSingleShot));
  });
  t.sim.schedule_at(TimePoint::origin() + 1_ms, [&] { t.tx.set_online(true); });
  t.sim.run();
  ASSERT_EQ(t.events.size(), 3u);
  EXPECT_FALSE(t.events[0].success);
  EXPECT_EQ(t.events[1].sender, 2);
  EXPECT_TRUE(t.events[2].success);
  EXPECT_EQ(t.events[2].sender, 1);
  EXPECT_EQ(t.events[2].frame.id, 0x0ABu);
  EXPECT_EQ(t.events[2].attempt, 2);
  EXPECT_GE(t.events[2].start, TimePoint::origin() + 1_ms);
  // The error frame raises the receiver's REC, its own frame does not heal
  // it, the retransmission does.
  EXPECT_EQ(rx_rec, (std::vector<int>{1, 1, 0}));
}

TEST(BusFanout, FilterChangeDuringDeliveryReachesLaterControllers) {
  // Each controller reads its filters at its own turn, so a listener that
  // subscribes or narrows a later controller changes that controller's
  // acceptance of the frame being delivered.
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController s{sim, 1};
  CanController a{sim, 2};
  CanController b{sim, 3};
  CanController c{sim, 4};
  for (CanController* x : {&s, &a, &b, &c}) bus.attach(*x);
  const std::uint32_t id = 0x0123456;
  b.add_acceptance_filter({0x7ff, kFullId});  // misses id
  std::vector<NodeId> got;
  a.add_rx_listener([&](const CanFrame& f, TimePoint) {
    b.add_acceptance_filter({f.id, kFullId});
    c.add_acceptance_filter({0x7ff, kFullId});
  });
  for (CanController* x : {&a, &b, &c})
    x->add_rx_listener(
        [&got, x](const CanFrame&, TimePoint) { got.push_back(x->node()); });
  ASSERT_TRUE(s.submit(frame_with(id, 2, 0x5A), TxMode::kSingleShot));
  sim.run();
  EXPECT_EQ(got, (std::vector<NodeId>{2, 3}));
}

TEST(FrameTailBits, ConstantMatchesCanSpec) {
  // CRC delimiter + ACK slot + ACK delimiter + 7-bit EOF.
  EXPECT_EQ(kFrameTailBits, 10);
}

TEST(TaskPool, AddressesStableAcrossGrowth) {
  TaskPool pool;
  std::vector<std::function<void()>*> ptrs;
  int counter = 0;
  for (int i = 0; i < 1000; ++i) {
    auto* t = pool.make();
    *t = [&counter] { ++counter; };
    ptrs.push_back(t);
  }
  EXPECT_EQ(pool.size(), 1000u);
  // Every pointer handed out earlier must still be valid and callable.
  for (auto* t : ptrs) (*t)();
  EXPECT_EQ(counter, 1000);
}

TEST(TaskPool, SelfReschedulingTaskSurvivesPoolGrowth) {
  Simulator sim;
  TaskPool pool;
  int ticks = 0;
  auto* loop = pool.make();
  *loop = [&] {
    ++ticks;
    // Grow the pool from inside the task — the `loop` pointer must stay
    // valid (deque storage never relocates existing elements).
    *pool.make() = [] {};
    if (ticks < 5) sim.schedule_after(1_ms, [loop] { (*loop)(); });
  };
  (*loop)();
  sim.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(pool.size(), 6u);
}

}  // namespace
}  // namespace rtec
