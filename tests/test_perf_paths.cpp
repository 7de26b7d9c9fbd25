// Tests for the simulator hot paths: the bus times every attempt with the
// exact length of the frame in the mailbox at arbitration, the memoised
// arbitration candidate, and the deque-backed TaskPool.

#include <gtest/gtest.h>

#include <vector>

#include "canbus/bus.hpp"
#include "canbus/controller.hpp"
#include "canbus/fault.hpp"
#include "canbus/frame.hpp"
#include "sim/simulator.hpp"
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
  CanController ctl{sim, 1, CanController::Config{.tx_mailboxes = 4}};

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
