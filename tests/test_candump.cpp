#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <limits>
#include <string>

#include "trace/binary.hpp"
#include "trace/candump.hpp"
#include "util/random.hpp"

namespace rtec {
namespace {

using literals::operator""_us;
using literals::operator""_ms;

TEST(Candump, FormatsExtendedFrameLikeCandump) {
  CanFrame f;
  f.extended = true;
  f.id = 0x1F334455;
  f.dlc = 4;
  f.data = {0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0};
  const std::string line = format_candump_line(
      f, TimePoint::from_ns(1'436'509'053'249'713'000), "vcan0");
  EXPECT_EQ(line, "(1436509053.249713) vcan0 1F334455#DEADBEEF");
}

TEST(Candump, FormatsBaseAndRtrFrames) {
  CanFrame base;
  base.extended = false;
  base.id = 0x7A;
  base.dlc = 1;
  base.data[0] = 0x42;
  EXPECT_EQ(format_candump_line(base, TimePoint::from_ns(1'500'000), "can0"),
            "(0.001500) can0 07A#42");

  CanFrame rtr;
  rtr.extended = false;
  rtr.id = 0x100;
  rtr.rtr = true;
  EXPECT_EQ(format_candump_line(rtr, TimePoint::origin(), "can0"),
            "(0.000000) can0 100#R");
}

/// The formatting that candump lines were first written with, one
/// snprintf per field: the reference the one-call formatter must
/// reproduce byte for byte.
std::string printf_candump_line(const CanFrame& frame, TimePoint at,
                                const std::string& iface) {
  char buf[96];
  const long long secs = at.ns() / 1'000'000'000;
  const long long micros = at.ns() % 1'000'000'000 / 1000;
  int off = std::snprintf(buf, sizeof buf,
                          frame.extended ? "(%lld.%06lld) %s %08X#"
                                         : "(%lld.%06lld) %s %03X#",
                          secs, micros, iface.c_str(), frame.id);
  if (frame.rtr) {
    off += std::snprintf(buf + off, sizeof buf - static_cast<std::size_t>(off),
                         "R");
  } else {
    for (int i = 0; i < frame.dlc; ++i)
      off += std::snprintf(buf + off,
                           sizeof buf - static_cast<std::size_t>(off), "%02X",
                           frame.data[static_cast<std::size_t>(i)]);
  }
  return std::string{buf, static_cast<std::size_t>(off)};
}

TEST(Candump, FormatterMatchesPrintfReference) {
  // Seeded frames over both formats, every dlc, RTR, base ids wider than
  // three digits, and times around zero, negative and at the extremes
  // (a damaged trace can decode to any of them).
  Rng rng{7};
  const std::int64_t extremes[] = {0, 999, 1000, 999'999'999, 1'000'000'000,
                                   -1, -999, -1000, -1'500'000'000,
                                   std::numeric_limits<std::int64_t>::max(),
                                   std::numeric_limits<std::int64_t>::min()};
  for (int i = 0; i < 20'000; ++i) {
    CanFrame f;
    f.extended = rng.bernoulli(0.5);
    f.id = static_cast<std::uint32_t>(rng.uniform_int(0, kMaxExtendedId));
    if (!f.extended && rng.bernoulli(0.7)) f.id &= kMaxBaseId;
    f.rtr = rng.bernoulli(0.1);
    f.dlc = static_cast<std::uint8_t>(rng.uniform_int(0, 8));
    for (auto& b : f.data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const std::int64_t ns =
        i < static_cast<int>(std::size(extremes))
            ? extremes[i]
            : rng.uniform_int(-4'000'000'000'000, 4'000'000'000'000);
    const TimePoint at = TimePoint::from_ns(ns);
    const std::string iface = i % 3 == 0 ? "can0" : "vcan12";
    const std::string want = printf_candump_line(f, at, iface);
    ASSERT_EQ(format_candump_line(f, at, iface), want) << "ns=" << ns;
    ASSERT_EQ(print_candump_line(nullptr, 0, f, at, iface), want.size());
  }
}

TEST(Candump, LongInterfaceNameIsWrittenWhole) {
  // The name comes from the command line (`rtec_trace to-candump <trace>
  // <iface>`), so no fixed line length bounds it.
  CanFrame f;
  f.id = 0x1F334455;
  f.dlc = 8;
  f.data.fill(0xAB);
  const std::string iface(200, 'x');
  EXPECT_EQ(format_candump_line(f, TimePoint::from_ns(1'000), iface),
            "(0.000001) " + iface + " 1F334455#ABABABABABABABAB");
}

TEST(Candump, ParseRoundTrip) {
  const std::string log =
      "(1436509053.249713) vcan0 1F334455#DEADBEEF\n"
      "(1436509053.350000) vcan0 07A#42\n"
      "(1436509053.450000) vcan0 100#R\n";
  const auto entries = parse_candump(log);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_TRUE(entries[0].frame.extended);
  EXPECT_EQ(entries[0].frame.id, 0x1F334455u);
  EXPECT_EQ(entries[0].frame.dlc, 4);
  EXPECT_EQ(entries[0].frame.data[0], 0xDE);
  EXPECT_FALSE(entries[1].frame.extended);
  EXPECT_EQ(entries[1].frame.id, 0x7Au);
  EXPECT_TRUE(entries[2].frame.rtr);
  EXPECT_EQ((entries[1].at - entries[0].at).us(), 100'287.0);
}

TEST(Candump, MalformedLinesSkipped) {
  const std::string log =
      "garbage line\n"
      "(1.000000) vcan0 ZZZ#00\n"          // bad hex id
      "(1.000000) vcan0 123#ABC\n"          // odd data length
      "(1.000000) vcan0 123#\n"             // empty data: valid dlc 0
      "(1.000000) vcan0 123#0011223344556677889\n"  // > 8 bytes
      "1.0 vcan0 123#00\n"                  // missing parens
      "(1.000000) vcan0 7FFFFFFF#00\n"      // id beyond 29 bits
      "(9999999999999.000000) vcan0 123#00\n"  // stamp overflows int64 ns
      "(-1.000000) vcan0 123#00\n"          // negative seconds
      "(1.1000000) vcan0 123#00\n"          // micros field past 999999
      "(2.000000) vcan0 123#00\n";
  std::size_t skipped = 0;
  const auto entries = parse_candump(log, &skipped);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].frame.dlc, 0);
  EXPECT_EQ(entries[1].frame.data[0], 0x00);
  EXPECT_EQ(entries[1].at, TimePoint::from_ns(2'000'000'000));
  EXPECT_EQ(skipped, 9u);  // every malformed line above, counted once
}

TEST(Candump, SkippedCountIgnoresBlankLines) {
  // Blank and whitespace-only lines are not "malformed" — logs routinely
  // end with a newline or separate bursts with empty lines.
  std::size_t skipped = 0;
  const auto entries = parse_candump("\n(1.000000) vcan0 123#00\n\n   \n",
                                     &skipped);
  EXPECT_EQ(entries.size(), 1u);
  EXPECT_EQ(skipped, 0u);

  const auto none = parse_candump("", &skipped);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(skipped, 0u);
}

TEST(Candump, RecordReplayRoundTrip) {
  // Record a little simulated traffic...
  std::string text;
  {
    Simulator sim;
    CanBus bus{sim, BusConfig{}};
    CanController a{sim, 1};
    CanController b{sim, 2};
    bus.attach(a);
    bus.attach(b);
    trace::RtebWriter rec{0};
    bus.add_observer(
        [&rec](const CanBus::FrameEvent& ev) { rec.add_frame(ev); });
    for (int i = 0; i < 5; ++i) {
      sim.schedule_at(TimePoint::origin() + 1_ms * i, [&a, i] {
        CanFrame f;
        f.id = 0x100u + static_cast<std::uint32_t>(i);
        f.dlc = 2;
        f.data = {static_cast<std::uint8_t>(i), 0x55, 0, 0, 0, 0, 0, 0};
        (void)a.submit(f, TxMode::kAutoRetransmit);
      });
    }
    sim.run();
    const auto rendered = trace::rteb_to_candump(rec.bytes(), "rtec0");
    ASSERT_TRUE(rendered.has_value()) << rendered.error();
    text = *rendered;
  }

  // ...then replay the log into a fresh simulation and compare.
  const auto entries = parse_candump(text);
  ASSERT_EQ(entries.size(), 5u);

  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController player{sim, 9};
  CanController listener{sim, 10};
  bus.attach(player);
  bus.attach(listener);
  std::vector<std::uint32_t> seen;
  listener.add_rx_listener(
      [&](const CanFrame& f, TimePoint) { seen.push_back(f.id); });
  const std::size_t n = replay_candump(sim, player, entries,
                                       TimePoint::origin() + 10_ms);
  EXPECT_EQ(n, 5u);
  sim.run();
  ASSERT_EQ(seen.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(seen[i], 0x100u + i);
}

}  // namespace
}  // namespace rtec
