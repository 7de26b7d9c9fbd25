#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "trace/binary.hpp"
#include "trace/candump.hpp"

// RTEB binary trace format (trace/binary.hpp): round trips, the exact
// wire bytes (endianness pin), structural-damage diagnostics, candump
// interop, and the >= 10x compression claim on periodic traffic.

namespace rtec {
namespace trace {
namespace {

CanBus::FrameEvent frame_event(std::uint32_t id, std::int64_t end_ns,
                               std::uint8_t dlc, NodeId sender,
                               bool success = true) {
  CanBus::FrameEvent ev;
  ev.frame.id = id;
  ev.frame.dlc = dlc;
  for (std::uint8_t i = 0; i < dlc; ++i)
    ev.frame.data[i] = static_cast<std::uint8_t>(0xA0u + i);
  ev.sender = sender;
  ev.end = TimePoint::from_ns(end_ns);
  ev.start = TimePoint::from_ns(end_ns - 100'000);
  ev.success = success;
  ev.wire_bits = 111;
  ev.attempt = 1;
  return ev;
}

TEST(Rteb, FrameRoundTripPreservesEveryField) {
  RtebWriter w{7};

  auto a = frame_event(0x123, 1'000'000, 4, NodeId{5});
  a.frame.extended = false;
  auto b = frame_event(0x1F334455, 2'000'000, 8, NodeId{9});
  b.frame.extended = true;
  auto err = frame_event(0x123, 3'000'000, 4, NodeId{5}, /*success=*/false);
  err.wire_bits = 45;
  err.attempt = 2;
  auto coll = frame_event(0x0A5, 4'000'000, 0, NodeId{3});
  coll.collision = true;
  auto rtr = frame_event(0x100, 5'000'000, 0, NodeId{2});
  rtr.frame.rtr = true;

  for (const auto& ev : {a, b, err, coll, rtr}) w.add_frame(ev);

  auto reader = RtebReader::open(w.bytes());
  ASSERT_TRUE(reader.has_value()) << reader.error();
  EXPECT_EQ(reader->version(), kRtebVersion);
  EXPECT_EQ(reader->network(), 7u);
  const auto records = reader->read_all();
  ASSERT_TRUE(records.has_value()) << records.error();
  ASSERT_EQ(records->size(), 5u);

  const CanBus::FrameEvent* expected[] = {&a, &b, &err, &coll, &rtr};
  for (std::size_t i = 0; i < 5; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ((*records)[i].kind, RtebKind::kFrame);
    const RtebFrame& got = (*records)[i].frame;
    const CanBus::FrameEvent& want = *expected[i];
    EXPECT_EQ(got.at.ns(), want.end.ns());
    EXPECT_EQ(got.frame.id, want.frame.id);
    EXPECT_EQ(got.frame.extended, want.frame.extended);
    EXPECT_EQ(got.frame.rtr, want.frame.rtr);
    EXPECT_EQ(got.frame.dlc, want.frame.dlc);
    for (std::uint8_t d = 0; d < want.frame.dlc; ++d)
      EXPECT_EQ(got.frame.data[d], want.frame.data[d]);
    EXPECT_EQ(got.sender, want.sender);
    EXPECT_EQ(got.success, want.success);
    EXPECT_EQ(got.collision, want.collision);
    EXPECT_EQ(got.wire_bits, want.wire_bits);
    EXPECT_EQ(got.attempt, want.attempt);
  }
}

TEST(Rteb, GoldenBytesPinLittleEndianEncoding) {
  // The byte stream is computed with shifts only, so these exact bytes
  // are the output on any host endianness. Header: magic, u16 version,
  // u16 network, u32 zero — all little-endian.
  RtebWriter w{0x0203};

  CanBus::FrameEvent ev;
  ev.frame.id = 0x123;
  ev.frame.extended = false;  // base frame: format byte 0x00
  ev.frame.dlc = 2;
  ev.frame.data[0] = 0xAB;
  ev.frame.data[1] = 0xCD;
  ev.sender = NodeId{5};
  ev.success = true;
  ev.wire_bits = 100;
  ev.attempt = 1;
  ev.end = TimePoint::from_ns(1000);
  w.add_frame(ev);  // new id: full id varint, meta + payload blocks
  ev.end = TimePoint::from_ns(2000);
  w.add_frame(ev);  // ref 0, residual 1000 (prediction had period 0)
  ev.end = TimePoint::from_ns(3000);
  w.add_frame(ev);  // steady periodic: the 4-byte record

  const std::uint8_t expected[] = {
      // header
      0x52, 0x54, 0x45, 0x42,  // "RTEB"
      0x01, 0x00,              // version 1 LE
      0x03, 0x02,              // network 0x0203 LE
      0x00, 0x00, 0x00, 0x00,  // reserved
      // record 0: len, kind=frame flags=success|new-id|meta|payload (0x3D)
      0x0C, 0x3D,
      0xA3, 0x02,              // id 0x123 varint
      0xD0, 0x0F,              // zigzag(1000 - 0)
      0x05, 0x00, 0x02,        // sender, format, dlc
      0x64, 0x01,              // wire_bits 100, attempt 1
      0xAB, 0xCD,              // payload
      // record 1: ref 0, residual zigzag(1000)
      0x04, 0x21, 0x00, 0xD0, 0x0F,
      // record 2: steady state — 4 bytes total
      0x03, 0x21, 0x00, 0x00,
  };
  ASSERT_EQ(w.bytes().size(), sizeof expected);
  for (std::size_t i = 0; i < sizeof expected; ++i)
    EXPECT_EQ(static_cast<std::uint8_t>(w.bytes()[i]), expected[i])
        << "byte " << i;
}

TEST(Rteb, AlarmAndHandoffRoundTrip) {
  RtebWriter w{0};
  w.add_frame(frame_event(0x123, 1'000'000, 2, NodeId{1}));
  w.add_alarm("iat-gate", TimePoint::from_ns(1'500'000), 0x123, 3.75, false);
  w.add_alarm("unknown-id", TimePoint::from_ns(1'600'000), 0x7FF, -0.5, true);
  w.add_alarm("iat-gate", TimePoint::from_ns(1'700'000), 0x124, 4.25, false);
  // Channel 9: constant latency after the first record; seq runs 0,1 then
  // jumps to 5 (residual path).
  w.add_handoff(TimePoint::from_ns(2'000'000), TimePoint::from_ns(2'250'000),
                9, 0);
  w.add_handoff(TimePoint::from_ns(2'100'000), TimePoint::from_ns(2'350'000),
                9, 1);
  w.add_handoff(TimePoint::from_ns(2'200'000), TimePoint::from_ns(2'450'000),
                9, 5);
  // Channel 2: independent latency and seq state.
  w.add_handoff(TimePoint::from_ns(2'300'000), TimePoint::from_ns(2'800'000),
                2, 0);

  auto reader = RtebReader::open(w.bytes());
  ASSERT_TRUE(reader.has_value()) << reader.error();
  const auto records = reader->read_all();
  ASSERT_TRUE(records.has_value()) << records.error();
  ASSERT_EQ(records->size(), 8u);  // detector defs are not surfaced

  EXPECT_EQ((*records)[0].kind, RtebKind::kFrame);
  for (std::size_t i = 1; i < 4; ++i)
    ASSERT_EQ((*records)[i].kind, RtebKind::kAlarm) << i;

  const RtebAlarm& a1 = (*records)[1].alarm;
  EXPECT_EQ(a1.detector, "iat-gate");
  EXPECT_EQ(a1.at.ns(), 1'500'000);
  EXPECT_EQ(a1.id, 0x123u);
  EXPECT_EQ(a1.score, 3.75);
  EXPECT_FALSE(a1.unknown_id);

  const RtebAlarm& a2 = (*records)[2].alarm;
  EXPECT_EQ(a2.detector, "unknown-id");
  EXPECT_EQ(a2.score, -0.5);
  EXPECT_TRUE(a2.unknown_id);

  const RtebAlarm& a3 = (*records)[3].alarm;
  EXPECT_EQ(a3.detector, "iat-gate");  // interned once, referenced again
  EXPECT_EQ(a3.at.ns(), 1'700'000);

  const std::uint64_t seqs[] = {0, 1, 5, 0};
  const std::uint32_t chans[] = {9, 9, 9, 2};
  const std::int64_t sends[] = {2'000'000, 2'100'000, 2'200'000, 2'300'000};
  const std::int64_t releases[] = {2'250'000, 2'350'000, 2'450'000, 2'800'000};
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ((*records)[4 + i].kind, RtebKind::kHandoff);
    const RtebHandoff& h = (*records)[4 + i].handoff;
    EXPECT_EQ(h.channel, chans[i]);
    EXPECT_EQ(h.seq, seqs[i]);
    EXPECT_EQ(h.send.ns(), sends[i]);
    EXPECT_EQ(h.release.ns(), releases[i]);
  }
}

TEST(Rteb, AlarmDetectorNameIsAViewIntoTheTrace) {
  RtebWriter w{0};
  w.add_alarm("iat-gate", TimePoint::from_ns(1'500'000), 0x123, 3.75, false);
  const std::string& bytes = w.bytes();
  std::vector<RtebRecord> records;
  {
    auto reader = RtebReader::open(bytes);
    ASSERT_TRUE(reader.has_value()) << reader.error();
    auto all = reader->read_all();
    ASSERT_TRUE(all.has_value()) << all.error();
    records = std::move(*all);
  }
  // The reader and its name table are gone; the record still borrows the
  // kDetectorDef payload of `bytes` (a dangling view fails under ASan).
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].kind, RtebKind::kAlarm);
  const std::string_view name = records[0].alarm.detector;
  const auto begin = reinterpret_cast<std::uintptr_t>(bytes.data());
  const auto at = reinterpret_cast<std::uintptr_t>(name.data());
  EXPECT_GE(at, begin);
  EXPECT_LE(at + name.size(), begin + bytes.size());
  EXPECT_EQ(name, "iat-gate");
}

TEST(Rteb, GoldenBytesPinAlarmAndHandoffRecords) {
  // The alarm and handoff sequence of AlarmAndHandoffRoundTrip, without
  // its frame: a round trip cannot see a change made to the writer and the
  // reader alike, so these are the exact bytes.
  RtebWriter w{0};
  w.add_alarm("iat-gate", TimePoint::from_ns(1'500'000), 0x123, 3.75, false);
  w.add_alarm("unknown-id", TimePoint::from_ns(1'600'000), 0x7FF, -0.5, true);
  w.add_alarm("iat-gate", TimePoint::from_ns(1'700'000), 0x124, 4.25, false);
  w.add_handoff(TimePoint::from_ns(2'000'000), TimePoint::from_ns(2'250'000),
                9, 0);
  w.add_handoff(TimePoint::from_ns(2'100'000), TimePoint::from_ns(2'350'000),
                9, 1);
  w.add_handoff(TimePoint::from_ns(2'200'000), TimePoint::from_ns(2'450'000),
                9, 5);
  w.add_handoff(TimePoint::from_ns(2'300'000), TimePoint::from_ns(2'800'000),
                2, 0);

  const std::uint8_t expected[] = {
      // header, network 0
      0x52, 0x54, 0x45, 0x42, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      // detector def (kind 4): the name bytes "iat-gate"
      0x09, 0x80, 0x69, 0x61, 0x74, 0x2D, 0x67, 0x61, 0x74, 0x65,
      // alarm (kind 2): detector 0, zigzag(1'500'000), id 0x123, 3.75 LE
      0x10, 0x40, 0x00, 0xC0, 0x8D, 0xB7, 0x01, 0xA3, 0x02,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0E, 0x40,
      // detector def "unknown-id"
      0x0B, 0x80, 0x75, 0x6E, 0x6B, 0x6E, 0x6F, 0x77, 0x6E, 0x2D, 0x69, 0x64,
      // alarm, flag unknown-id: detector 1, zigzag(100'000), id 0x7FF, -0.5
      0x0F, 0x41, 0x01, 0xC0, 0x9A, 0x0C, 0xFF, 0x0F,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0xBF,
      // alarm: the interned detector 0 again, id 0x124, 4.25
      0x0F, 0x40, 0x00, 0xC0, 0x9A, 0x0C, 0xA4, 0x02,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x11, 0x40,
      // handoff (kind 3), flag latency: channel 9, zigzag(300'000),
      // zigzag(latency 250'000)
      0x08, 0x61, 0x09, 0xC0, 0xCF, 0x24, 0xA0, 0xC2, 0x1E,
      // steady state: channel 9, zigzag(100'000)
      0x05, 0x60, 0x09, 0xC0, 0x9A, 0x0C,
      // flag seq residual: zigzag(5 - 2)
      0x06, 0x62, 0x09, 0xC0, 0x9A, 0x0C, 0x06,
      // second channel 2: its own latency, zigzag(500'000)
      0x08, 0x61, 0x02, 0xC0, 0x9A, 0x0C, 0xC0, 0x84, 0x3D,
  };
  EXPECT_EQ(w.records(), 9u);
  EXPECT_EQ(w.bytes_written(), sizeof expected);
  ASSERT_EQ(w.bytes().size(), sizeof expected);
  for (std::size_t i = 0; i < sizeof expected; ++i)
    EXPECT_EQ(static_cast<std::uint8_t>(w.bytes()[i]), expected[i])
        << "byte " << i;
}

TEST(Rteb, EmptyTraceIsJustTheHeader) {
  RtebWriter w{3};
  EXPECT_EQ(w.bytes().size(), kRtebHeaderSize);
  EXPECT_EQ(w.records(), 0u);
  auto reader = RtebReader::open(w.bytes());
  ASSERT_TRUE(reader.has_value()) << reader.error();
  EXPECT_EQ(reader->network(), 3u);
  const auto records = reader->read_all();
  ASSERT_TRUE(records.has_value()) << records.error();
  EXPECT_TRUE(records->empty());
}

TEST(Rteb, StructuralDamageIsAHardError) {
  const auto open_error = [](const std::string& data) {
    auto r = RtebReader::open(data);
    EXPECT_FALSE(r.has_value());
    return r.has_value() ? std::string{} : r.error();
  };
  EXPECT_NE(open_error("RT").find("truncated header"), std::string::npos);
  EXPECT_NE(open_error("XXXXXXXXXXXX").find("bad magic"), std::string::npos);

  RtebWriter w{0};
  w.add_frame(frame_event(0x123, 1000, 2, NodeId{1}));
  std::string good = w.bytes();

  std::string bad_version = good;
  bad_version[4] = 2;
  EXPECT_NE(open_error(bad_version).find("unsupported RTEB version 2"),
            std::string::npos);

  // Chop the last byte: the final record's length prefix now overruns.
  std::string truncated = good;
  truncated.pop_back();
  {
    auto reader = RtebReader::open(truncated);
    ASSERT_TRUE(reader.has_value());
    auto rec = reader->next();
    ASSERT_FALSE(rec.has_value());
    EXPECT_NE(rec.error().find("truncated record"), std::string::npos);
    EXPECT_NE(rec.error().find("at byte offset 12"), std::string::npos);
  }

  const auto damaged = [&good](std::initializer_list<std::uint8_t> tail) {
    std::string d{good.substr(0, kRtebHeaderSize)};
    for (const std::uint8_t b : tail) d.push_back(static_cast<char>(b));
    return d;
  };
  const auto first_error = [](const std::string& data) {
    auto reader = RtebReader::open(data);
    EXPECT_TRUE(reader.has_value());
    auto rec = reader->next();
    EXPECT_FALSE(rec.has_value());
    return rec.has_value() ? std::string{} : rec.error();
  };
  EXPECT_NE(first_error(damaged({0x00})).find("zero-length record"),
            std::string::npos);
  // kind 7 is unassigned
  EXPECT_NE(first_error(damaged({0x01, 0xE0})).find("unknown record kind"),
            std::string::npos);
  // frame referencing interned id 0 before any new-id record
  EXPECT_NE(first_error(damaged({0x03, 0x21, 0x00, 0x00}))
                .find("dangling frame identifier reference"),
            std::string::npos);
  // alarm referencing detector 0 with no kDetectorDef seen
  EXPECT_NE(first_error(damaged({0x0C, 0x40, 0x00, 0x00, 0x00, 0, 0, 0, 0, 0,
                                 0, 0, 0}))
                .find("dangling detector reference"),
            std::string::npos);
  // handoff whose channel has no latency yet and no latency flag
  EXPECT_NE(first_error(damaged({0x03, 0x60, 0x00, 0x00}))
                .find("handoff before its channel latency"),
            std::string::npos);
}

TEST(Rteb, CandumpRoundTripIsLossless) {
  // candump -> RTEB -> candump reproduces the text byte-for-byte
  // (canonical formatting, which format_candump_line emits).
  std::string text;
  CanFrame periodic;
  periodic.id = 0x1A334455;
  periodic.extended = true;
  periodic.dlc = 8;
  for (int i = 0; i < 8; ++i)
    periodic.data[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(0x10 + i);
  CanFrame base;
  base.id = 0x0A5;
  base.dlc = 4;
  base.data = {0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0};
  CanFrame rtr;
  rtr.id = 0x7FF;
  rtr.rtr = true;
  for (int i = 0; i < 50; ++i) {
    const auto t = TimePoint::from_ns(1'000'000 + i * 2'000'000LL);
    text += format_candump_line(periodic, t, "can0") + "\n";
    if (i % 5 == 0)
      text += format_candump_line(base, t + Duration::microseconds(250),
                                  "can0") + "\n";
    if (i % 7 == 0)
      text += format_candump_line(rtr, t + Duration::microseconds(500),
                                  "can0") + "\n";
  }

  std::size_t skipped = 123;
  const std::string rteb = rteb_from_candump(text, 0, &skipped);
  EXPECT_EQ(skipped, 0u);
  const auto back = rteb_to_candump(rteb, "can0");
  ASSERT_TRUE(back.has_value()) << back.error();
  EXPECT_EQ(*back, text);
}

TEST(Rteb, TenTimesSmallerThanCandumpOnPeriodicTraffic) {
  // The compression claim of the format header: realistic periodic
  // traffic (two extended-id dlc-8 streams) costs >= 10x more as candump
  // text than as RTEB.
  std::string text;
  CanFrame f1, f2;
  f1.id = 0x1A000001;
  f1.extended = true;
  f1.dlc = 8;
  f2.id = 0x1A000002;
  f2.extended = true;
  f2.dlc = 8;
  for (int i = 0; i < 8; ++i) {
    f1.data[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    f2.data[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(0x80 + i);
  }
  for (int i = 0; i < 1000; ++i) {
    const auto t = TimePoint::from_ns(1'000'000'000 + i * 1'000'000LL);
    text += format_candump_line(f1, t, "can0") + "\n";
    text += format_candump_line(f2, t + Duration::microseconds(200),
                                "can0") + "\n";
  }
  const std::string rteb = rteb_from_candump(text, 0);
  EXPECT_GE(text.size(), 10 * rteb.size())
      << "text " << text.size() << " bytes vs rteb " << rteb.size();
}

TEST(Rteb, FileBackedWriterStreamsThroughBoundedBuffer) {
  const char* path = "test_rteb_tmp.rteb";
  std::uint64_t expect_bytes = 0;
  {
    RtebWriter w{path, 1};
    // > 64 KiB of records so at least one mid-run flush happens.
    for (int i = 0; i < 40'000; ++i) {
      auto ev = frame_event(0x100u + static_cast<std::uint32_t>(i % 3),
                            1'000'000LL * (i + 1), 8, NodeId{1});
      ev.frame.data[0] = static_cast<std::uint8_t>(i);  // payload churn
      w.add_frame(ev);
    }
    EXPECT_TRUE(w.finish());
    expect_bytes = w.bytes_written();
  }
  std::FILE* f = std::fopen(path, "rb");
  ASSERT_NE(f, nullptr);
  std::string data;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, n);
  std::fclose(f);
  std::remove(path);
  EXPECT_EQ(data.size(), expect_bytes);

  auto reader = RtebReader::open(data);
  ASSERT_TRUE(reader.has_value()) << reader.error();
  const auto records = reader->read_all();
  ASSERT_TRUE(records.has_value()) << records.error();
  EXPECT_EQ(records->size(), 40'000u);
}

TEST(Rteb, RecorderCapturesCorruptedAttemptsCandumpCannot) {
  // A bus with a fault model: a receiver (and candump) only sees
  // deliveries, the RTEB recorder sees every occupancy including the
  // corrupted attempt, with its attempt number.
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController a{sim, 1};
  CanController b{sim, 2};
  bus.attach(a);
  bus.attach(b);
  ScriptedFaults faults;  // corrupt the first attempt of every frame
  faults.add_rule([](const FaultContext& ctx) { return ctx.attempt == 1; });
  bus.set_fault_model(&faults);
  RtebWriter rec{0};
  bus.add_observer([&rec](const CanBus::FrameEvent& ev) { rec.add_frame(ev); });
  std::size_t received = 0;
  b.add_rx_listener([&received](const CanFrame&, TimePoint) { ++received; });

  for (int i = 0; i < 4; ++i) {
    sim.schedule_at(TimePoint::origin() + Duration::milliseconds(1 + i),
                    [&a, i] {
                      CanFrame f;
                      f.id = 0x100u + static_cast<std::uint32_t>(i);
                      f.dlc = 1;
                      f.data[0] = static_cast<std::uint8_t>(i);
                      (void)a.submit(f, TxMode::kAutoRetransmit);
                    });
  }
  sim.run();

  auto reader = RtebReader::open(rec.bytes());
  ASSERT_TRUE(reader.has_value()) << reader.error();
  const auto records = reader->read_all();
  ASSERT_TRUE(records.has_value()) << records.error();
  ASSERT_EQ(records->size(), 8u);  // per frame: corrupted attempt + retry
  for (std::size_t i = 0; i < records->size(); ++i) {
    const RtebRecord& r = (*records)[i];
    ASSERT_EQ(r.kind, RtebKind::kFrame);
    EXPECT_EQ(r.frame.frame.id, 0x100u + i / 2);
    EXPECT_EQ(r.frame.success, i % 2 == 1);
    EXPECT_EQ(r.frame.attempt, i % 2 == 1 ? 2 : 1);
  }
  EXPECT_EQ(received, 4u);  // deliveries agree with the receiver
  // The candump rendering keeps only those deliveries.
  const auto text = rteb_to_candump(rec.bytes(), "can0");
  ASSERT_TRUE(text.has_value()) << text.error();
  EXPECT_EQ(std::count(text->begin(), text->end(), '\n'), 4);
}

}  // namespace
}  // namespace trace
}  // namespace rtec
