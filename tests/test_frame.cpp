#include <gtest/gtest.h>

#include <vector>

#include "canbus/frame.hpp"
#include "util/random.hpp"

namespace rtec {
namespace {

// Bit-level reference: serialize bit by bit, CRC bit by bit, stuff bit by
// bit. `frame_wire_bits` and `frame_first_difference_bit` work on a packed
// region with byte tables and must agree with these on every frame.
int reference_wire_bits(const CanFrame& f) {
  const FrameBits fb = frame_stuffable_bits(f);
  const int stuff =
      count_stuff_bits({fb.bits.data(), static_cast<std::size_t>(fb.count)});
  return fb.count + stuff + kFrameTailBits;
}

int reference_first_difference(const CanFrame& a, const CanFrame& b) {
  const FrameBits fa = frame_stuffable_bits(a);
  const FrameBits fb = frame_stuffable_bits(b);
  const int common = fa.count < fb.count ? fa.count : fb.count;
  for (int i = 0; i < common; ++i)
    if (fa.bits[static_cast<std::size_t>(i)] !=
        fb.bits[static_cast<std::size_t>(i)])
      return i + 1;
  return fa.count != fb.count ? common + 1 : 0;
}

std::uint32_t max_id(bool extended) {
  return extended ? kMaxExtendedId : kMaxBaseId;
}

CanFrame random_frame(Rng& r) {
  CanFrame f;
  f.extended = r.bernoulli(0.5);
  f.rtr = r.bernoulli(0.1);
  f.id = static_cast<std::uint32_t>(r.uniform_int(0, max_id(f.extended)));
  f.dlc = static_cast<std::uint8_t>(r.uniform_int(0, 8));
  for (auto& b : f.data) b = static_cast<std::uint8_t>(r.uniform_int(0, 255));
  return f;
}

/// Both formats x RTR x dlc 0..8 x payloads {00, FF, 55, AA, random} x ids
/// {0, max, alternating, random}: every field width and shift the packed
/// path uses, with the all-dominant, all-recessive and never-stuffing
/// extremes.
std::vector<CanFrame> structured_corpus() {
  Rng r{2024};
  std::vector<CanFrame> out;
  for (bool extended : {false, true})
    for (bool rtr : {false, true})
      for (int dlc = 0; dlc <= 8; ++dlc)
        for (int payload = 0; payload < 5; ++payload)
          for (int id_kind = 0; id_kind < 4; ++id_kind) {
            CanFrame f;
            f.extended = extended;
            f.rtr = rtr;
            f.dlc = static_cast<std::uint8_t>(dlc);
            const std::uint32_t ids[] = {
                0, max_id(extended), extended ? 0x15555555u : 0x555u,
                static_cast<std::uint32_t>(r.uniform_int(0, max_id(extended)))};
            f.id = ids[id_kind];
            const std::uint8_t fills[] = {0x00, 0xFF, 0x55, 0xAA};
            for (auto& b : f.data)
              b = payload < 4
                      ? fills[payload]
                      : static_cast<std::uint8_t>(r.uniform_int(0, 255));
            out.push_back(f);
          }
  return out;
}

// ------------------------------------------- packed path vs bit reference

TEST(FrameDifferential, StructuredCorpusMatchesReference) {
  const std::vector<CanFrame> corpus = structured_corpus();
  ASSERT_EQ(corpus.size(), 2u * 2u * 9u * 5u * 4u);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const CanFrame& f = corpus[i];
    ASSERT_EQ(frame_wire_bits(f), reference_wire_bits(f))
        << "ext " << f.extended << " rtr " << f.rtr << " dlc " << int{f.dlc}
        << " id 0x" << std::hex << f.id << " data0 0x" << int{f.data[0]};
    EXPECT_EQ(frame_first_difference_bit(f, f), 0);
    const CanFrame& prev = corpus[i == 0 ? corpus.size() - 1 : i - 1];
    ASSERT_EQ(frame_first_difference_bit(prev, f),
              reference_first_difference(prev, f));
  }
}

TEST(FrameDifferential, SeededRandomFramesMatchReference) {
  Rng r{7};
  for (int trial = 0; trial < 200'000; ++trial) {
    const CanFrame f = random_frame(r);
    ASSERT_EQ(frame_wire_bits(f), reference_wire_bits(f)) << "trial " << trial;
  }
}

TEST(FrameDifferential, FirstDifferenceMatchesReference) {
  Rng r{11};
  for (int trial = 0; trial < 20'000; ++trial) {
    const CanFrame a = random_frame(r);
    // One flipped id bit.
    CanFrame b = a;
    b.id ^= 1u << r.uniform_int(0, a.extended ? 28 : 10);
    ASSERT_EQ(frame_first_difference_bit(a, b),
              reference_first_difference(a, b));
    ASSERT_GT(frame_first_difference_bit(a, b), 0);
    // One flipped data bit; beyond dlc (or in an RTR frame) it is not sent.
    CanFrame c = a;
    c.data[static_cast<std::size_t>(r.uniform_int(0, 7))] ^=
        static_cast<std::uint8_t>(1u << r.uniform_int(0, 7));
    ASSERT_EQ(frame_first_difference_bit(a, c),
              reference_first_difference(a, c));
    // Another dlc.
    CanFrame d = a;
    d.dlc = static_cast<std::uint8_t>((a.dlc + r.uniform_int(1, 8)) % 9);
    ASSERT_EQ(frame_first_difference_bit(a, d),
              reference_first_difference(a, d));
    ASSERT_GT(frame_first_difference_bit(a, d), 0);
    // Unrelated frames, formats mixed.
    const CanFrame e = random_frame(r);
    ASSERT_EQ(frame_first_difference_bit(a, e),
              reference_first_difference(a, e));
  }
}

// ------------------------------------------------------------- frame lengths

TEST(Frame, StuffableRegionLengths) {
  CanFrame ext;
  ext.extended = true;
  ext.dlc = 8;
  // SOF + 11 + SRR + IDE + 18 + RTR + r1 + r0 + DLC(4) + 64 + CRC(15) = 118
  EXPECT_EQ(frame_stuffable_bits(ext).count, 118);

  CanFrame base;
  base.extended = false;
  base.dlc = 0;
  // SOF + 11 + RTR + IDE + r0 + DLC(4) + CRC(15) = 34
  EXPECT_EQ(frame_stuffable_bits(base).count, 34);
}

TEST(Frame, WorstCaseFormulaMatchesClassicBound) {
  // Extended 8-byte frame: 54 + 64 stuffable, floor(117/4)=29 stuff bits,
  // + 10 tail bits = 157.
  EXPECT_EQ(worst_case_wire_bits(8, true), 157);
  // Base 8-byte frame: 34 + 64 + floor(97/4)=24 + 10 = 132.
  EXPECT_EQ(worst_case_wire_bits(8, false), 132);
  // Base 0-byte frame: 34 + 8 + 10 = 52.
  EXPECT_EQ(worst_case_wire_bits(0, false), 52);
}

TEST(Frame, ActualNeverExceedsWorstCase) {
  Rng r{42};
  for (int trial = 0; trial < 2000; ++trial) {
    CanFrame f;
    f.extended = r.bernoulli(0.5);
    f.id = static_cast<std::uint32_t>(
        r.uniform_int(0, f.extended ? kMaxExtendedId : kMaxBaseId));
    f.dlc = static_cast<std::uint8_t>(r.uniform_int(0, 8));
    for (auto& b : f.data) b = static_cast<std::uint8_t>(r.uniform_int(0, 255));
    EXPECT_LE(frame_wire_bits(f), worst_case_wire_bits(f.dlc, f.extended));
    // Lower bound: unstuffed region + tail.
    const int unstuffed = frame_stuffable_bits(f).count + 10;
    EXPECT_GE(frame_wire_bits(f), unstuffed);
  }
}

TEST(Frame, AlternatingPayloadHasNoDataStuffBits) {
  CanFrame f;
  f.extended = true;
  f.id = 0x0aaaaaaa & kMaxExtendedId;
  f.dlc = 8;
  for (auto& b : f.data) b = 0x55;  // 01010101 — never 5 equal bits
  const FrameBits fb = frame_stuffable_bits(f);
  // Count stuff bits only over the data region by comparing against the
  // same frame with dlc 0: the alternating payload itself adds none beyond
  // what the CRC tail introduces.
  const int stuff =
      count_stuff_bits({fb.bits.data(), static_cast<std::size_t>(fb.count)});
  EXPECT_LE(stuff, 6);  // header + CRC can still stuff a little
}

TEST(Frame, AllZeroPayloadStuffsHeavily) {
  CanFrame f;
  f.extended = true;
  f.id = 0;
  f.dlc = 8;
  f.data.fill(0);
  const FrameBits fb = frame_stuffable_bits(f);
  const int stuff =
      count_stuff_bits({fb.bits.data(), static_cast<std::size_t>(fb.count)});
  // A long run of zeros stuffs every 4 bits after the first 5.
  EXPECT_GE(stuff, 18);
}

TEST(Frame, StuffCountRule) {
  // 5 equal bits -> 1 stuff bit; the stuff bit breaks the run.
  const bool five[] = {false, false, false, false, false};
  EXPECT_EQ(count_stuff_bits(five), 1);
  const bool nine[] = {false, false, false, false, false,
                       false, false, false, false};
  // After the stuff bit (a 1), the remaining 4 zeros do not re-stuff.
  EXPECT_EQ(count_stuff_bits(nine), 1);
  const bool ten[] = {true, true, true, true, true,
                      true, true, true, true, true};
  // 5 ones -> stuff(0); then remaining 5 ones -> ... the stuff bit resets
  // the run, so positions 6..10 are 5 ones -> second stuff bit.
  EXPECT_EQ(count_stuff_bits(ten), 2);
  const bool alternating[] = {true, false, true, false, true, false};
  EXPECT_EQ(count_stuff_bits(alternating), 0);
}

TEST(Frame, DurationScalesWithBitrate) {
  CanFrame f;
  f.extended = true;
  f.dlc = 8;
  f.id = 0x15555555;
  for (auto& b : f.data) b = 0xA5;
  const BusConfig mbit{1'000'000};
  const BusConfig half{500'000};
  EXPECT_EQ(frame_duration(f, half).ns(), 2 * frame_duration(f, mbit).ns());
  EXPECT_EQ(frame_duration(f, mbit).ns(), frame_wire_bits(f) * 1000);
}

TEST(Frame, PaperBlockingTimeBallpark) {
  // The paper quotes ~154 us for the longest CAN message at 1 Mbit/s; our
  // exact worst case (29-bit ID, maximal stuffing) is 157 bits = 157 us.
  const BusConfig mbit{1'000'000};
  const Duration wc = worst_case_frame_duration(8, true, mbit);
  EXPECT_GE(wc.us(), 150.0);
  EXPECT_LE(wc.us(), 160.0);
}

TEST(Frame, RtrFrameHasNoDataField) {
  CanFrame f;
  f.extended = false;
  f.id = 0x123;
  f.rtr = true;
  f.dlc = 8;  // DLC of the requested frame; no data transmitted
  EXPECT_EQ(frame_stuffable_bits(f).count, 34);
}

TEST(Frame, CrcChangesWithPayload) {
  CanFrame a;
  a.extended = true;
  a.id = 0x100;
  a.dlc = 4;
  a.data = {1, 2, 3, 4, 0, 0, 0, 0};
  CanFrame b = a;
  b.data[2] = 9;
  const FrameBits fa = frame_stuffable_bits(a);
  const FrameBits fb = frame_stuffable_bits(b);
  bool differ = false;
  for (int i = 0; i < fa.count; ++i)
    differ |= fa.bits[static_cast<std::size_t>(i)] !=
              fb.bits[static_cast<std::size_t>(i)];
  EXPECT_TRUE(differ);
}

}  // namespace
}  // namespace rtec
