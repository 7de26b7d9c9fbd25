#include "canbus/frame.hpp"

#include <bit>
#include <cassert>

#include "util/crc15.hpp"

namespace rtec {

namespace {

// ------------------------------------------------ bit-level reference path

void append_bit(FrameBits& fb, bool bit) {
  assert(fb.count < static_cast<int>(fb.bits.size()));
  fb.bits[static_cast<std::size_t>(fb.count++)] = bit;
}

void append_field(FrameBits& fb, std::uint32_t value, int width) {
  for (int i = width - 1; i >= 0; --i) append_bit(fb, ((value >> i) & 1u) != 0);
}

// ------------------------------------------------------ packed (production)
//
// The simulated paths never serialize a frame bit by bit. The stuffable
// region is packed MSB-first into two 64-bit words with field-wide shifts;
// the CRC-15 and the stuff-bit count then consume it a byte at a time
// through two tables built at compile time from the bit-level rules
// (`crc15_step`, `stuff_step`), so each rule lives in one place. The tables
// are read-only: shard threads share nothing mutable. The differential
// tests in tests/test_frame.cpp hold this path equal to
// `frame_stuffable_bits` + `count_stuff_bits`.

/// Region bit i sits in w[i / 64] at bit 63 - i % 64; bits at and after
/// `count` are zero.
struct PackedRegion {
  std::uint64_t w[2] = {0, 0};
  int count = 0;
};

/// ORs the MSB-aligned bits of `top` into the region starting at bit `pos`
/// (0 < pos < 128); bits that would fall past bit 127 must be zero.
void or_at(PackedRegion& r, std::uint64_t top, int pos) {
  assert(pos > 0 && pos < 128);
  if (pos < 64) {
    r.w[0] |= top >> pos;
    r.w[1] |= top << (64 - pos);
  } else {
    r.w[1] |= top >> (pos - 64);
  }
}

/// Byte k (bits 8k .. 8k+7) of the packed region, 0 <= k < 16.
std::uint8_t byte_at(const PackedRegion& r, int k) {
  return static_cast<std::uint8_t>(r.w[k >> 3] >> (56 - 8 * (k & 7)));
}

/// kCrc15ByteTable[x] is the CRC register after feeding the 8 bits of x
/// (MSB first) into a zero register.
constexpr auto kCrc15ByteTable = [] {
  std::array<std::uint16_t, 256> t{};
  for (unsigned x = 0; x < 256; ++x) {
    std::uint16_t crc = 0;
    for (int i = 7; i >= 0; --i) crc = crc15_step(crc, ((x >> i) & 1u) != 0);
    t[x] = crc;
  }
  return t;
}();

/// Feeds the first k (0..8) bits of `b` into the CRC register. While k bits
/// go in, the feedback depends only on them and the register's top k bits,
/// and leading zeros leave a zero register zero, so one table lookup covers
/// any k.
std::uint16_t crc15_feed(std::uint16_t crc, std::uint8_t b, int k) {
  const unsigned in = (static_cast<unsigned>(crc) >> (15 - k)) ^
                      (static_cast<unsigned>(b) >> (8 - k));
  return static_cast<std::uint16_t>(((crc << k) & 0x7fff) ^
                                    kCrc15ByteTable[in & 0xffu]);
}

// Stuffing automaton. State 0 is the start (no bit sent yet); state
// 1 + 4*bit + (run - 1) means the last `run` bits (1..4) all equal `bit`.
// A run never rests at 5: the fifth equal bit inserts its complement,
// which starts a new run of length 1.
constexpr int kStuffStates = 9;

constexpr std::uint8_t stuff_state(bool bit, int run) {
  return static_cast<std::uint8_t>(1 + (bit ? 4 : 0) + (run - 1));
}

struct StuffStep {
  std::uint8_t state;
  std::uint8_t stuffed;  // 0 or 1
};

constexpr StuffStep stuff_step(std::uint8_t state, bool b) {
  if (state == 0) return {stuff_state(b, 1), 0};
  const bool last = state > 4;
  const int run = (state - 1) % 4 + 1;
  if (b != last) return {stuff_state(b, 1), 0};
  if (run == 4) return {stuff_state(!b, 1), 1};
  return {stuff_state(b, run + 1), 0};
}

/// kStuffByteTable[state][x] = (stuff bits inserted while sending the 8 bits
/// of x, 0..2) << 4 | next state.
constexpr auto kStuffByteTable = [] {
  std::array<std::array<std::uint8_t, 256>, kStuffStates> t{};
  for (int s = 0; s < kStuffStates; ++s) {
    for (unsigned x = 0; x < 256; ++x) {
      auto state = static_cast<std::uint8_t>(s);
      int stuffed = 0;
      for (int i = 7; i >= 0; --i) {
        const StuffStep step = stuff_step(state, ((x >> i) & 1u) != 0);
        state = step.state;
        stuffed += step.stuffed;
      }
      t[static_cast<std::size_t>(s)][x] =
          static_cast<std::uint8_t>(stuffed << 4 | state);
    }
  }
  return t;
}();

PackedRegion pack_stuffable(const CanFrame& f) {
  assert(f.dlc <= 8);
  // SOF .. DLC as one MSB-first value. Dominant fixed bits (SOF, r1, r0,
  // base-format IDE) are the zeros between the fields.
  std::uint64_t control = 0;
  int control_bits = 0;
  const std::uint64_t rtr = f.rtr ? 1u : 0u;
  if (f.extended) {
    assert(f.id <= kMaxExtendedId);
    control = std::uint64_t{f.id >> 18} << 27       // ID-28..18
              | std::uint64_t{0b11} << 25           // SRR, IDE (recessive)
              | std::uint64_t{f.id & 0x3ffff} << 7  // ID-17..0
              | rtr << 6 | f.dlc;
    control_bits = 39;
  } else {
    assert(f.id <= kMaxBaseId);
    control = std::uint64_t{f.id} << 7 | rtr << 6 | f.dlc;
    control_bits = 19;
  }
  const int data_bytes = f.rtr ? 0 : f.dlc;
  std::uint64_t data = 0;  // MSB-aligned
  for (int i = 0; i < data_bytes; ++i)
    data |= std::uint64_t{f.data[static_cast<std::size_t>(i)]} << (56 - 8 * i);

  PackedRegion r;
  r.w[0] = control << (64 - control_bits);
  or_at(r, data, control_bits);
  const int crc_at = control_bits + 8 * data_bytes;

  std::uint16_t crc = 0;
  for (int k = 0; k < crc_at / 8; ++k) crc = crc15_feed(crc, byte_at(r, k), 8);
  crc = crc15_feed(crc, byte_at(r, crc_at / 8), crc_at % 8);
  or_at(r, std::uint64_t{crc} << 49, crc_at);
  r.count = crc_at + 15;
  return r;
}

int packed_stuff_bits(const PackedRegion& r) {
  std::uint8_t state = 0;
  int stuffed = 0;
  for (int k = 0; k < r.count / 8; ++k) {
    const std::uint8_t e = kStuffByteTable[state][byte_at(r, k)];
    stuffed += e >> 4;
    state = static_cast<std::uint8_t>(e & 0xfu);
  }
  // The last count % 8 bits go through the same table, padded with
  // alternating bits that start with the complement of the region's last
  // bit: the pad neither extends a run of region bits nor forms a run of
  // its own, so it inserts no stuff bit.
  const int tail = r.count % 8;
  const int last = r.count - 1;
  const bool last_bit = ((r.w[last >> 6] >> (63 - (last & 63))) & 1u) != 0;
  const auto pad =
      static_cast<std::uint8_t>((last_bit ? 0x55u : 0xAAu) >> tail);
  stuffed += kStuffByteTable[state][byte_at(r, r.count / 8) | pad] >> 4;
  return stuffed;
}

}  // namespace

FrameBits frame_stuffable_bits(const CanFrame& f) {
  assert(f.dlc <= 8);
  FrameBits fb;
  append_bit(fb, false);  // SOF (dominant)
  if (f.extended) {
    assert(f.id <= kMaxExtendedId);
    append_field(fb, f.id >> 18, 11);  // ID-28..18
    append_bit(fb, true);              // SRR (recessive)
    append_bit(fb, true);              // IDE = 1 (extended)
    append_field(fb, f.id & 0x3ffff, 18);  // ID-17..0
    append_bit(fb, f.rtr);
    append_bit(fb, false);  // r1
    append_bit(fb, false);  // r0
  } else {
    assert(f.id <= kMaxBaseId);
    append_field(fb, f.id, 11);
    append_bit(fb, f.rtr);
    append_bit(fb, false);  // IDE = 0 (base)
    append_bit(fb, false);  // r0
  }
  append_field(fb, f.dlc, 4);
  const int data_bytes = f.rtr ? 0 : f.dlc;
  for (int i = 0; i < data_bytes; ++i)
    append_field(fb, f.data[static_cast<std::size_t>(i)], 8);

  const std::uint16_t crc =
      crc15({fb.bits.data(), static_cast<std::size_t>(fb.count)});
  append_field(fb, crc, 15);
  return fb;
}

int count_stuff_bits(std::span<const bool> region) {
  // Simulate the transmitter: after five consecutive identical bits a
  // complement bit is inserted; the inserted bit participates in subsequent
  // run counting.
  int stuffed = 0;
  int run = 0;
  bool run_bit = false;
  for (bool b : region) {
    if (run == 0 || b == run_bit) {
      run_bit = (run == 0) ? b : run_bit;
      ++run;
    } else {
      run_bit = b;
      run = 1;
    }
    if (run == 5) {
      ++stuffed;
      // The stuff bit is the complement and starts a new run of length 1.
      run_bit = !run_bit;
      run = 1;
    }
  }
  return stuffed;
}

int frame_wire_bits(const CanFrame& f) {
  const PackedRegion r = pack_stuffable(f);
  return r.count + packed_stuff_bits(r) + kFrameTailBits;
}

Duration frame_duration(const CanFrame& f, const BusConfig& cfg) {
  return cfg.bit_time() * frame_wire_bits(f);
}

int frame_first_difference_bit(const CanFrame& a, const CanFrame& b) {
  const PackedRegion ra = pack_stuffable(a);
  const PackedRegion rb = pack_stuffable(b);
  const int common = ra.count < rb.count ? ra.count : rb.count;
  const std::uint64_t x0 = ra.w[0] ^ rb.w[0];
  const std::uint64_t x1 = ra.w[1] ^ rb.w[1];
  // Bits past each region's end are zero, so a difference at or after
  // `common` only means the regions have different lengths.
  const int first = x0 != 0   ? std::countl_zero(x0)
                    : x1 != 0 ? 64 + std::countl_zero(x1)
                              : common;
  if (first < common) return first + 1;
  if (ra.count != rb.count) return common + 1;
  return 0;
}

int worst_case_wire_bits(int dlc, bool extended) {
  assert(dlc >= 0 && dlc <= 8);
  const int g = extended ? 54 : 34;  // stuffable control + CRC bits
  const int stuffable = g + 8 * dlc;
  const int max_stuff = (stuffable - 1) / 4;
  return stuffable + max_stuff + kFrameTailBits;
}

Duration worst_case_frame_duration(int dlc, bool extended, const BusConfig& cfg) {
  return cfg.bit_time() * worst_case_wire_bits(dlc, extended);
}

}  // namespace rtec
