#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "canbus/can_types.hpp"
#include "util/time_types.hpp"

/// \file frame.hpp
/// CAN 2.0 frame model with exact on-wire timing.
///
/// The protocol mechanisms this library reproduces (LST release, ΔT_wait
/// blocking extension, slot sizing, EDF promotion windows) are all defined
/// in terms of frame transmission times, so the simulator computes the
/// *exact* stuffed length of each concrete frame: it serializes the
/// stuffable bit region (SOF .. CRC sequence), applies the 5-bit stuffing
/// rule, and adds the fixed unstuffed tail (CRC delimiter, ACK slot, ACK
/// delimiter, EOF). Worst-case formulas (Davis et al. style) are provided
/// separately for the WCTT analysis in `sched/wctt.hpp`.

namespace rtec {

/// One CAN 2.0 frame. The middleware always uses 29-bit extended IDs
/// (CAN 2.0B) as required by the paper's identifier layout; 11-bit base
/// frames are supported for completeness and for the frame-format tests.
struct CanFrame {
  std::uint32_t id = 0;      ///< 29-bit (extended) or 11-bit (base) identifier.
  bool extended = true;      ///< IDE: extended (29-bit) format.
  bool rtr = false;          ///< Remote transmission request (no data field).
  std::uint8_t dlc = 0;      ///< Data length code, 0..8.
  std::array<std::uint8_t, 8> data{};

  [[nodiscard]] std::span<const std::uint8_t> payload() const {
    return {data.data(), dlc};
  }
};

inline constexpr std::uint32_t kMaxExtendedId = (1u << 29) - 1;
inline constexpr std::uint32_t kMaxBaseId = (1u << 11) - 1;

/// Unstuffed frame tail after the CRC sequence: CRC delimiter + ACK slot +
/// ACK delimiter + 7-bit EOF. Shared by the exact per-frame length and the
/// worst-case (Davis-style) bound.
inline constexpr int kFrameTailBits = 1 + 1 + 1 + 7;

/// Serialized stuffable bit region of a frame (SOF through CRC sequence),
/// with the CRC computed over the preceding bits. Maximum length:
/// 1+11+1+1+18+1+2+4+64+15 = 118 bits (extended, 8 data bytes).
struct FrameBits {
  std::array<bool, 128> bits{};
  int count = 0;
};

/// Builds the unstuffed stuffable region (including the real CRC-15) one
/// bit at a time. With `count_stuff_bits` this is the bit-level reference
/// that the packed `frame_wire_bits` / `frame_first_difference_bit` are
/// tested against; the simulated paths do not call it.
[[nodiscard]] FrameBits frame_stuffable_bits(const CanFrame& f);

/// Number of stuff bits the 5-identical-bits rule inserts into `region`.
[[nodiscard]] int count_stuff_bits(std::span<const bool> region);

/// Exact number of bits this concrete frame occupies on the wire, from SOF
/// through the last EOF bit (intermission NOT included). Computed from the
/// region packed into 64-bit words, with byte-table CRC-15 and stuff-bit
/// counting (no per-bit loop); equal to the bit-level reference above.
[[nodiscard]] int frame_wire_bits(const CanFrame& f);

/// Exact wire duration of this frame at the given bus config (intermission
/// NOT included).
[[nodiscard]] Duration frame_duration(const CanFrame& f, const BusConfig& cfg);

/// 1-based index of the first stuffable-region bit at which the two frames'
/// serialized streams differ (two nodes driving the bus with these frames
/// simultaneously corrupt each other at this bit). Returns 0 when the
/// regions are bit-identical — the transmissions superimpose cleanly.
[[nodiscard]] int frame_first_difference_bit(const CanFrame& a,
                                             const CanFrame& b);

/// Worst-case wire bits for a frame with `dlc` data bytes, assuming maximal
/// bit stuffing: g + 8*dlc + 10 + floor((g + 8*dlc - 1) / 4), where g = 34
/// for base format and g = 54 for extended format, plus CRC delimiter, ACK
/// and EOF. (Equivalently the classic schedulability-analysis bound.)
[[nodiscard]] int worst_case_wire_bits(int dlc, bool extended);

/// Worst-case wire duration (intermission NOT included).
[[nodiscard]] Duration worst_case_frame_duration(int dlc, bool extended,
                                                 const BusConfig& cfg);

}  // namespace rtec
