#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "canbus/controller.hpp"
#include "util/expected.hpp"

/// \file candump.hpp
/// Interop with Linux SocketCAN tooling: format frames as `candump -l`
/// log lines (trace::rteb_to_candump renders a recorded RTEB trace this
/// way), and replay candump logs (e.g. captured from a real vcan/can
/// interface) into the simulator.
///
/// Log line format (what candump writes and canplayer reads):
///
///   (1436509053.249713) vcan0 1F334455#DEADBEEF
///
/// i.e. `(seconds.microseconds) <iface> <ID-hex>#<data-hex>`; 8 hex-digit
/// identifiers are extended (29-bit), 3-digit ones base (11-bit); an `R`
/// after `#` marks a remote frame. Corrupted simulated transmissions have
/// no line (candump on real hardware never sees them either).

namespace rtec {

/// Formats one frame delivered at `at` the way candump would (no newline).
[[nodiscard]] std::string format_candump_line(const CanFrame& frame,
                                              TimePoint at,
                                              const std::string& interface_name);

/// The one formatter behind format_candump_line, with snprintf's
/// contract: writes the line to `out`, truncated to `room` bytes with its
/// terminating NUL, and returns the line's full length; room 0 (out may
/// then be null) only measures it.
std::size_t print_candump_line(char* out, std::size_t room,
                               const CanFrame& frame, TimePoint at,
                               std::string_view interface_name);

/// One parsed candump log entry.
struct CandumpEntry {
  /// Timestamp exactly as recorded in the log (wall-clock epoch for real
  /// captures, simulation time for our own recordings); the replayer only
  /// uses differences, rebased onto its own start time.
  TimePoint at;
  CanFrame frame;
};

/// Parses a candump log; returns the entries in file order. Malformed
/// lines (bad timestamp, unparsable or out-of-range identifier, odd or
/// oversized data field) are skipped, and their count is reported through
/// `skipped_lines` when non-null — callers ingesting external captures
/// should surface it, since a silently shortened log corrupts replay
/// timing. Blank lines are not counted as malformed.
[[nodiscard]] std::vector<CandumpEntry> parse_candump(
    const std::string& text, std::size_t* skipped_lines = nullptr);

/// Replays parsed entries into the simulation through `controller`:
/// each frame is submitted at `start + (entry.at - first_entry.at)`.
/// Returns the number of frames scheduled.
std::size_t replay_candump(Simulator& sim, CanController& controller,
                           const std::vector<CandumpEntry>& entries,
                           TimePoint start);

}  // namespace rtec
