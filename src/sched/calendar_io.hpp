#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sched/calendar.hpp"
#include "util/expected.hpp"

/// \file calendar_io.hpp
/// Portable text format for reservation calendars — the "configuration
/// image" distributed to every node during the configuration phase
/// (§3.1: reservations are made offline). The planner CLI writes it; a
/// deployment loads it into each node's Calendar at boot; the static
/// verifier (analysis/lint.hpp, tools/rtec_lint) checks it without
/// running anything.
///
/// Format (one directive per line, `#` starts a comment):
///
///   calendar v1
///   round_ns  10000000
///   gap_ns    40000
///   bitrate   1000000
///   slot lst_ns=1000000 dlc=8 k=1 etag=10 node=1 periodic=1 m=1 phase=0
///        ... window_ns=506000   (one line; wrapped here for width)
///
/// `window_ns` is the *declared* reserved window (ΔT_wait + WCTT) the
/// planner stamped when the image was produced. It is redundant — the
/// window is derivable from dlc/k/bitrate — and exactly that redundancy
/// makes a stale or tampered image detectable: the linter recomputes the
/// window from sched/wctt and flags any declaration that differs from it
/// (rule RTEC-C003), and calendar_from_text refuses such an image.
///
/// Loading an image is a two-stage pipeline:
///   1. parse_calendar_image — strict *syntactic* parse into a raw
///      CalendarImage. No admission, but no silent defaults either:
///      unknown/duplicate keys, truncated directives, non-numeric or
///      overflowing values and out-of-range ids are all hard errors.
///   2. calendar_from_text — stage 1 plus the Calendar admission test on
///      every slot, so a tampered image cannot produce an inconsistent
///      calendar. The linter instead runs its rule catalog on the raw
///      image (it must be able to *describe* an inadmissible calendar).

namespace rtec {

struct CalendarIoError {
  int line = 0;          ///< 1-based line of the problem (0 = structural)
  std::string message;
};

/// One slot line of an image, before admission.
struct ImageSlot {
  SlotSpec spec;
  int line = 0;  ///< source line in the image text (0 = built in memory)
  /// window_ns= as written in the image; nullopt when the image predates
  /// the key (the linter then derives it and only cross-checks ranges).
  std::optional<std::int64_t> declared_window_ns;
};

/// Raw, un-admitted calendar description: exactly what the image says.
struct CalendarImage {
  Calendar::Config config;
  std::vector<ImageSlot> slots;
};

/// Strict syntactic parse of a configuration image (stage 1 above).
/// Field ranges that would not survive the round-trip through SlotSpec's
/// integer types (etag, node, and int-typed fields) are checked here;
/// *semantic* validity (windows inside the round, overlap, period/phase
/// consistency) is deliberately not — that is the linter's and the
/// admission test's job.
[[nodiscard]] Expected<CalendarImage, CalendarIoError> parse_calendar_image(
    const std::string& text);

/// Parses a configuration image and admits every slot into a Calendar;
/// the first failure aborts with its line number.
[[nodiscard]] Expected<Calendar, CalendarIoError> calendar_from_text(
    const std::string& text);

/// Serializes a raw image (config + all slots, declared windows included).
[[nodiscard]] std::string image_to_text(const CalendarImage& image);

/// Serializes the calendar (config + all slots) to the text format,
/// stamping each slot's derived window as window_ns.
[[nodiscard]] std::string calendar_to_text(const Calendar& calendar);

/// The image describing a live calendar: every reserved slot with its
/// derived window declared. This is the bridge from a constructed
/// Calendar to the static verifier.
[[nodiscard]] CalendarImage image_of(const Calendar& calendar);

}  // namespace rtec
