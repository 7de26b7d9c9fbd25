#include "sched/calendar_io.hpp"

#include <array>
#include <limits>
#include <sstream>

#include "util/kv_text.hpp"

namespace rtec {

std::string image_to_text(const CalendarImage& image) {
  std::ostringstream out;
  out << "calendar v1\n";
  out << "round_ns  " << image.config.round_length.ns() << "\n";
  out << "gap_ns    " << image.config.gap.ns() << "\n";
  out << "bitrate   " << image.config.bus.bitrate_bps << "\n";
  for (const ImageSlot& slot : image.slots) {
    const SlotSpec& s = slot.spec;
    out << "slot lst_ns=" << s.lst_offset.ns() << " dlc=" << s.dlc
        << " k=" << s.fault.omission_degree << " etag=" << s.etag
        << " node=" << static_cast<int>(s.publisher)
        << " periodic=" << (s.periodic ? 1 : 0) << " m=" << s.period_rounds
        << " phase=" << s.phase_round;
    if (slot.declared_window_ns)
      out << " window_ns=" << *slot.declared_window_ns;
    out << "\n";
  }
  return out.str();
}

CalendarImage image_of(const Calendar& calendar) {
  CalendarImage image;
  image.config = calendar.config();
  image.slots.reserve(calendar.size());
  for (std::size_t i = 0; i < calendar.size(); ++i) {
    ImageSlot slot;
    slot.spec = calendar.slot(i);
    const SlotTiming t = calendar.timing(i);
    slot.declared_window_ns = (t.deadline_offset - t.ready_offset).ns();
    image.slots.push_back(slot);
  }
  return image;
}

std::string calendar_to_text(const Calendar& calendar) {
  return image_to_text(image_of(calendar));
}

namespace {

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// Format caps. Durations beyond ~11.6 days of nanoseconds (and bit rates
/// beyond 1 Gbit/s, whose bit time is sub-nanosecond) cannot arise from
/// any real CAN deployment, and rejecting them at parse time keeps every
/// downstream window computation inside 64-bit arithmetic — a truncated
/// or fuzzed image can never push the analysis into overflow.
constexpr std::int64_t kMaxDurationNs = 1'000'000'000'000'000;
/// The round also sizes the linter's HRT coverage grid (one 8-byte cell
/// per microsecond of round, three arrays of them in srt_analysis.cpp), so
/// it gets a tighter cap: one second is a hundred times the paper's 10 ms
/// round and keeps that grid near 24 MB, where the format cap let a
/// hostile image ask for 80 GB and abort the linter.
constexpr std::int64_t kMaxRoundNs = 1'000'000'000;
constexpr std::int64_t kMaxBitrate = 1'000'000'000;

/// Reads a single-value directive ("round_ns 10000000"): exactly one
/// integer token in (0, max], nothing after it.
Expected<std::int64_t, std::string> parse_value_directive(
    std::istringstream& ls, const std::string& word, std::int64_t max) {
  std::string value;
  if (!(ls >> value)) return Unexpected{"missing value for " + word};
  std::string extra;
  if (ls >> extra)
    return Unexpected{"trailing token '" + extra + "' after " + word};
  KvMap one;
  one.values.emplace(word, value);
  const auto v = one.get_int_in(word, 1, max);
  if (!v) return Unexpected{"bad value for " + word + ": " + v.error()};
  return *v;
}

}  // namespace

Expected<CalendarImage, CalendarIoError> parse_calendar_image(
    const std::string& text) {
  std::istringstream in{text};
  std::string line;
  int line_no = 0;

  auto fail = [&](std::string msg) {
    return Unexpected{CalendarIoError{line_no, std::move(msg)}};
  };

  bool have_header = false;
  std::optional<std::int64_t> round_ns;
  std::optional<std::int64_t> gap_ns;
  std::optional<std::int64_t> bitrate;
  std::vector<ImageSlot> slots;

  static constexpr std::array<std::string_view, 9> kSlotKeys = {
      "lst_ns", "dlc", "k", "etag", "node", "periodic", "m", "phase",
      "window_ns"};

  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and skip blanks.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls{line};
    std::string word;
    if (!(ls >> word)) continue;

    if (word == "calendar") {
      if (have_header) return fail("duplicate 'calendar' header");
      std::string version;
      if (!(ls >> version) || version != "v1")
        return fail("unsupported calendar version");
      std::string extra;
      if (ls >> extra)
        return fail("trailing token '" + extra + "' after header");
      have_header = true;
      continue;
    }
    if (!have_header) return fail("missing 'calendar v1' header");

    if (word == "round_ns" || word == "gap_ns" || word == "bitrate") {
      auto& field = word == "round_ns" ? round_ns
                    : word == "gap_ns" ? gap_ns
                                       : bitrate;
      if (field) return fail("duplicate " + word + " directive");
      const auto v = parse_value_directive(
          ls, word,
          word == "bitrate"    ? kMaxBitrate
          : word == "round_ns" ? kMaxRoundNs
                               : kMaxDurationNs);
      if (!v) return fail(v.error());
      field = *v;
      continue;
    }

    if (word == "slot") {
      if (!round_ns || !gap_ns || !bitrate)
        return fail("slot before round_ns/gap_ns/bitrate");
      std::string rest;
      std::getline(ls, rest);
      const auto kv = parse_kv_tokens(rest, kSlotKeys);
      if (!kv) return fail("malformed slot line: " + kv.error());
      for (const char* required : {"lst_ns", "dlc", "k", "etag", "node"}) {
        if (!kv->contains(required))
          return fail(std::string{"slot missing "} + required);
      }
      // Every present field must parse and fit its SlotSpec type; fields
      // that stay absent keep the documented SlotSpec defaults (periodic
      // slot, every round) — that is the format's contract, not a silent
      // fallback on malformed input.
      const auto lst = kv->get_int_in("lst_ns", -kMaxDurationNs, kMaxDurationNs);
      if (!lst) return fail("bad slot: " + lst.error());
      const auto dlc = kv->get_int_in("dlc", 0, kIntMax);
      if (!dlc) return fail("bad slot: " + dlc.error());
      const auto k = kv->get_int_in("k", 0, kIntMax);
      if (!k) return fail("bad slot: " + k.error());
      const auto etag = kv->get_int_in("etag", 0, kMaxEtag);
      if (!etag) return fail("bad slot: " + etag.error());
      const auto node = kv->get_int_in("node", 0, kMaxNodeId);
      if (!node) return fail("bad slot: " + node.error());

      ImageSlot slot;
      slot.line = line_no;
      SlotSpec& s = slot.spec;
      s.lst_offset = Duration::nanoseconds(*lst);
      s.dlc = static_cast<int>(*dlc);
      s.fault.omission_degree = static_cast<int>(*k);
      s.etag = static_cast<Etag>(*etag);
      s.publisher = static_cast<NodeId>(*node);
      if (kv->contains("periodic")) {
        const auto periodic = kv->get_int_in("periodic", 0, 1);
        if (!periodic) return fail("bad slot: " + periodic.error());
        s.periodic = *periodic != 0;
      }
      if (kv->contains("m")) {
        const auto m = kv->get_int_in("m", 0, kIntMax);
        if (!m) return fail("bad slot: " + m.error());
        s.period_rounds = static_cast<int>(*m);
      }
      if (kv->contains("phase")) {
        const auto phase = kv->get_int_in("phase", 0, kIntMax);
        if (!phase) return fail("bad slot: " + phase.error());
        s.phase_round = static_cast<int>(*phase);
      }
      if (kv->contains("window_ns")) {
        const auto window = kv->get_int_in("window_ns", 0, kMaxDurationNs);
        if (!window) return fail("bad slot: " + window.error());
        slot.declared_window_ns = *window;
      }
      slots.push_back(std::move(slot));
      continue;
    }
    return fail("unknown directive '" + word + "'");
  }

  if (!have_header) {
    line_no = 0;
    return fail("empty input");
  }
  if (!round_ns || !gap_ns || !bitrate) {
    line_no = 0;
    return fail("incomplete header (round_ns/gap_ns/bitrate required)");
  }

  CalendarImage image;
  image.config.round_length = Duration::nanoseconds(*round_ns);
  image.config.gap = Duration::nanoseconds(*gap_ns);
  image.config.bus.bitrate_bps = *bitrate;
  image.slots = std::move(slots);
  return image;
}

Expected<Calendar, CalendarIoError> calendar_from_text(
    const std::string& text) {
  auto image = parse_calendar_image(text);
  if (!image) return Unexpected{image.error()};

  Calendar calendar{image->config};
  for (const ImageSlot& slot : image->slots) {
    const auto reserved = calendar.reserve(slot.spec);
    if (!reserved) {
      const char* why = "";
      switch (reserved.error()) {
        case AdmissionError::kBadSpec: why = "bad slot spec"; break;
        case AdmissionError::kWindowOutsideRound:
          why = "window outside round";
          break;
        case AdmissionError::kOverlap: why = "window overlap"; break;
      }
      return Unexpected{CalendarIoError{
          slot.line, std::string{"admission rejected slot: "} + why}};
    }
    // The declared window is a stamp of ΔT_wait + WCTT(dlc, k) at image
    // production time; a disagreeing stamp means the image was edited by
    // hand or produced against different bus parameters — reject rather
    // than trust either value (rtec_lint reports the same condition as
    // RTEC-C003).
    if (slot.declared_window_ns) {
      const SlotTiming t = calendar.timing(*reserved);
      const std::int64_t derived = (t.deadline_offset - t.ready_offset).ns();
      if (*slot.declared_window_ns != derived)
        return Unexpected{CalendarIoError{
            slot.line,
            "declared window_ns=" + std::to_string(*slot.declared_window_ns) +
                " disagrees with the window derived from dlc/k/bitrate (" +
                std::to_string(derived) + " ns)"}};
    }
  }
  return calendar;
}

}  // namespace rtec
