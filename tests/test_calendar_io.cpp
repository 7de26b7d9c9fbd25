#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "sched/calendar_io.hpp"
#include "util/random.hpp"

namespace rtec {
namespace {

using literals::operator""_us;
using literals::operator""_ms;

Calendar make_calendar() {
  Calendar::Config cfg;
  cfg.round_length = 10_ms;
  cfg.gap = 40_us;
  Calendar cal{cfg};
  SlotSpec a;
  a.lst_offset = 1_ms;
  a.dlc = 8;
  a.fault.omission_degree = 1;
  a.etag = 10;
  a.publisher = 1;
  EXPECT_TRUE(cal.reserve(a).has_value());
  SlotSpec b;
  b.lst_offset = 3_ms;
  b.dlc = 2;
  b.etag = 11;
  b.publisher = 2;
  b.periodic = false;
  EXPECT_TRUE(cal.reserve(b).has_value());
  SlotSpec c;
  c.lst_offset = 5_ms;
  c.dlc = 4;
  c.etag = 12;
  c.publisher = 3;
  c.period_rounds = 2;
  c.phase_round = 1;
  EXPECT_TRUE(cal.reserve(c).has_value());
  return cal;
}

TEST(CalendarIo, RoundTripPreservesEverything) {
  const Calendar original = make_calendar();
  const std::string text = calendar_to_text(original);
  const auto parsed = calendar_from_text(text);
  ASSERT_TRUE(parsed.has_value());

  EXPECT_EQ(parsed->config().round_length.ns(),
            original.config().round_length.ns());
  EXPECT_EQ(parsed->config().gap.ns(), original.config().gap.ns());
  EXPECT_EQ(parsed->config().bus.bitrate_bps,
            original.config().bus.bitrate_bps);
  ASSERT_EQ(parsed->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const SlotSpec& o = original.slot(i);
    const SlotSpec& p = parsed->slot(i);
    EXPECT_EQ(p.lst_offset.ns(), o.lst_offset.ns());
    EXPECT_EQ(p.dlc, o.dlc);
    EXPECT_EQ(p.fault.omission_degree, o.fault.omission_degree);
    EXPECT_EQ(p.etag, o.etag);
    EXPECT_EQ(p.publisher, o.publisher);
    EXPECT_EQ(p.periodic, o.periodic);
    EXPECT_EQ(p.period_rounds, o.period_rounds);
    EXPECT_EQ(p.phase_round, o.phase_round);
    EXPECT_EQ(parsed->timing(i).deadline_offset.ns(),
              original.timing(i).deadline_offset.ns());
  }
}

TEST(CalendarIo, CommentsAndBlanksIgnored) {
  const std::string text =
      "# a configuration image\n"
      "calendar v1\n"
      "\n"
      "round_ns  10000000   # ten milliseconds\n"
      "gap_ns    40000\n"
      "bitrate   1000000\n"
      "slot lst_ns=1000000 dlc=8 k=0 etag=10 node=1\n";
  const auto parsed = calendar_from_text(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 1u);
  EXPECT_EQ(parsed->slot(0).period_rounds, 1);  // defaults applied
  EXPECT_TRUE(parsed->slot(0).periodic);
}

TEST(CalendarIo, RejectsTamperedImages) {
  const struct {
    const char* text;
    const char* why;
  } cases[] = {
      {"round_ns 1\n", "missing header"},
      {"calendar v2\n", "bad version"},
      {"calendar v1\nround_ns 0\n", "non-positive round"},
      {"calendar v1\nround_ns 10000000\ngap_ns 40000\nbitrate 1000000\n"
       "slot dlc=8 k=0 etag=10 node=1\n",
       "missing lst_ns"},
      {"calendar v1\nround_ns 10000000\ngap_ns 40000\nbitrate 1000000\n"
       "slot lst_ns=1000000 dlc=9 k=0 etag=10 node=1\n",
       "dlc out of range -> admission"},
      {"calendar v1\nround_ns 10000000\ngap_ns 40000\nbitrate 1000000\n"
       "slot lst_ns=1000000 dlc=8 k=0 etag=99999 node=1\n",
       "etag out of range"},
      {"calendar v1\nround_ns 10000000\ngap_ns 40000\nbitrate 1000000\n"
       "slot lst_ns=1000000 dlc=8 k=0 etag=10 node=1\n"
       "slot lst_ns=1000000 dlc=8 k=0 etag=11 node=2\n",
       "overlapping slots"},
      {"calendar v1\nround_ns 10000000\ngap_ns 40000\nbitrate 1000000\n"
       "bogus directive\n",
       "unknown directive"},
      {"calendar v1\nround_ns 10000000\ngap_ns 40000\nbitrate 1000000\n"
       "slot lst_ns=xyz dlc=8 k=0 etag=10 node=1\n",
       "unparsable value"},
  };
  for (const auto& c : cases) {
    const auto parsed = calendar_from_text(c.text);
    EXPECT_FALSE(parsed.has_value()) << c.why;
    if (!parsed.has_value()) {
      EXPECT_FALSE(parsed.error().message.empty());
    }
  }
}

TEST(CalendarIo, EveryParseErrorBranchRejectsLoudly) {
  // One case per syntactic error branch in parse_calendar_image — the
  // strict-parse contract: nothing malformed ever degrades to a default.
  constexpr const char* kHeader =
      "calendar v1\nround_ns 10000000\ngap_ns 40000\nbitrate 1000000\n";
  const struct {
    std::string text;
    const char* why;
    const char* fragment;  // must appear in the diagnostic
  } cases[] = {
      {"", "empty input", "empty"},
      {"calendar v1\ncalendar v1\n", "duplicate header", "duplicate"},
      {"calendar v1 extra\n", "trailing token after header", "trailing"},
      {"calendar\n", "missing version", "version"},
      {"calendar v1\nround_ns 1\nround_ns 2\n", "duplicate directive",
       "duplicate"},
      {"calendar v1\nround_ns\n", "missing directive value", "missing value"},
      {"calendar v1\nround_ns 1 2\n", "trailing directive token", "trailing"},
      {"calendar v1\nround_ns -5\n", "negative round", "round_ns"},
      {"calendar v1\nround_ns 99999999999999999999\n", "integer overflow",
       "round_ns"},
      {"calendar v1\nround_ns 2000000000000000\n", "round over format cap",
       "round_ns"},
      {"calendar v1\nround_ns 1000000001\n", "round over the one-second cap",
       "round_ns"},
      {"calendar v1\nround_ns 10000000\ngap_ns 40000\n"
       "bitrate 2000000000\n",
       "bitrate over 1 Gbit/s", "bitrate"},
      {"calendar v1\nslot lst_ns=0 dlc=8 k=0 etag=10 node=1\n",
       "slot before bus parameters", "slot before"},
      {"calendar v1\nround_ns 10000000\n", "incomplete header at EOF",
       "incomplete"},
      {std::string{kHeader} + "slot lst_ns=0 dlc=8 k=0 etag=10 node=1 x=1\n",
       "unknown slot key", "unknown"},
      {std::string{kHeader} + "slot lst_ns=0 lst_ns=1 dlc=8 k=0 etag=10"
       " node=1\n",
       "duplicate slot key", "duplicate"},
      {std::string{kHeader} + "slot lst_ns dlc=8 k=0 etag=10 node=1\n",
       "token without '='", "="},
      {std::string{kHeader} + "slot lst_ns= dlc=8 k=0 etag=10 node=1\n",
       "empty value", "malformed token"},
      {std::string{kHeader} + "slot lst_ns=0 k=0 etag=10 node=1\n",
       "missing dlc", "dlc"},
      {std::string{kHeader} +
       "slot lst_ns=2000000000000000 dlc=8 k=0 etag=10 node=1\n",
       "lst over format cap", "lst_ns"},
      {std::string{kHeader} + "slot lst_ns=0 dlc=-1 k=0 etag=10 node=1\n",
       "negative dlc", "dlc"},
      {std::string{kHeader} + "slot lst_ns=0 dlc=8 k=-1 etag=10 node=1\n",
       "negative k", "k"},
      {std::string{kHeader} + "slot lst_ns=0 dlc=8 k=0 etag=10 node=128\n",
       "node over 7-bit field", "node"},
      {std::string{kHeader} +
       "slot lst_ns=1000000 dlc=8 k=0 etag=10 node=1 periodic=2\n",
       "periodic out of 0/1", "periodic"},
      {std::string{kHeader} +
       "slot lst_ns=1000000 dlc=8 k=0 etag=10 node=1 m=-1\n",
       "negative period", "m"},
      {std::string{kHeader} +
       "slot lst_ns=1000000 dlc=8 k=0 etag=10 node=1 window_ns=-1\n",
       "negative declared window", "window_ns"},
  };
  for (const auto& c : cases) {
    const auto image = parse_calendar_image(c.text);
    EXPECT_FALSE(image.has_value()) << c.why;
    if (!image.has_value()) {
      EXPECT_NE(image.error().message.find(c.fragment), std::string::npos)
          << c.why << ": got '" << image.error().message << "'";
    }
  }
}

TEST(CalendarIo, ParseAcceptsWhatOnlyAdmissionRejects) {
  // The parse/admission split: syntactically well-formed but inadmissible
  // calendars parse into an image (so rtec_lint can describe them), while
  // calendar_from_text rejects them with the admission diagnosis.
  constexpr const char* kHeader =
      "calendar v1\nround_ns 10000000\ngap_ns 40000\nbitrate 1000000\n";
  const struct {
    std::string slots;
    const char* why;
    const char* fragment;
  } cases[] = {
      {"slot lst_ns=1000000 dlc=9 k=0 etag=10 node=1\n", "dlc 9",
       "bad slot spec"},
      {"slot lst_ns=1000000 dlc=8 k=65 etag=10 node=1\n",
       "omission degree over model bound", "bad slot spec"},
      {"slot lst_ns=1000000 dlc=8 k=0 etag=10 node=1 m=0\n", "zero period",
       "bad slot spec"},
      {"slot lst_ns=1000000 dlc=8 k=0 etag=10 node=1 m=2000000\n",
       "period over model bound", "bad slot spec"},
      {"slot lst_ns=1000000 dlc=8 k=0 etag=10 node=1 m=2 phase=2\n",
       "phase outside cycle", "bad slot spec"},
      {"slot lst_ns=50000 dlc=8 k=0 etag=10 node=1\n",
       "ready time before round start", "window outside round"},
      {"slot lst_ns=1000000 dlc=8 k=0 etag=10 node=1\n"
       "slot lst_ns=1100000 dlc=8 k=0 etag=11 node=2\n",
       "windows closer than the gap", "window overlap"},
  };
  for (const auto& c : cases) {
    const std::string text = std::string{kHeader} + c.slots;
    EXPECT_TRUE(parse_calendar_image(text).has_value()) << c.why;
    const auto calendar = calendar_from_text(text);
    EXPECT_FALSE(calendar.has_value()) << c.why;
    if (!calendar.has_value()) {
      EXPECT_NE(calendar.error().message.find(c.fragment), std::string::npos)
          << c.why << ": got '" << calendar.error().message << "'";
    }
  }
}

TEST(CalendarIo, RejectsStaleWindowStamps) {
  // window_ns is a redundancy stamp of ΔT_wait + WCTT(dlc, k); an image
  // whose stamp disagrees with the value derived from its own bus
  // parameters was edited or produced for a different bitrate.
  const std::string text =
      "calendar v1\nround_ns 10000000\ngap_ns 40000\nbitrate 1000000\n"
      "slot lst_ns=1000000 dlc=8 k=1 etag=10 node=1 window_ns=123456\n";
  EXPECT_TRUE(parse_calendar_image(text).has_value());
  const auto calendar = calendar_from_text(text);
  ASSERT_FALSE(calendar.has_value());
  EXPECT_EQ(calendar.error().line, 5);
  EXPECT_NE(calendar.error().message.find("disagrees"), std::string::npos);
}

TEST(CalendarIo, ImageSlotsRecordSourceLines) {
  const std::string text =
      "calendar v1\n"
      "round_ns 10000000\n"
      "gap_ns 40000\n"
      "bitrate 1000000\n"
      "# comment line\n"
      "slot lst_ns=1000000 dlc=8 k=0 etag=10 node=1\n"
      "\n"
      "slot lst_ns=3000000 dlc=8 k=0 etag=11 node=2\n";
  const auto image = parse_calendar_image(text);
  ASSERT_TRUE(image.has_value());
  ASSERT_EQ(image->slots.size(), 2u);
  EXPECT_EQ(image->slots[0].line, 6);
  EXPECT_EQ(image->slots[1].line, 8);
}

TEST(CalendarIo, ErrorsCarryLineNumbers) {
  const std::string text =
      "calendar v1\n"
      "round_ns 10000000\n"
      "gap_ns 40000\n"
      "bitrate 1000000\n"
      "slot lst_ns=1000000 dlc=8 k=0 etag=10 node=1\n"
      "slot lst_ns=1000000 dlc=8 k=0 etag=11 node=2\n";  // overlaps line 5
  const auto parsed = calendar_from_text(text);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_EQ(parsed.error().line, 6);
}

TEST(CalendarIo, FuzzRandomTextNeverCrashes) {
  Rng rng{777};
  const char alphabet[] =
      "calendar v1\nround_ns gap_ns bitrate slot lst= dlc= k= etag= node= "
      "0123456789 #=\n";
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 400));
    for (std::size_t i = 0; i < len; ++i)
      text += alphabet[static_cast<std::size_t>(
          rng.uniform_int(0, sizeof alphabet - 2))];
    (void)calendar_from_text(text);  // must not crash or throw
  }
}

TEST(CalendarIo, EmptyHeaderOnlyImageIsAValidEmptyCalendar) {
  const auto parsed = calendar_from_text(
      "calendar v1\nround_ns 5000000\ngap_ns 40000\nbitrate 500000\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 0u);
  EXPECT_EQ(parsed->config().bus.bitrate_bps, 500'000);
}


TEST(CalendarIo, ScenarioLoadsAndRejectsImages) {
  const Calendar cal = make_calendar();
  const std::string image = calendar_to_text(cal);

  Scenario::Config cfg;
  cfg.calendar.round_length = 10_ms;
  cfg.calendar.gap = 40_us;
  Scenario scn{cfg};
  ASSERT_TRUE(scn.load_calendar_image(image).has_value());
  EXPECT_EQ(scn.calendar().size(), cal.size());
  // Loading the same image twice conflicts (slots already reserved).
  const auto again = scn.load_calendar_image(image);
  ASSERT_FALSE(again.has_value());

  // A scenario configured with a different round must reject the image.
  Scenario::Config other_cfg;
  other_cfg.calendar.round_length = 20_ms;
  Scenario other{other_cfg};
  const auto mismatch = other.load_calendar_image(image);
  ASSERT_FALSE(mismatch.has_value());
  EXPECT_NE(mismatch.error().find("disagree"), std::string::npos);
}

}  // namespace
}  // namespace rtec
