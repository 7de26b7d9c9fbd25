#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/lint.hpp"
#include "sched/planner.hpp"
#include "util/random.hpp"

/// Fixture tests for the static calendar/scenario verifier: one minimal
/// input that triggers each rule ID, one clean input that passes it, a
/// golden test for the JSON report format, and a differential fuzz test
/// that proves the linter and the Calendar admission test agree (the
/// property RTEC-C008 monitors in production).

namespace rtec::analysis {
namespace {

using literals::operator""_us;
using literals::operator""_ms;

CalendarImage base_image() {
  CalendarImage image;
  image.config.round_length = 10_ms;
  image.config.gap = 40_us;
  image.config.bus.bitrate_bps = 1'000'000;
  return image;
}

ImageSlot mk_slot(std::int64_t lst_us, int dlc, int k, Etag etag,
                  NodeId node) {
  ImageSlot slot;
  slot.spec.lst_offset = Duration::microseconds(lst_us);
  slot.spec.dlc = dlc;
  slot.spec.fault.omission_degree = k;
  slot.spec.etag = etag;
  slot.spec.publisher = node;
  return slot;
}

bool has_rule(const LintReport& report, Rule rule) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [rule](const Finding& f) { return f.rule == rule; });
}

int count_rule(const LintReport& report, Rule rule) {
  return static_cast<int>(
      std::count_if(report.findings.begin(), report.findings.end(),
                    [rule](const Finding& f) { return f.rule == rule; }));
}

const Finding& find_rule(const LintReport& report, Rule rule) {
  static const Finding missing{};
  const auto it =
      std::find_if(report.findings.begin(), report.findings.end(),
                   [rule](const Finding& f) { return f.rule == rule; });
  EXPECT_NE(it, report.findings.end())
      << "expected " << rule_code(rule) << " in:\n" << report_to_text(report);
  return it == report.findings.end() ? missing : *it;
}

TEST(Lint, CleanCalendarPasses) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 1, 10, 1));
  image.slots.push_back(mk_slot(3'000, 2, 0, 11, 2));
  const LintReport report = lint_calendar(image);
  EXPECT_TRUE(report.findings.empty()) << report_to_text(report);
}

// --- RTEC-C001 window-outside-round ------------------------------------

TEST(Lint, C001FiresWhenReadyPrecedesRoundStart) {
  CalendarImage image = base_image();
  // LST 50 us < ΔT_wait (~160 us at 1 Mbit/s): ready time before round 0.
  image.slots.push_back(mk_slot(50, 8, 0, 10, 1));
  const LintReport report = lint_calendar(image);
  EXPECT_TRUE(has_rule(report, Rule::kWindowOutsideRound));
  EXPECT_TRUE(report.has_errors());
}

TEST(Lint, C001PassesWindowInsideRound) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 0, 10, 1));
  EXPECT_FALSE(has_rule(lint_calendar(image), Rule::kWindowOutsideRound));
}

// --- RTEC-C002 window-overlap -------------------------------------------

TEST(Lint, C002FiresOnWindowsCloserThanGap) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 1, 10, 1));
  image.slots.push_back(mk_slot(1'100, 8, 0, 11, 2));
  const LintReport report = lint_calendar(image);
  const Finding& f = find_rule(report, Rule::kWindowOverlap);
  EXPECT_EQ(f.slot, 1);
  EXPECT_EQ(f.other_slot, 0);
  EXPECT_EQ(f.severity, Severity::kError);
}

TEST(Lint, C002ChecksSeparationCircularlyOverTheRoundBoundary) {
  CalendarImage image = base_image();
  // Window ends at deadline = 9.95 ms + WCTT(8, k=0) ≈ 10.11 ms: wraps
  // into the next round and collides with the slot at the round start.
  image.slots.push_back(mk_slot(400, 8, 0, 10, 1));
  image.slots.push_back(mk_slot(9'950, 8, 0, 11, 2));
  const LintReport report = lint_calendar(image);
  // The wrap makes the second window leave the round — C001 — and the
  // admission mirror must agree (no C008).
  EXPECT_TRUE(report.has_errors());
  EXPECT_FALSE(has_rule(report, Rule::kAdmissionDisagreement));
}

TEST(Lint, C002PassesWithGapRespected) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 1, 10, 1));
  image.slots.push_back(mk_slot(2'000, 8, 0, 11, 2));
  EXPECT_FALSE(has_rule(lint_calendar(image), Rule::kWindowOverlap));
}

// --- RTEC-C003 wctt-coverage --------------------------------------------

TEST(Lint, C003FiresWhenDeclaredWindowUndersizesWctt) {
  CalendarImage image = base_image();
  ImageSlot slot = mk_slot(1'000, 8, 1, 10, 1);
  slot.declared_window_ns = 100'000;  // ΔT_wait + WCTT(8, k=1) is 497 us
  image.slots.push_back(slot);
  const LintReport report = lint_calendar(image);
  const Finding& f = find_rule(report, Rule::kWcttCoverage);
  EXPECT_EQ(f.severity, Severity::kError);
}

TEST(Lint, C003FiresWhenDeclaredWindowOverReserves) {
  // The loader refuses any stamp that differs from the derived window, so
  // an over-reserving stamp is an error too.
  CalendarImage image = base_image();
  ImageSlot slot = mk_slot(1'000, 8, 1, 10, 1);
  slot.declared_window_ns = 600'000;
  image.slots.push_back(slot);
  const LintReport report = lint_calendar(image);
  const Finding& f = find_rule(report, Rule::kWcttCoverage);
  EXPECT_EQ(f.severity, Severity::kError);
  EXPECT_NE(f.message.find("over-reserves"), std::string::npos) << f.message;
}

TEST(Lint, C003PassesWhenDeclaredWindowMatches) {
  // image_of() stamps the derived window: must lint clean.
  Calendar::Config cfg;
  cfg.round_length = 10_ms;
  cfg.gap = 40_us;
  Calendar calendar{cfg};
  SlotSpec spec;
  spec.lst_offset = 1_ms;
  spec.dlc = 8;
  spec.fault.omission_degree = 1;
  spec.etag = 10;
  spec.publisher = 1;
  ASSERT_TRUE(calendar.reserve(spec).has_value());
  const LintReport report = lint_calendar(image_of(calendar));
  EXPECT_TRUE(report.findings.empty()) << report_to_text(report);
}

// --- RTEC-C004 period-phase ---------------------------------------------

TEST(Lint, C004FiresOnPhaseOutsideCycle) {
  CalendarImage image = base_image();
  ImageSlot slot = mk_slot(1'000, 8, 0, 10, 1);
  slot.spec.period_rounds = 2;
  slot.spec.phase_round = 2;
  image.slots.push_back(slot);
  EXPECT_TRUE(has_rule(lint_calendar(image), Rule::kPeriodPhase));
}

TEST(Lint, C004FiresOnExcessivePeriodRounds) {
  CalendarImage image = base_image();
  ImageSlot slot = mk_slot(1'000, 8, 0, 10, 1);
  slot.spec.period_rounds = kMaxPeriodRounds + 1;
  image.slots.push_back(slot);
  EXPECT_TRUE(has_rule(lint_calendar(image), Rule::kPeriodPhase));
}

TEST(Lint, C004PassesSubRateSlot) {
  CalendarImage image = base_image();
  ImageSlot slot = mk_slot(1'000, 8, 0, 10, 1);
  slot.spec.period_rounds = 4;
  slot.spec.phase_round = 3;
  image.slots.push_back(slot);
  EXPECT_FALSE(has_rule(lint_calendar(image), Rule::kPeriodPhase));
}

// --- RTEC-C005 reserved-etag --------------------------------------------

TEST(Lint, C005FiresOnInfrastructureEtag) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 0, kBindingRequestEtag, 1));
  const LintReport report = lint_calendar(image);
  const Finding& f = find_rule(report, Rule::kReservedEtag);
  EXPECT_EQ(f.severity, Severity::kWarning);
}

TEST(Lint, C005FiresOnSecondSyncSlot) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 1, kSyncRefEtag, 1));
  image.slots.push_back(mk_slot(3'000, 8, 1, kSyncRefEtag, 2));
  EXPECT_EQ(count_rule(lint_calendar(image), Rule::kReservedEtag), 1);
}

TEST(Lint, C005PassesSingleSyncSlot) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 1, kSyncRefEtag, 1));
  EXPECT_FALSE(has_rule(lint_calendar(image), Rule::kReservedEtag));
}

// --- RTEC-C006 over-subscription ----------------------------------------

TEST(Lint, C006FiresWhenWindowsExceedRound) {
  CalendarImage image = base_image();
  image.config.round_length = 1_ms;
  // Two k=1 windows of 497 us + 40 us gap each > 1 ms round.
  image.slots.push_back(mk_slot(200, 8, 1, 10, 1));
  image.slots.push_back(mk_slot(700, 8, 1, 11, 2));
  const LintReport report = lint_calendar(image);
  const Finding& f = find_rule(report, Rule::kOverSubscription);
  EXPECT_EQ(f.severity, Severity::kError);
}

TEST(Lint, C006WarnsNearFullReservation) {
  CalendarImage image = base_image();
  // 18 placeable k=1 slots: 18 * 537 us = 9.67 ms of a 10 ms round.
  for (int i = 0; i < 18; ++i)
    image.slots.push_back(
        mk_slot(160 + i * 537, 8, 1, static_cast<Etag>(10 + i),
                static_cast<NodeId>(1 + i)));
  const LintReport report = lint_calendar(image);
  const Finding& f = find_rule(report, Rule::kOverSubscription);
  EXPECT_EQ(f.severity, Severity::kWarning);
  EXPECT_FALSE(report.has_errors()) << report_to_text(report);
}

TEST(Lint, C006PassesModerateReservation) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 1, 10, 1));
  EXPECT_FALSE(has_rule(lint_calendar(image), Rule::kOverSubscription));
}

// --- RTEC-C007 gap-below-precision --------------------------------------

TEST(Lint, C007FiresWhenGapBelowMeasuredPrecision) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 0, 10, 1));
  LintOptions options;
  options.clock_precision = 50_us;  // worse than the 40 us gap
  const LintReport report = lint_calendar(image, options);
  const Finding& f = find_rule(report, Rule::kGapBelowPrecision);
  EXPECT_EQ(f.severity, Severity::kError);
}

TEST(Lint, C007WarnsOnZeroGapWithoutPrecision) {
  CalendarImage image = base_image();
  image.config.gap = Duration::zero();
  image.slots.push_back(mk_slot(1'000, 8, 0, 10, 1));
  const LintReport report = lint_calendar(image);
  const Finding& f = find_rule(report, Rule::kGapBelowPrecision);
  EXPECT_EQ(f.severity, Severity::kWarning);
}

TEST(Lint, C007PassesWhenGapDominatesPrecision) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 0, 10, 1));
  LintOptions options;
  options.clock_precision = 33_us;
  EXPECT_FALSE(
      has_rule(lint_calendar(image, options), Rule::kGapBelowPrecision));
}

// --- RTEC-C008 admission-disagreement -----------------------------------

TEST(Lint, C008FiresWhenAdmissionOracleDisagrees) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 1, 10, 1));
  LintOptions options;
  // Inject a faulty admission verdict: the linter accepts this slot, the
  // (injected) admission test rejects it — the differential rule must
  // report the discrepancy instead of trusting either side.
  options.admission_override = [](std::size_t) { return false; };
  const LintReport report = lint_calendar(image, options);
  const Finding& f = find_rule(report, Rule::kAdmissionDisagreement);
  EXPECT_EQ(f.severity, Severity::kError);
  EXPECT_EQ(f.slot, 0);
}

TEST(Lint, C008SilentWhenBothImplementationsAgree) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 1, 10, 1));
  image.slots.push_back(mk_slot(50, 8, 0, 11, 2));     // outside round
  image.slots.push_back(mk_slot(1'100, 8, 0, 12, 3));  // overlaps slot 0
  const LintReport report = lint_calendar(image);
  EXPECT_TRUE(report.has_errors());
  EXPECT_FALSE(has_rule(report, Rule::kAdmissionDisagreement))
      << report_to_text(report);
}

// --- RTEC-C009 bad-config -----------------------------------------------

TEST(Lint, C009FiresOnUnusableConfig) {
  CalendarImage image = base_image();
  image.config.bus.bitrate_bps = 2'000'000'000;  // sub-ns bit time
  EXPECT_TRUE(has_rule(lint_calendar(image), Rule::kBadConfig));

  CalendarImage zero_round = base_image();
  zero_round.config.round_length = Duration::zero();
  EXPECT_TRUE(has_rule(lint_calendar(zero_round), Rule::kBadConfig));

  CalendarImage negative_gap = base_image();
  negative_gap.config.gap = Duration::nanoseconds(-1);
  EXPECT_TRUE(has_rule(lint_calendar(negative_gap), Rule::kBadConfig));
}

TEST(Lint, C009PassesSaneConfig) {
  EXPECT_FALSE(has_rule(lint_calendar(base_image()), Rule::kBadConfig));
}

// --- RTEC-C010 bad-slot-field -------------------------------------------

TEST(Lint, C010FiresOnFieldsOutsideTheModel) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 9, 0, 10, 1));  // dlc 9
  ImageSlot bad_k = mk_slot(3'000, 8, 0, 11, 2);
  bad_k.spec.fault.omission_degree = kMaxOmissionDegree + 1;
  image.slots.push_back(bad_k);
  ImageSlot bad_etag = mk_slot(5'000, 8, 0, 12, 3);
  bad_etag.spec.etag = kMaxEtag + 1;
  image.slots.push_back(bad_etag);
  ImageSlot bad_node = mk_slot(7'000, 8, 0, 13, 4);
  bad_node.spec.publisher = kMaxNodeId + 1;
  image.slots.push_back(bad_node);
  const LintReport report = lint_calendar(image);
  EXPECT_EQ(count_rule(report, Rule::kBadSlotField), 4);
  EXPECT_FALSE(has_rule(report, Rule::kAdmissionDisagreement))
      << report_to_text(report);
}

TEST(Lint, C010PassesFieldsInsideTheModel) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, kMaxOmissionDegree / 8, 10, 1));
  EXPECT_FALSE(has_rule(lint_calendar(image), Rule::kBadSlotField));
}

// --- RTEC-P001 parse-error ----------------------------------------------

TEST(Lint, P001WrapsParseFailures) {
  const auto image = parse_calendar_image("calendar v7\n");
  ASSERT_FALSE(image.has_value());
  const LintReport report = parse_failure_report(image.error());
  const Finding& f = find_rule(report, Rule::kParseError);
  EXPECT_EQ(f.severity, Severity::kError);
  EXPECT_EQ(f.line, 1);
  EXPECT_TRUE(report.has_errors());
}

// --- scenario rules ------------------------------------------------------

ScenarioSpec base_spec() {
  ScenarioSpec spec;
  spec.nodes = {{1, 0}, {2, 0}};
  return spec;
}

TEST(Lint, S101FiresOnUndeclaredPublisher) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 0, 10, 7));
  const LintReport report = lint_scenario(image, base_spec());
  const Finding& f = find_rule(report, Rule::kUnknownPublisher);
  EXPECT_EQ(f.slot, 0);
}

TEST(Lint, S101SkippedWithoutNodeInventory) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 0, 10, 7));
  ScenarioSpec spec;  // no nodes declared
  EXPECT_FALSE(
      has_rule(lint_scenario(image, spec), Rule::kUnknownPublisher));
}

TEST(Lint, S101PassesDeclaredPublisher) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 0, 10, 1));
  EXPECT_FALSE(has_rule(lint_scenario(image, base_spec()),
                        Rule::kUnknownPublisher));
}

TEST(Lint, S102FiresOnDuplicateNode) {
  ScenarioSpec spec = base_spec();
  spec.nodes.push_back({1, 5});
  EXPECT_TRUE(
      has_rule(lint_scenario(base_image(), spec), Rule::kDuplicateNode));
}

TEST(Lint, S102PassesUniqueNodes) {
  EXPECT_FALSE(has_rule(lint_scenario(base_image(), base_spec()),
                        Rule::kDuplicateNode));
}

TEST(Lint, S103FiresWhenSrtBandTouchesHrtPriority) {
  ScenarioSpec spec = base_spec();
  DeadlinePriorityMap::Config band;
  band.p_min = kHrtPriority;  // SRT could win against pending HRT
  band.p_max = 250;
  spec.srt_band = band;
  const LintReport report = lint_scenario(base_image(), spec);
  EXPECT_TRUE(has_rule(report, Rule::kPriorityInversion));
}

TEST(Lint, S103FiresWhenSrtBandReachesNrtPartition) {
  ScenarioSpec spec = base_spec();
  DeadlinePriorityMap::Config band;
  band.p_min = 1;
  band.p_max = kNrtPriorityMin;
  spec.srt_band = band;
  EXPECT_TRUE(
      has_rule(lint_scenario(base_image(), spec), Rule::kPriorityInversion));
}

TEST(Lint, S103FiresOnNrtStreamOutsideNrtPartition) {
  ScenarioSpec spec = base_spec();
  StreamSpec stream;
  stream.traffic = TrafficClass::kNrt;
  stream.node = 1;
  stream.etag = 30;
  stream.priority = 100;  // inside the SRT partition
  spec.streams.push_back(stream);
  EXPECT_TRUE(
      has_rule(lint_scenario(base_image(), spec), Rule::kPriorityInversion));
}

TEST(Lint, S103FiresOnNrtStreamAtHrtPriority) {
  ScenarioSpec spec = base_spec();
  StreamSpec stream;
  stream.traffic = TrafficClass::kNrt;
  stream.node = 1;
  stream.etag = 30;
  stream.priority = static_cast<int>(kHrtPriority);
  spec.streams.push_back(stream);
  EXPECT_TRUE(
      has_rule(lint_scenario(base_image(), spec), Rule::kPriorityInversion));
}

TEST(Lint, S103PassesPaperPartition) {
  ScenarioSpec spec = base_spec();
  DeadlinePriorityMap::Config band;
  band.p_min = kSrtPriorityMin;
  band.p_max = kSrtPriorityMax;
  spec.srt_band = band;
  StreamSpec stream;
  stream.traffic = TrafficClass::kNrt;
  stream.node = 1;
  stream.etag = 30;
  stream.priority = static_cast<int>(kNrtPriorityMin);
  spec.streams.push_back(stream);
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 0, 10, 1));
  EXPECT_FALSE(
      has_rule(lint_scenario(image, spec), Rule::kPriorityInversion));
}

TEST(Lint, S104FiresWhenStreamSharesHrtEtag) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 0, 10, 1));
  ScenarioSpec spec = base_spec();
  StreamSpec stream;
  stream.traffic = TrafficClass::kSrt;
  stream.node = 2;
  stream.etag = 10;  // same subject as the HRT reservation
  stream.period = 5_ms;
  stream.deadline = 5_ms;
  spec.streams.push_back(stream);
  const LintReport report = lint_scenario(image, spec);
  const Finding& f = find_rule(report, Rule::kEtagClassMixing);
  EXPECT_EQ(f.severity, Severity::kError);
}

TEST(Lint, S104WarnsOnInfrastructureEtagStream) {
  ScenarioSpec spec = base_spec();
  StreamSpec stream;
  stream.traffic = TrafficClass::kNrt;
  stream.node = 1;
  stream.etag = kSyncFollowEtag;
  stream.priority = static_cast<int>(kNrtPriorityMin);
  spec.streams.push_back(stream);
  const LintReport report = lint_scenario(base_image(), spec);
  const Finding& f = find_rule(report, Rule::kEtagClassMixing);
  EXPECT_EQ(f.severity, Severity::kWarning);
}

TEST(Lint, S104PassesDisjointEtags) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 0, 10, 1));
  ScenarioSpec spec = base_spec();
  StreamSpec stream;
  stream.traffic = TrafficClass::kSrt;
  stream.node = 2;
  stream.etag = 20;
  stream.period = 5_ms;
  stream.deadline = 5_ms;
  spec.streams.push_back(stream);
  EXPECT_FALSE(has_rule(lint_scenario(image, spec), Rule::kEtagClassMixing));
}

TEST(Lint, S105FiresWhenDeclaredSyncSlotMissing) {
  ScenarioSpec spec = base_spec();
  spec.sync_master = 1;
  const LintReport report = lint_scenario(base_image(), spec);
  const Finding& f = find_rule(report, Rule::kSyncSlotMismatch);
  EXPECT_EQ(f.severity, Severity::kError);
}

TEST(Lint, S105FiresOnWrongSyncPublisher) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 1, kSyncRefEtag, 2));
  ScenarioSpec spec = base_spec();
  spec.sync_master = 1;
  EXPECT_TRUE(
      has_rule(lint_scenario(image, spec), Rule::kSyncSlotMismatch));
}

TEST(Lint, S105WarnsOnUndeclaredSyncSlot) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 1, kSyncRefEtag, 1));
  const LintReport report = lint_scenario(image, base_spec());
  const Finding& f = find_rule(report, Rule::kSyncSlotMismatch);
  EXPECT_EQ(f.severity, Severity::kWarning);
}

TEST(Lint, S105PassesMatchingSyncDeclaration) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 1, kSyncRefEtag, 1));
  ScenarioSpec spec = base_spec();
  spec.sync_master = 1;
  EXPECT_FALSE(
      has_rule(lint_scenario(image, spec), Rule::kSyncSlotMismatch));
}

TEST(Lint, S106FiresOnInfeasibleSrtSet) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 1, 10, 1));
  ScenarioSpec spec = base_spec();
  StreamSpec stream;
  stream.traffic = TrafficClass::kSrt;
  stream.node = 2;
  stream.etag = 20;
  stream.dlc = 8;
  stream.period = 1_ms;
  stream.deadline = 200_us;  // below one worst-case frame + blocking
  spec.streams.push_back(stream);
  const LintReport report = lint_scenario(image, spec);
  const Finding& f = find_rule(report, Rule::kSrtInfeasible);
  EXPECT_EQ(f.severity, Severity::kWarning);
}

TEST(Lint, S106PassesFeasibleSrtSet) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 1, 10, 1));
  ScenarioSpec spec = base_spec();
  StreamSpec stream;
  stream.traffic = TrafficClass::kSrt;
  stream.node = 2;
  stream.etag = 20;
  stream.dlc = 8;
  stream.period = 10_ms;
  stream.deadline = 10_ms;
  spec.streams.push_back(stream);
  EXPECT_FALSE(has_rule(lint_scenario(image, spec), Rule::kSrtInfeasible));
}

// --- report rendering ----------------------------------------------------

TEST(LintReport, GoldenJsonForRejectedImage) {
  const char* text =
      "calendar v1\n"
      "round_ns 10000000\n"
      "gap_ns 40000\n"
      "bitrate 1000000\n"
      "slot lst_ns=1000000 dlc=8 k=1 etag=2 node=1\n"
      "slot lst_ns=1100000 dlc=8 k=0 etag=11 node=2\n";
  const auto image = parse_calendar_image(text);
  ASSERT_TRUE(image.has_value());
  const std::string json = report_to_json(lint_calendar(*image));
  const char* expected =
      "{\n"
      "  \"tool\": \"rtec-lint\",\n"
      "  \"format\": 1,\n"
      "  \"counts\": {\"errors\": 1, \"warnings\": 1},\n"
      "  \"verdict\": \"reject\",\n"
      "  \"findings\": [\n"
      "    {\n"
      "      \"rule\": \"RTEC-C002\",\n"
      "      \"name\": \"window-overlap\",\n"
      "      \"severity\": \"error\",\n"
      "      \"slot\": 1,\n"
      "      \"other_slot\": 0,\n"
      "      \"line\": 6,\n"
      "      \"message\": \"windows closer than ΔG_min = 40000 ns "
      "under worst-case clock disagreement\"\n"
      "    },\n"
      "    {\n"
      "      \"rule\": \"RTEC-C005\",\n"
      "      \"name\": \"reserved-etag\",\n"
      "      \"severity\": \"warning\",\n"
      "      \"slot\": 0,\n"
      "      \"line\": 5,\n"
      "      \"message\": \"etag 2 is reserved for infrastructure (sync "
      "follow-up / binding protocol)\"\n"
      "    }\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(json, expected);
}

TEST(LintReport, GoldenJsonForCleanImage) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(1'000, 8, 1, 10, 1));
  const std::string json = report_to_json(lint_calendar(image));
  const char* expected =
      "{\n"
      "  \"tool\": \"rtec-lint\",\n"
      "  \"format\": 1,\n"
      "  \"counts\": {\"errors\": 0, \"warnings\": 0},\n"
      "  \"verdict\": \"accept\",\n"
      "  \"findings\": []\n"
      "}\n";
  EXPECT_EQ(json, expected);
}

TEST(LintReport, TextRenderingNamesRuleAndVerdict) {
  CalendarImage image = base_image();
  image.slots.push_back(mk_slot(50, 8, 0, 10, 1));
  const std::string text = report_to_text(lint_calendar(image));
  EXPECT_NE(text.find("RTEC-C001"), std::string::npos);
  EXPECT_NE(text.find("window-outside-round"), std::string::npos);
  EXPECT_NE(text.find("REJECT"), std::string::npos);
}

// --- differential property ----------------------------------------------

TEST(Lint, FuzzedImagesNeverDisagreeWithAdmission) {
  // The linter re-derives every admission invariant independently; on any
  // input the two implementations must reach the same per-slot verdict
  // (RTEC-C008 watches exactly this in production, so the fuzz also
  // proves the rule stays silent on random data).
  Rng rng{4242};
  for (int trial = 0; trial < 200; ++trial) {
    CalendarImage image;
    image.config.round_length =
        Duration::microseconds(rng.uniform_int(500, 20'000));
    image.config.gap = Duration::microseconds(rng.uniform_int(0, 100));
    image.config.bus.bitrate_bps = rng.uniform_int(1, 4) * 250'000;
    const int slots = static_cast<int>(rng.uniform_int(0, 8));
    for (int i = 0; i < slots; ++i) {
      ImageSlot slot;
      slot.spec.lst_offset =
          Duration::microseconds(rng.uniform_int(-1'000, 25'000));
      slot.spec.dlc = static_cast<int>(rng.uniform_int(-1, 10));
      slot.spec.fault.omission_degree =
          static_cast<int>(rng.uniform_int(-1, 4));
      slot.spec.etag = static_cast<Etag>(rng.uniform_int(0, kMaxEtag));
      slot.spec.publisher =
          static_cast<NodeId>(rng.uniform_int(0, kMaxNodeId));
      slot.spec.period_rounds = static_cast<int>(rng.uniform_int(0, 3));
      slot.spec.phase_round = static_cast<int>(rng.uniform_int(0, 3));
      image.slots.push_back(slot);
    }
    const LintReport report = lint_calendar(image);
    EXPECT_FALSE(has_rule(report, Rule::kAdmissionDisagreement))
        << "trial " << trial << ":\n"
        << image_to_text(image) << report_to_text(report);
  }
}

// --- scenario description parser -----------------------------------------

TEST(ScenarioSpecParse, ParsesFullDescription) {
  const char* text =
      "# deployment facts\n"
      "scenario v1\n"
      "precision_ns 33000\n"
      "sync master=0\n"
      "srt_band p_min=1 p_max=250 slot_us=160\n"
      "node id=0\n"
      "node id=1\n"
      "stream class=srt node=1 etag=20 dlc=4 period_us=5000 deadline_us=4000\n"
      "stream class=nrt node=1 etag=30 priority=251\n";
  const auto spec = parse_scenario_spec(text);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->nodes.size(), 2u);
  ASSERT_TRUE(spec->sync_master.has_value());
  EXPECT_EQ(*spec->sync_master, 0);
  ASSERT_TRUE(spec->clock_precision.has_value());
  EXPECT_EQ(spec->clock_precision->ns(), 33'000);
  ASSERT_TRUE(spec->srt_band.has_value());
  EXPECT_EQ(spec->srt_band->p_min, 1);
  EXPECT_EQ(spec->srt_band->p_max, 250);
  ASSERT_EQ(spec->streams.size(), 2u);
  EXPECT_EQ(spec->streams[0].traffic, TrafficClass::kSrt);
  EXPECT_EQ(spec->streams[0].deadline.ns(), 4'000'000);
  EXPECT_EQ(spec->streams[1].traffic, TrafficClass::kNrt);
  EXPECT_EQ(spec->streams[1].priority, 251);
}

TEST(ScenarioSpecParse, RejectsMalformedDescriptions) {
  const struct {
    const char* text;
    const char* why;
  } cases[] = {
      {"", "empty input"},
      {"node id=1\n", "missing header"},
      {"scenario v2\n", "bad version"},
      {"scenario v1\nscenario v1\n", "duplicate header"},
      {"scenario v1\nbogus x=1\n", "unknown directive"},
      {"scenario v1\nsync master=1\nsync master=2\n", "duplicate sync"},
      {"scenario v1\nprecision_ns -5\n", "negative precision"},
      {"scenario v1\nnode id=200\n", "node id out of range"},
      {"scenario v1\nnode id=1 extra=2\n", "unknown node key"},
      {"scenario v1\nstream class=bulk node=1 etag=5\n", "bad class"},
      {"scenario v1\nstream class=srt node=1 etag=5 period_us=100 priority=3\n",
       "priority on srt stream"},
      {"scenario v1\nstream class=nrt node=1 etag=5 priority=251 period_us=9\n",
       "period on nrt stream"},
      {"scenario v1\nstream class=srt node=1 etag=5\n", "missing period"},
      {"scenario v1\nsrt_band p_min=1 p_max=250 slot_us=160 p_min=2\n",
       "duplicate key"},
  };
  for (const auto& c : cases) {
    const auto spec = parse_scenario_spec(c.text);
    EXPECT_FALSE(spec.has_value()) << c.why;
    if (!spec.has_value()) {
      EXPECT_FALSE(spec.error().message.empty());
    }
  }
}

}  // namespace
}  // namespace rtec::analysis
