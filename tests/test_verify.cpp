#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/topology.hpp"
#include "analysis/verify.hpp"
#include "sched/wctt.hpp"

// Topology parser + RTEC-T rule engine tests: one positive (rule fires)
// and one negative (near-identical clean input stays silent) case per
// rule, the composed end-to-end bound arithmetic, and the golden JSON
// rendering of topology-tagged findings (the rtec-lint document must stay
// byte-identical, the rtec-verify document adds segment/link/route keys).

namespace rtec::analysis {
namespace {

using namespace rtec::literals;

TopologySpec parse_ok(const std::string& text) {
  const auto spec = parse_topology_spec(text);
  EXPECT_TRUE(spec.has_value()) << (spec ? "" : spec.error().message);
  return spec ? *spec : TopologySpec{};
}

std::string parse_error(const std::string& text) {
  const auto spec = parse_topology_spec(text);
  EXPECT_FALSE(spec.has_value());
  return spec ? "" : spec.error().message;
}

/// Rules only, no per-segment calendar lint (those tests target one rule).
LintReport verify_text(const std::string& text, VerifyOptions options = {}) {
  options.per_segment_lint = false;
  TopologyInput input;
  input.spec = parse_ok(text);
  return verify_topology(input, options);
}

int count_rule(const LintReport& r, Rule rule) {
  return static_cast<int>(
      std::count_if(r.findings.begin(), r.findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

bool has_rule(const LintReport& r, Rule rule) {
  return count_rule(r, rule) > 0;
}

const Finding* find_rule(const LintReport& r, Rule rule) {
  for (const Finding& f : r.findings)
    if (f.rule == rule) return &f;
  return nullptr;
}

/// Two segments, one well-behaved gateway link, one bridged route: the
/// clean baseline every rule test perturbs.
constexpr const char* kCleanPair = R"(topology v1
segment id=0 precision_ns=33000
segment id=1 precision_ns=33000
link id=0 a=0 b=1 latency_us=250
bridge link=0 etag=40
route etag=40 from=0 to=1 period_us=7000 hop_deadline_us=10000 e2e_deadline_us=30000
)";

// ---------------------------------------------------------------- parser

TEST(TopologyParse, RoundTripsEveryDirective) {
  const TopologySpec spec = parse_ok(R"(topology v1
# comment survives anywhere
segment id=3 calendar=seg3.cal precision_ns=20000
segment id=5
link id=2 a=3 b=5 latency_us=300
bridge link=2 etag=44   # trailing comment
route etag=44 from=3 to=5 period_us=5000 hop_deadline_us=8000 e2e_deadline_us=20000 dlc=4
stream segment=5 class=srt node=9 etag=21 dlc=2 period_us=4000 deadline_us=3000
stream segment=3 class=nrt node=8 etag=22 priority=251
)");
  ASSERT_EQ(spec.segments.size(), 2u);
  EXPECT_EQ(spec.segments[0].id, 3);
  EXPECT_EQ(spec.segments[0].calendar, "seg3.cal");
  ASSERT_TRUE(spec.segments[0].precision.has_value());
  EXPECT_EQ(spec.segments[0].precision->ns(), 20'000);
  EXPECT_FALSE(spec.segments[1].precision.has_value());
  ASSERT_EQ(spec.links.size(), 1u);
  EXPECT_EQ(spec.links[0].latency, 300_us);
  ASSERT_EQ(spec.bridges.size(), 1u);
  EXPECT_EQ(spec.bridges[0].etag, 44);
  ASSERT_EQ(spec.routes.size(), 1u);
  EXPECT_EQ(spec.routes[0].dlc, 4);
  EXPECT_EQ(spec.routes[0].hop_deadline, 8_ms);
  ASSERT_EQ(spec.streams.size(), 2u);
  EXPECT_EQ(spec.streams[0].segment, 5);
  EXPECT_EQ(spec.streams[0].stream.deadline, 3_ms);
  EXPECT_EQ(spec.streams[1].stream.priority, 251);
  EXPECT_NE(spec.segment_by_id(5), nullptr);
  EXPECT_EQ(spec.segment_by_id(4), nullptr);
  EXPECT_NE(spec.link_by_id(2), nullptr);
}

TEST(TopologyParse, RejectsMalformedInput) {
  EXPECT_NE(parse_error("").find("empty"), std::string::npos);
  EXPECT_NE(parse_error("topology v2\n").find("version"), std::string::npos);
  EXPECT_NE(parse_error("segment id=0\n").find("header"), std::string::npos);
  EXPECT_NE(parse_error("topology v1\ntopology v1\n").find("duplicate"),
            std::string::npos);
  EXPECT_NE(parse_error("topology v1\nwarp id=0\n").find("unknown directive"),
            std::string::npos);
  // Unknown key, duplicate key, missing key, out-of-range value.
  EXPECT_FALSE(
      parse_error("topology v1\nsegment id=0 bogus=1\n").empty());
  EXPECT_FALSE(
      parse_error("topology v1\nlink id=0 id=1 a=0 b=1 latency_us=5\n")
          .empty());
  EXPECT_FALSE(parse_error("topology v1\nlink id=0 a=0 b=1\n").empty());
  EXPECT_FALSE(
      parse_error("topology v1\nbridge link=0 etag=99999\n").empty());
  EXPECT_FALSE(parse_error("topology v1\nroute etag=4 from=0 to=1 "
                           "period_us=0 hop_deadline_us=1 e2e_deadline_us=1\n")
                   .empty());
  // Stream field rules are shared with the scenario format.
  EXPECT_FALSE(parse_error("topology v1\nstream segment=0 class=srt node=1 "
                           "etag=9 priority=3 period_us=100\n")
                   .empty());
  EXPECT_FALSE(parse_error("topology v1\nstream segment=0 class=hrt node=1 "
                           "etag=9 period_us=100\n")
                   .empty());
}

// ------------------------------------------------------- T001 structure

TEST(VerifyTopology, CleanPairHasNoFindings) {
  const LintReport r = verify_text(kCleanPair);
  EXPECT_TRUE(r.findings.empty());
}

TEST(VerifyTopology, T001FlagsEveryStructuralDefect) {
  const LintReport r = verify_text(R"(topology v1
segment id=0
segment id=0
segment id=1
link id=0 a=0 b=1 latency_us=250
link id=0 a=0 b=1 latency_us=250
link id=1 a=1 b=1 latency_us=250
link id=2 a=1 b=7 latency_us=250
bridge link=9 etag=40
bridge link=0 etag=41
bridge link=0 etag=41
route etag=41 from=0 to=0 period_us=1000 hop_deadline_us=1000 e2e_deadline_us=1000
route etag=41 from=0 to=8 period_us=1000 hop_deadline_us=1000 e2e_deadline_us=9000
stream segment=6 class=srt node=1 etag=20 period_us=1000
)");
  // duplicate segment, duplicate link, self-loop, dangling link endpoint,
  // dangling bridge, duplicate bridge, self-route, dangling route
  // endpoint, dangling stream segment.
  EXPECT_GE(count_rule(r, Rule::kTopologyConfig), 9);
}

TEST(VerifyTopology, T001EmptyTopologyIsAnError) {
  const LintReport r = verify_text("topology v1\n");
  EXPECT_TRUE(has_rule(r, Rule::kTopologyConfig));
}

TEST(VerifyTopology, T001WarnsOnCalendarForUndeclaredSegment) {
  TopologyInput input;
  input.spec = parse_ok(kCleanPair);
  input.calendars.emplace(7, CalendarImage{});
  VerifyOptions options;
  options.per_segment_lint = false;
  const LintReport r = verify_topology(input, options);
  const Finding* f = find_rule(r, Rule::kTopologyConfig);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_EQ(f->segment, 7);
}

// ----------------------------------------------------------- T002 cycles

TEST(VerifyTopology, T002FlagsForwardingLoop) {
  // Triangle 0-1-2 all bridging etag 40: one closing edge.
  const LintReport r = verify_text(R"(topology v1
segment id=0
segment id=1
segment id=2
link id=0 a=0 b=1 latency_us=250
link id=1 a=1 b=2 latency_us=250
link id=2 a=2 b=0 latency_us=250
bridge link=0 etag=40
bridge link=1 etag=40
bridge link=2 etag=40
)");
  EXPECT_EQ(count_rule(r, Rule::kRoutingCycle), 1);
  EXPECT_EQ(find_rule(r, Rule::kRoutingCycle)->severity, Severity::kError);
}

TEST(VerifyTopology, T002FlagsParallelLinksOnOneEtag) {
  const LintReport r = verify_text(R"(topology v1
segment id=0
segment id=1
link id=0 a=0 b=1 latency_us=250
link id=1 a=0 b=1 latency_us=250
bridge link=0 etag=40
bridge link=1 etag=40
)");
  EXPECT_TRUE(has_rule(r, Rule::kRoutingCycle));
}

TEST(VerifyTopology, T002SilentOnTreeTopology) {
  // Same etag on two links of a chain: a tree, not a loop. The triangle
  // with *distinct* etags per link is loop-free too.
  const LintReport chain = verify_text(R"(topology v1
segment id=0
segment id=1
segment id=2
link id=0 a=0 b=1 latency_us=250
link id=1 a=1 b=2 latency_us=250
bridge link=0 etag=40
bridge link=1 etag=40
)");
  EXPECT_FALSE(has_rule(chain, Rule::kRoutingCycle));
  const LintReport triangle = verify_text(R"(topology v1
segment id=0
segment id=1
segment id=2
link id=0 a=0 b=1 latency_us=250
link id=1 a=1 b=2 latency_us=250
link id=2 a=2 b=0 latency_us=250
bridge link=0 etag=40
bridge link=1 etag=41
bridge link=2 etag=42
)");
  EXPECT_FALSE(has_rule(triangle, Rule::kRoutingCycle));
}

// ----------------------------------------------- T003 + bounds + T009

TEST(VerifyTopology, T003FlagsUnreachableSubscriber) {
  const LintReport r = verify_text(R"(topology v1
segment id=0
segment id=1
segment id=2
link id=0 a=0 b=1 latency_us=250
bridge link=0 etag=40
route etag=40 from=0 to=2 period_us=7000 hop_deadline_us=1000 e2e_deadline_us=30000
route etag=41 from=0 to=1 period_us=7000 hop_deadline_us=1000 e2e_deadline_us=30000
)");
  // Route 0: etag 40 only bridges 0-1, segment 2 unreachable. Route 1:
  // etag 41 not bridged at all.
  EXPECT_EQ(count_rule(r, Rule::kUnreachableSubscriber), 2);
  const LintReport clean = verify_text(kCleanPair);
  EXPECT_FALSE(has_rule(clean, Rule::kUnreachableSubscriber));
}

TEST(RouteBounds, ComposesHopDeadlinesPrecisionAndLatency) {
  TopologyInput input;
  input.spec = parse_ok(R"(topology v1
segment id=0 precision_ns=33000
segment id=1
segment id=2 precision_ns=20000
link id=0 a=0 b=1 latency_us=250
link id=1 a=1 b=2 latency_us=400
bridge link=0 etag=40
bridge link=1 etag=40
route etag=40 from=0 to=2 period_us=7000 hop_deadline_us=10000 e2e_deadline_us=40000
route etag=41 from=0 to=2 period_us=7000 hop_deadline_us=10000 e2e_deadline_us=40000
)");
  const auto bounds = route_bounds(input);
  ASSERT_EQ(bounds.size(), 2u);
  ASSERT_TRUE(bounds[0].computable);
  // 3 hops of (10 ms + Π) with Π = 33 µs, 0, 20 µs; links 250 + 400 µs.
  EXPECT_EQ(bounds[0].bound.ns(),
            3 * 10'000'000 + 33'000 + 20'000 + 250'000 + 400'000);
  EXPECT_EQ(bounds[0].segment_ids, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(bounds[0].link_ids, (std::vector<int>{0, 1}));
  EXPECT_FALSE(bounds[1].computable);  // etag 41 never bridged
}

TEST(VerifyTopology, T009FlagsBoundAboveDeadline) {
  std::string text{kCleanPair};
  const std::string from = "e2e_deadline_us=30000";
  text.replace(text.find(from), from.size(), "e2e_deadline_us=10000");
  // Bound = 2*(10 ms + 33 µs) + 250 µs ≈ 20.3 ms > 10 ms.
  const LintReport r = verify_text(text);
  const Finding* f = find_rule(r, Rule::kE2eDeadline);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->route, 0);
  EXPECT_FALSE(has_rule(verify_text(kCleanPair), Rule::kE2eDeadline));
}

TEST(VerifyTopology, T009SaturatesAnOverflowingBound) {
  // tools/fixtures/bad_overflow.topo: the parser admits a precision of
  // INT64_MAX ns. The composed bound saturates at Duration::max() and
  // T009 rejects the route; a wrapping sum would turn negative and pass.
  std::string text{kCleanPair};
  const std::string from = "segment id=0 precision_ns=33000";
  text.replace(text.find(from), from.size(),
               "segment id=0 precision_ns=9223372036854775807");
  TopologyInput input;
  input.spec = parse_ok(text);
  const auto bounds = route_bounds(input);
  ASSERT_EQ(bounds.size(), 1u);
  ASSERT_TRUE(bounds[0].computable);
  EXPECT_EQ(bounds[0].bound, Duration::max());
  const LintReport r = verify_text(text);
  const Finding* f = find_rule(r, Rule::kE2eDeadline);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->route, 0);
}

// ------------------------------------------------------------ T004 clash

TEST(VerifyTopology, T004FlagsBridgedEtagCollidingWithLocalStream) {
  std::string text{kCleanPair};
  text += "stream segment=1 class=srt node=3 etag=40 period_us=5000\n";
  const LintReport r = verify_text(text);
  const Finding* f = find_rule(r, Rule::kEtagClash);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->segment, 1);
}

TEST(VerifyTopology, T004FlagsBridgedEtagCollidingWithHrtSlot) {
  TopologyInput input;
  input.spec = parse_ok(kCleanPair);
  CalendarImage image;
  ImageSlot slot;
  slot.spec.lst_offset = 200_us;
  slot.spec.etag = 40;  // the bridged etag
  image.slots.push_back(slot);
  input.calendars.emplace(1, image);
  VerifyOptions options;
  options.per_segment_lint = false;
  const LintReport r = verify_topology(input, options);
  const Finding* f = find_rule(r, Rule::kEtagClash);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->segment, 1);
}

TEST(VerifyTopology, T004WarnsOnBridgedInfrastructureEtag) {
  std::string text{kCleanPair};
  text += "bridge link=0 etag=0\n";  // kSyncRefEtag
  const LintReport r = verify_text(text);
  bool warned = false;
  for (const Finding& f : r.findings)
    if (f.rule == Rule::kEtagClash && f.severity == Severity::kWarning)
      warned = true;
  EXPECT_TRUE(warned);
}

TEST(VerifyTopology, T004SilentOnDisjointEtags) {
  std::string text{kCleanPair};
  text += "stream segment=1 class=srt node=3 etag=41 period_us=5000\n";
  EXPECT_FALSE(has_rule(verify_text(text), Rule::kEtagClash));
}

// -------------------------------------------------------- T005 precision

TEST(VerifyTopology, T005WarnsOnOneSidedPrecision) {
  std::string text{kCleanPair};
  const std::string from = "segment id=1 precision_ns=33000";
  text.replace(text.find(from), from.size(), "segment id=1");
  const LintReport r = verify_text(text);
  const Finding* f = find_rule(r, Rule::kPrecisionMismatch);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_EQ(f->segment, 1);
}

TEST(VerifyTopology, T005FlagsLatencyBelowClockDisagreement) {
  std::string text{kCleanPair};
  const std::string from = "latency_us=250";
  text.replace(text.find(from), from.size(), "latency_us=20");
  const LintReport r = verify_text(text);
  const Finding* f = find_rule(r, Rule::kPrecisionMismatch);
  ASSERT_NE(f, nullptr);  // 20 µs < Π = 33 µs
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_FALSE(has_rule(verify_text(kCleanPair), Rule::kPrecisionMismatch));
}

// -------------------------------------------------------- T006 lookahead

TEST(VerifyTopology, T006FlagsZeroAndTinyForwardLatency) {
  std::string zero{kCleanPair};
  const std::string from = "latency_us=250";
  zero.replace(zero.find(from), from.size(), "latency_us=0");
  const LintReport r = verify_text(zero);
  const Finding* f = find_rule(r, Rule::kSerialLookahead);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);

  std::string tiny{kCleanPair};
  tiny.replace(tiny.find(from), from.size(), "latency_us=5");
  bool warned = false;
  for (const Finding& g : verify_text(tiny).findings)
    if (g.rule == Rule::kSerialLookahead && g.severity == Severity::kWarning) {
      warned = true;
      // The warning is scoped to the link's endpoints, not the whole
      // engine: under per-link horizons only the two adjacent segments
      // degenerate to near-serial epochs.
      EXPECT_NE(g.message.find("per-link lookahead"), std::string::npos)
          << g.message;
      EXPECT_NE(g.message.find("segments 0 and 1"), std::string::npos)
          << g.message;
    }
  EXPECT_TRUE(warned);

  EXPECT_FALSE(has_rule(verify_text(kCleanPair), Rule::kSerialLookahead));
}

// --------------------------------------- T007/T008/T010 bandwidth budget

/// Clean pair with the route period shrunk to saturate a 1 Mbit/s bus
/// (worst-case 8-byte extended frame ≈ 150 µs).
std::string overloaded_pair() {
  std::string text{kCleanPair};
  const std::string from =
      "route etag=40 from=0 to=1 period_us=7000 hop_deadline_us=10000 "
      "e2e_deadline_us=30000";
  const std::string to =
      "route etag=40 from=0 to=1 period_us=150 hop_deadline_us=150 "
      "e2e_deadline_us=30000";
  text.replace(text.find(from), from.size(), to);
  return text;
}

TEST(VerifyTopology, T007FlagsSegmentOverload) {
  const LintReport r = verify_text(overloaded_pair());
  EXPECT_EQ(count_rule(r, Rule::kSegmentOverload), 2);  // both path segments
  EXPECT_EQ(find_rule(r, Rule::kSegmentOverload)->severity, Severity::kError);
  EXPECT_FALSE(has_rule(verify_text(kCleanPair), Rule::kSegmentOverload));
}

TEST(VerifyTopology, T007WarnsAboveThresholdWithoutOverload) {
  std::string text{kCleanPair};
  // ~10 local streams of C/T ≈ 150/2000 on segment 0 → ≈ 75% demand.
  for (int i = 0; i < 10; ++i)
    text += "stream segment=0 class=srt node=" + std::to_string(3 + i) +
            " etag=" + std::to_string(20 + i) + " period_us=2000\n";
  VerifyOptions tight;
  tight.warn_utilization = 0.5;
  const LintReport r = verify_text(text, tight);
  const Finding* f = find_rule(r, Rule::kSegmentOverload);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_EQ(f->segment, 0);
  // Default 95% threshold: the same demand is silent.
  EXPECT_FALSE(has_rule(verify_text(text), Rule::kSegmentOverload));
}

TEST(VerifyTopology, T008FlagsGatewayDirectionOverload) {
  const LintReport r = verify_text(overloaded_pair());
  const Finding* f = find_rule(r, Rule::kGatewayOverload);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->segment, 1);  // destination of the forwarded demand
  EXPECT_EQ(f->link, 0);
  EXPECT_FALSE(has_rule(verify_text(kCleanPair), Rule::kGatewayOverload));
}

TEST(VerifyTopology, T008AccountsHrtReservedShareOfDestination) {
  // Forwarded demand ≈ 31% fits an empty destination but not one whose
  // calendar reserves ~75% of the round for HRT windows.
  std::string text{kCleanPair};
  const std::string from = "period_us=7000 hop_deadline_us=10000";
  text.replace(text.find(from), from.size(),
               "period_us=500 hop_deadline_us=10000");
  TopologyInput input;
  input.spec = parse_ok(text);
  VerifyOptions options;
  options.per_segment_lint = false;
  EXPECT_FALSE(
      has_rule(verify_topology(input, options), Rule::kGatewayOverload));

  CalendarImage image;  // 10 ms round, ~7.5 ms of reserved windows
  for (int i = 0; i < 15; ++i) {
    ImageSlot slot;
    slot.spec.lst_offset = Duration::microseconds(200 + i * 650);
    slot.spec.dlc = 8;
    slot.spec.fault.omission_degree = 1;
    slot.spec.etag = static_cast<Etag>(10 + i);
    image.slots.push_back(slot);
  }
  input.calendars.emplace(1, image);
  const LintReport r = verify_topology(input, options);
  const Finding* f = find_rule(r, Rule::kGatewayOverload);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->segment, 1);
}

TEST(VerifyTopology, T010FlagsInfeasibleComposedSrtSet) {
  const LintReport r = verify_text(overloaded_pair());
  const Finding* f = find_rule(r, Rule::kHopInfeasible);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);
  EXPECT_FALSE(has_rule(verify_text(kCleanPair), Rule::kHopInfeasible));
}

// --------------------------------------------- T012 probabilistic promise

/// Noisy two-segment chain whose route promises a 1e-9 per-instance miss
/// budget it cannot keep under a 500 us hop deadline at p = 0.2.
constexpr const char* kNoisyPair = R"(topology v1
segment id=0 precision_ns=33000 fault_rate=0.2
segment id=1 precision_ns=33000 fault_rate=0.2
link id=0 a=0 b=1 latency_us=250
bridge link=0 etag=40
route etag=40 from=0 to=1 period_us=7000 hop_deadline_us=500 e2e_deadline_us=30000 dlc=8 miss_target=1e-9
)";

TEST(VerifyTopology, T012FlagsInfeasibleMissTarget) {
  VerifyOptions options;
  options.probabilistic = true;
  const LintReport r = verify_text(kNoisyPair, options);
  const Finding* f = find_rule(r, Rule::kProbE2eMiss);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_NE(f->message.find("miss probability"), std::string::npos);
}

TEST(VerifyTopology, T012IsOptIn) {
  // The identical infeasible promise stays silent without --prob.
  EXPECT_FALSE(has_rule(verify_text(kNoisyPair), Rule::kProbE2eMiss));
}

TEST(VerifyTopology, T012SilentOnKeptPromise) {
  // Same chain with a sane hop deadline: miss ≈ composed p^j tails ≪ 1e-3.
  std::string kept{kNoisyPair};
  const std::string::size_type at = kept.find("hop_deadline_us=500");
  ASSERT_NE(at, std::string::npos);
  kept.replace(at, 19, "hop_deadline_us=10000");
  const std::string::size_type tgt = kept.find("miss_target=1e-9");
  ASSERT_NE(tgt, std::string::npos);
  kept.replace(tgt, 16, "miss_target=1e-3");
  VerifyOptions options;
  options.probabilistic = true;
  EXPECT_FALSE(has_rule(verify_text(kept, options), Rule::kProbE2eMiss));
}

TEST(VerifyTopology, T012IgnoresRoutesWithoutTarget) {
  std::string silent{kNoisyPair};
  const std::string::size_type at = silent.find(" miss_target=1e-9");
  ASSERT_NE(at, std::string::npos);
  silent.erase(at, 17);
  VerifyOptions options;
  options.probabilistic = true;
  // Still infeasible, but nothing was promised — the numbers are only
  // reported (route_miss_bounds), never gated.
  EXPECT_FALSE(has_rule(verify_text(silent, options), Rule::kProbE2eMiss));
}

TEST(RouteMissBounds, ReportsEveryResolvableRoute) {
  TopologyInput input;
  input.spec = parse_ok(kNoisyPair);
  const std::vector<RouteMiss> misses = route_miss_bounds(input);
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_TRUE(misses[0].computable);
  EXPECT_EQ(misses[0].hop_miss.size(), 2u);  // both segments visited
  EXPECT_GT(misses[0].e2e_miss, 0.01);       // ~0.06 at this deadline
  EXPECT_LT(misses[0].e2e_miss, 1.0);
  // The composed number never undercuts the union bound of the hop
  // probabilities it reports (tail epsilon only ever adds).
  EXPECT_GE(misses[0].e2e_miss,
            compose_route_miss(misses[0].hop_miss) - 1e-12);
}

TEST(TopologyParse, FaultRateAndMissTargetRoundTrip) {
  const TopologySpec spec = parse_ok(R"(topology v1
segment id=0 fault_rate=0.25
segment id=1
route etag=4 from=0 to=1 period_us=100 hop_deadline_us=100 e2e_deadline_us=100 miss_target=1e-6
route etag=5 from=0 to=1 period_us=100 hop_deadline_us=100 e2e_deadline_us=100
)");
  ASSERT_EQ(spec.segments.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.segments[0].fault_rate, 0.25);
  EXPECT_DOUBLE_EQ(spec.segments[1].fault_rate, 0.0);
  ASSERT_EQ(spec.routes.size(), 2u);
  ASSERT_TRUE(spec.routes[0].miss_target.has_value());
  EXPECT_DOUBLE_EQ(*spec.routes[0].miss_target, 1e-6);
  EXPECT_FALSE(spec.routes[1].miss_target.has_value());
}

TEST(TopologyParse, RejectsMalformedProbabilisticKeys) {
  // Out of range (a certain fault leaves nothing schedulable), not a
  // number, non-finite, and trailing garbage.
  EXPECT_FALSE(
      parse_error("topology v1\nsegment id=0 fault_rate=1.0\n").empty());
  EXPECT_FALSE(
      parse_error("topology v1\nsegment id=0 fault_rate=-0.1\n").empty());
  EXPECT_FALSE(
      parse_error("topology v1\nsegment id=0 fault_rate=abc\n").empty());
  EXPECT_FALSE(
      parse_error("topology v1\nsegment id=0 fault_rate=inf\n").empty());
  EXPECT_FALSE(
      parse_error("topology v1\nsegment id=0 fault_rate=0.5x\n").empty());
  EXPECT_FALSE(parse_error("topology v1\nroute etag=4 from=0 to=1 "
                           "period_us=1 hop_deadline_us=1 e2e_deadline_us=1 "
                           "miss_target=1.5\n")
                   .empty());
}

// ------------------------------------------------ calendar lint merging

TEST(VerifyTopology, MergesPerSegmentCalendarLintFindings) {
  TopologyInput input;
  input.spec = parse_ok(kCleanPair);
  CalendarImage broken;
  broken.config.bus.bitrate_bps = 0;  // RTEC-C009 territory
  input.calendars.emplace(1, broken);
  VerifyOptions options;  // per_segment_lint defaults on
  const LintReport r = verify_topology(input, options);
  const Finding* f = find_rule(r, Rule::kBadConfig);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->segment, 1);
}

// -------------------------------------------------------- JSON rendering

TEST(VerifyReport, GoldenJsonWithTopologyCoordinates) {
  LintReport report;
  Finding f;
  f.rule = Rule::kE2eDeadline;
  f.severity = Severity::kError;
  f.route = 2;
  f.line = 12;
  f.message = "bound exceeds deadline";
  report.add(f);
  Finding g;
  g.rule = Rule::kGatewayOverload;
  g.severity = Severity::kWarning;
  g.segment = 3;
  g.link = 1;
  g.message = "demand above threshold";
  report.add(g);

  const std::string expected = R"({
  "tool": "rtec-verify",
  "format": 1,
  "counts": {"errors": 1, "warnings": 1},
  "verdict": "reject",
  "findings": [
    {
      "rule": "RTEC-T009",
      "name": "e2e-deadline",
      "severity": "error",
      "route": 2,
      "line": 12,
      "message": "bound exceeds deadline"
    },
    {
      "rule": "RTEC-T008",
      "name": "gateway-overload",
      "severity": "warning",
      "segment": 3,
      "link": 1,
      "message": "demand above threshold"
    }
  ]
}
)";
  EXPECT_EQ(report_to_json(report, "rtec-verify"), expected);
}

TEST(VerifyReport, LintDocumentShapeIsUnchanged) {
  // A finding without topology coordinates must render exactly as before
  // the T series existed — same keys, same default tool name.
  LintReport report;
  Finding f;
  f.rule = Rule::kWindowOverlap;
  f.severity = Severity::kError;
  f.slot = 1;
  f.other_slot = 2;
  f.message = "overlap";
  report.add(f);
  const std::string expected = R"({
  "tool": "rtec-lint",
  "format": 1,
  "counts": {"errors": 1, "warnings": 0},
  "verdict": "reject",
  "findings": [
    {
      "rule": "RTEC-C002",
      "name": "window-overlap",
      "severity": "error",
      "slot": 1,
      "other_slot": 2,
      "message": "overlap"
    }
  ]
}
)";
  EXPECT_EQ(report_to_json(report), expected);
}

}  // namespace
}  // namespace rtec::analysis
