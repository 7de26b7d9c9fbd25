#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/scenario_spec.hpp"
#include "analysis/topology.hpp"
#include "analysis/verify.hpp"
#include "canbus/attack.hpp"
#include "canbus/fault.hpp"
#include "core/gateway.hpp"
#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "sched/calendar_io.hpp"
#include "trace/binary.hpp"
#include "trace/candump.hpp"
#include "trace/detectors.hpp"
#include "util/bytes.hpp"
#include "util/kv_text.hpp"
#include "util/random.hpp"

/// Seeded mutation fuzzing of every parser of outside input, each chained
/// into its consumer: RTEB traces, candump logs (and their RTEB
/// conversion), topology descriptions into the verifier, calendar images
/// into the linter and the admission test, scenario descriptions into the
/// scenario lint, and the shared key=value tokenizer. The mutants come
/// from the committed fixtures in tools/fixtures (plus an RTEB stream
/// recorded here) through byte flips, truncation, line duplication and
/// boundary-integer splices. A parser must reject a bad document with a
/// non-empty diagnostic — never crash, hang or trip the sanitizers — and
/// whatever it accepts, its consumer must digest.

namespace rtec {
namespace {

using namespace rtec::literals;
using analysis::LintReport;

constexpr int kMutationsPerParser = 10'000;
constexpr int kProbRuns = 3;

std::string fixture(const std::string& name) {
  std::ifstream in{std::string{RTEC_FIXTURE_DIR} + "/" + name,
                   std::ios::binary};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Boundary values spliced over integers: zero, the signed extremes, the
/// first value past int32, and the formats' 1e15 ns duration cap.
constexpr std::int64_t kBoundary[] = {
    0, -1, std::numeric_limits<std::int64_t>::min(),
    std::numeric_limits<std::int64_t>::max(), std::int64_t{1} << 31,
    1'000'000'000'000'000};

/// One random edit of `doc`. Text documents get their boundary values
/// spliced over a run of digits, in decimal; binary documents get them
/// written over 2, 4 or 8 bytes, little-endian.
void mutate_once(std::string& doc, Rng& rng, bool binary) {
  const auto pos = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(doc.size())));
  };
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // byte flips
      if (doc.empty()) return;
      for (auto n = rng.uniform_int(1, 4); n > 0; --n) {
        const std::size_t at = pos() % doc.size();
        doc[at] = static_cast<char>(rng.bernoulli(0.5)
                                        ? doc[at] ^ (1 << rng.uniform_int(0, 7))
                                        : rng.uniform_int(0, 255));
      }
      return;
    }
    case 1:  // truncation
      doc.resize(pos());
      return;
    case 2: {  // line duplication
      const std::size_t at = pos();
      const std::size_t begin = doc.rfind('\n', at == 0 ? 0 : at - 1);
      const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
      std::size_t end = doc.find('\n', from);
      end = end == std::string::npos ? doc.size() : end + 1;
      doc.insert(end, doc.substr(from, end - from));
      return;
    }
    default: {  // boundary-integer splice
      const std::int64_t v = kBoundary[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(std::size(kBoundary)) - 1))];
      if (binary) {
        const auto width = std::size_t{2} << rng.uniform_int(0, 2);
        if (doc.size() < width) return;
        const std::size_t at = pos() % (doc.size() - width + 1);
        std::uint8_t bytes[8];
        store_le64(bytes, static_cast<std::uint64_t>(v));
        doc.replace(at, width, reinterpret_cast<const char*>(bytes), width);
        return;
      }
      std::size_t at = pos();
      std::size_t len = 0;
      const std::size_t digit = doc.find_first_of("0123456789", at);
      if (digit != std::string::npos) {
        at = digit;
        while (at + len < doc.size() && doc[at + len] >= '0' &&
               doc[at + len] <= '9')
          ++len;
      }
      doc.replace(at, len,
                  v == 1'000'000'000'000'000 && rng.bernoulli(0.5)
                      ? std::string{"1e15"}
                      : std::to_string(v));
      return;
    }
  }
}

std::string mutant(const std::string& seed_doc, Rng& rng, bool binary) {
  std::string doc = seed_doc;
  for (auto n = rng.uniform_int(1, 3); n > 0; --n)
    mutate_once(doc, rng, binary);
  return doc;
}

/// Outcome counts of one parser's campaign and the first contract
/// violation, with the document that caused it.
struct Campaign {
  int accepted = 0;
  int rejected = 0;
  std::string violation;

  void fail(const std::string& what, const std::string& doc) {
    if (violation.empty())
      violation = what + "\n--- document (" + std::to_string(doc.size()) +
                  " bytes) ---\n" + doc;
  }
  template <typename T>
  void check(const Expected<T, std::string>& r, const std::string& doc) {
    if (r.has_value()) return;
    if (r.error().empty()) fail("rejected without a diagnostic", doc);
  }
  template <typename T>
  void check(const Expected<T, CalendarIoError>& r, const std::string& doc) {
    if (r.has_value()) return;
    if (r.error().message.empty()) fail("rejected without a diagnostic", doc);
  }
  void check(const LintReport& report, const std::string& doc) {
    for (const analysis::Finding& f : report.findings)
      if (f.message.empty()) fail("finding without a message", doc);
    if (analysis::report_to_json(report).empty())
      fail("empty JSON report", doc);
  }
};

/// Runs `body` over kMutationsPerParser mutants of the seed documents.
void run_campaign(const std::vector<std::string>& seeds, std::uint64_t seed,
                  bool binary,
                  const std::function<bool(const std::string&, Campaign&)>&
                      body) {
  Rng rng{seed};
  Campaign c;
  for (int i = 0; i < kMutationsPerParser && c.violation.empty(); ++i) {
    const std::string& base =
        seeds[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(seeds.size()) - 1))];
    const std::string doc = mutant(base, rng, binary);
    (body(doc, c) ? c.accepted : c.rejected) += 1;
  }
  EXPECT_EQ(c.violation, "");
  // Both outcomes occur, or the mutators are not reaching the parser.
  EXPECT_GT(c.accepted, 0);
  EXPECT_GT(c.rejected, 0);
}

/// Two segments bridged by a gateway, omission faults, a detector and a
/// fuzzing attacker: the recording holds every RTEB record kind.
std::string recorded_rteb() {
  Scenario::Config cfg;
  cfg.networks = 2;
  Scenario scn{cfg};
  Node& pub_node = scn.add_node(1, {}, 0);
  scn.add_node(2, {}, 1);
  Node& gw_a = scn.add_node(20, {}, 0);
  Node& gw_b = scn.add_node(21, {}, 1);
  Gateway gw{gw_a, gw_b, scn.link_gateway(gw_a, gw_b, 250_us)};
  const Subject subj = subject_of("fuzz/x");
  EXPECT_TRUE(gw.bridge_srt(subj, 10_ms, 30_ms).has_value());
  scn.set_fault_model(std::make_unique<RandomOmissionFaults>(0.05, 7));
  trace::MeanIatGate::Config gate;
  gate.train_until = TimePoint::origin() + 20_ms;
  scn.detectors(0).add(std::make_unique<trace::MeanIatGate>(gate));
  FuzzingAttack::Config fuzz;
  fuzz.from = TimePoint::origin() + 25_ms;
  fuzz.to = TimePoint::origin() + 40_ms;
  scn.install_attack(std::make_unique<FuzzingAttack>(fuzz), 9, 3);
  const trace::RtebWriter& rec = scn.record_rteb(0);
  Srtec pub{pub_node.middleware()};
  EXPECT_TRUE(pub.announce(subj, {}, nullptr).has_value());
  for (int i = 0; i < 30; ++i)
    scn.segment_sim(0).schedule_at(
        TimePoint::origin() + Duration::microseconds(1000 + 1300 * i),
        [&pub, i] {
          Event e;
          e.content = {static_cast<std::uint8_t>(i), 0x5a};
          (void)pub.publish(std::move(e));
        });
  scn.run_for(50_ms);
  return rec.bytes();
}

TEST(Rteb, RecordedScenarioStreamPinned) {
  // Size, record count and FNV-1a of a trace holding every record kind,
  // detector definitions included: any change to the encoder, to the
  // order in which the scenario feeds it, or to the detectors' alarms
  // moves one of them.
  const std::string rteb = recorded_rteb();
  std::size_t records = 0;
  for (std::size_t pos = trace::kRtebHeaderSize; pos < rteb.size();
       pos += std::size_t{1} + static_cast<std::uint8_t>(rteb[pos]))
    ++records;
  std::uint64_t fnv = 0xcbf29ce484222325ULL;
  for (const char c : rteb) {
    fnv ^= static_cast<std::uint8_t>(c);
    fnv *= 0x100000001b3ULL;
  }
  EXPECT_EQ(rteb.size(), 704u);
  EXPECT_EQ(records, 70u);
  EXPECT_EQ(fnv, 0x5b8eab3b7f757e24ULL);
  // The rtec_trace ctests read the same stream from a committed file.
  EXPECT_TRUE(rteb == fixture("recorded.rteb"))
      << "tools/fixtures/recorded.rteb differs from the recorded stream";
}

TEST(ParserFuzz, RtebReader) {
  const std::string rteb = recorded_rteb();
  auto recording = trace::RtebReader::open(rteb);
  ASSERT_TRUE(recording.has_value()) << recording.error();
  const auto recorded = recording->read_all();
  ASSERT_TRUE(recorded.has_value()) << recorded.error();
  int frames_ok = 0;
  int frames_error = 0;
  int alarms = 0;
  int handoffs = 0;
  for (const trace::RtebRecord& r : *recorded) {
    if (r.kind == trace::RtebKind::kFrame)
      ++(r.frame.success ? frames_ok : frames_error);
    alarms += r.kind == trace::RtebKind::kAlarm ? 1 : 0;
    handoffs += r.kind == trace::RtebKind::kHandoff ? 1 : 0;
  }
  EXPECT_GT(frames_ok, 0);
  EXPECT_GT(frames_error, 0);
  EXPECT_GT(alarms, 0);
  EXPECT_GT(handoffs, 0);
  // Besides failing cleanly, each mutant holds the decoder's three entry
  // points to one another: read_all decodes what a next() loop decodes,
  // in one allocation, and rteb_to_candump renders exactly the successful
  // frames of that loop through format_candump_line, or all three fail
  // with the same diagnostic.
  run_campaign(
      {rteb}, 1, /*binary=*/true, [](const std::string& doc, Campaign& c) {
        auto reader = trace::RtebReader::open(doc);
        c.check(reader, doc);
        if (!reader) return false;
        const auto records = reader->read_all();
        c.check(records, doc);

        auto stepper = trace::RtebReader::open(doc);
        std::vector<trace::RtebRecord> stepped;
        std::string step_error;
        for (;;) {
          auto r = stepper->next();
          if (!r) {
            step_error = r.error();
            break;
          }
          if (!r.value()) break;
          stepped.push_back(*r.value());
        }
        if (!records) {
          if (records.error() != step_error)
            c.fail("read_all and next() fail differently", doc);
        } else if (!step_error.empty()) {
          c.fail("next() fails where read_all decodes", doc);
        } else if (records->capacity() != records->size()) {
          c.fail("read_all grew its vector instead of allocating once", doc);
        } else if (!std::equal(records->begin(), records->end(),
                               stepped.begin(), stepped.end(),
                               trace::same_record)) {
          c.fail("read_all and next() decode different records", doc);
        }

        const auto text = trace::rteb_to_candump(doc, "can0");
        c.check(text, doc);
        if (step_error.empty()) {
          std::string lines;
          for (const trace::RtebRecord& r : stepped)
            if (r.kind == trace::RtebKind::kFrame && r.frame.success)
              lines += format_candump_line(r.frame.frame, r.frame.at, "can0") +
                       '\n';
          if (!text || *text != lines)
            c.fail("rteb_to_candump differs from format_candump_line", doc);
        } else if (text || text.error() != step_error) {
          c.fail("rteb_to_candump fails differently from the reader", doc);
        }
        return records.has_value();
      });
}

/// Lines holding at least one token — what parse_candump either parses
/// or counts as skipped.
std::size_t candump_lines(const std::string& text) {
  std::istringstream in{text};
  std::size_t n = 0;
  for (std::string line, token; std::getline(in, line);)
    if (std::istringstream{line} >> token) ++n;
  return n;
}

TEST(ParserFuzz, CandumpIntoRteb) {
  run_campaign(
      {fixture("sample.candump")}, 2, /*binary=*/false,
      [](const std::string& doc, Campaign& c) {
        std::size_t skipped = 0;
        const std::vector<CandumpEntry> entries = parse_candump(doc, &skipped);
        if (entries.size() + skipped != candump_lines(doc))
          c.fail("a line neither parsed nor counted as skipped", doc);
        std::size_t skipped_again = 0;
        const std::string rteb =
            trace::rteb_from_candump(doc, 0, &skipped_again);
        if (skipped_again != skipped) c.fail("skip counts disagree", doc);
        auto reader = trace::RtebReader::open(rteb);
        if (!reader) {
          c.fail("converted log does not open: " + reader.error(), doc);
          return false;
        }
        const auto records = reader->read_all();
        if (!records)
          c.fail("converted log does not decode: " + records.error(), doc);
        else if (records->size() != entries.size())
          c.fail("converted log lost records", doc);
        return skipped == 0;
      });
}

TEST(ParserFuzz, TopologyIntoVerifier) {
  const auto demo = parse_calendar_image(fixture("demo.cal"));
  ASSERT_TRUE(demo.has_value());
  std::vector<std::string> seeds;
  for (const char* name : {"campus.topo", "chain_srt.topo", "bad_topology.topo",
                           "bad_prob.topo", "bad_overflow.topo"})
    seeds.push_back(fixture(name));
  int prob_runs = 0;
  run_campaign(
      seeds, 3, /*binary=*/false,
      [&demo, &prob_runs](const std::string& doc, Campaign& c) {
        const auto spec = analysis::parse_topology_spec(doc);
        c.check(spec, doc);
        if (!spec) return false;
        // Calendar references resolve to the demo image: the verifier sees
        // per-segment calendars without the test opening mutated paths.
        analysis::TopologyInput input{*spec, {}};
        for (const analysis::SegmentSpec& seg : spec->segments)
          if (!seg.calendar.empty()) input.calendars[seg.id] = *demo;
        analysis::VerifyOptions options;
        // The probabilistic engine (RTEC-T012) costs seconds per topology
        // under the sanitizers: only the first few accepted mutants that
        // declare a miss target run it.
        options.probabilistic =
            prob_runs < kProbRuns &&
            std::any_of(spec->routes.begin(), spec->routes.end(),
                        [](const analysis::RouteSpec& r) {
                          return r.miss_target.has_value();
                        });
        prob_runs += options.probabilistic ? 1 : 0;
        c.check(analysis::verify_topology(input, options), doc);
        return true;
      });
  EXPECT_EQ(prob_runs, kProbRuns);
}

TEST(ParserFuzz, CalendarIntoLintAndAdmission) {
  const auto scenario = analysis::parse_scenario_spec(fixture("demo.scn"));
  ASSERT_TRUE(scenario.has_value());
  run_campaign(
      {fixture("demo.cal"), fixture("bad_overlap.cal"),
       fixture("bad_round.cal")},
      4, /*binary=*/false,
      [&scenario](const std::string& doc, Campaign& c) {
        const auto image = parse_calendar_image(doc);
        c.check(image, doc);
        const auto calendar = calendar_from_text(doc);
        c.check(calendar, doc);
        if (!image) {
          if (calendar) c.fail("admitted an image stage 1 rejects", doc);
          return false;
        }
        const LintReport report = analysis::lint_calendar(*image);
        c.check(report, doc);
        // RTEC-C008 keeps the linter and the admission test in step, and
        // RTEC-C003 refuses every window stamp the loader refuses.
        if (!report.has_errors() && !calendar)
          c.fail("lint-clean image refused by admission: " +
                     calendar.error().message,
                 doc);
        c.check(analysis::lint_scenario(*image, *scenario), doc);
        return true;
      });
}

// One verdict for a stale window stamp: the loader and the linter both
// refuse tools/fixtures/stale_window.cal.
TEST(ParserFuzz, StaleWindowFixtureRefusedByLoaderAndLinter) {
  const std::string doc = fixture("stale_window.cal");
  const auto calendar = calendar_from_text(doc);
  ASSERT_FALSE(calendar.has_value());
  EXPECT_NE(calendar.error().message.find("declared window_ns=510000"),
            std::string::npos)
      << calendar.error().message;
  const auto image = parse_calendar_image(doc);
  ASSERT_TRUE(image.has_value());
  const LintReport report = analysis::lint_calendar(*image);
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(std::any_of(report.findings.begin(), report.findings.end(),
                          [](const analysis::Finding& f) {
                            return f.rule == analysis::Rule::kWcttCoverage &&
                                   f.severity == analysis::Severity::kError;
                          }));
}

TEST(ParserFuzz, ScenarioIntoLint) {
  const auto image = parse_calendar_image(fixture("demo.cal"));
  ASSERT_TRUE(image.has_value());
  run_campaign({fixture("demo.scn")}, 5, /*binary=*/false,
               [&image](const std::string& doc, Campaign& c) {
                 const auto spec = analysis::parse_scenario_spec(doc);
                 c.check(spec, doc);
                 if (!spec) return false;
                 c.check(analysis::lint_scenario(*image, *spec), doc);
                 return true;
               });
}

TEST(ParserFuzz, KvTokens) {
  // Directive bodies from all three formats; each seed's own keys are the
  // allowed set.
  const std::vector<std::string> seeds = {
      "lst_ns=1000000 dlc=8 k=1 etag=10 node=1 periodic=1 m=1 phase=0 "
      "window_ns=506000",
      "class=srt node=6 etag=20 dlc=8 period_us=5000 deadline_us=5000",
      "etag=40 from=0 to=2 period_us=7000 hop_deadline_us=10000 "
      "e2e_deadline_us=40000 dlc=8 miss_target=1e-6",
      "id=0 calendar=demo.cal precision_ns=33000 fault_rate=0.01"};
  std::vector<std::string> keys;
  for (const std::string& s : seeds) {
    std::istringstream in{s};
    for (std::string token; in >> token;)
      keys.push_back(token.substr(0, token.find('=')));
  }
  const std::vector<std::string_view> allowed(keys.begin(), keys.end());
  run_campaign(seeds, 6, /*binary=*/false,
               [&allowed](const std::string& doc, Campaign& c) {
                 const auto kv = parse_kv_tokens(doc, allowed);
                 c.check(kv, doc);
                 if (!kv) return false;
                 for (const auto& [key, value] : kv->values) {
                   c.check(kv->get_int(key), doc);
                   c.check(kv->get_int_in(key, 0, 1'000'000), doc);
                   c.check(kv->get_double(key), doc);
                   c.check(kv->get_double_in(key, 0.0, 1.0), doc);
                   c.check(kv->get_str(key), doc);
                 }
                 return true;
               });
}

}  // namespace
}  // namespace rtec
