#include "analysis/lint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sched/srt_analysis.hpp"
#include "sched/wctt.hpp"

namespace rtec::analysis {

namespace {

/// Static per-slot facts the rules share.
struct SlotFacts {
  bool fields_ok = false;  ///< dlc/k/etag/node inside the model
  bool period_ok = false;  ///< m >= 1, 0 <= phase < m
  bool window_ok = false;  ///< window inside the round
  bool accepted = false;   ///< the linter's own admission verdict
  std::int64_t ready_ns = 0;
  std::int64_t deadline_ns = 0;
  std::int64_t window_ns = 0;  ///< derived ΔT_wait + WCTT
};

std::string ns_text(std::int64_t ns) { return std::to_string(ns) + " ns"; }

/// Format cap shared with parse_calendar_image: offsets and durations
/// beyond ~11.6 days of nanoseconds are rejected outright so every
/// downstream window computation stays inside 64-bit arithmetic.
constexpr std::int64_t kMaxDurationNs = 1'000'000'000'000'000;

/// RTEC-C009: is the bus/round configuration usable at all? Everything
/// else divides by the bit time or the round length, so a bad config
/// short-circuits the run.
void check_config(const CalendarImage& image, LintReport& report) {
  const auto bad = [&](std::string msg) {
    report.add({Rule::kBadConfig, Severity::kError, -1, -1, 0, std::move(msg)});
  };
  if (image.config.round_length <= Duration::zero() ||
      image.config.round_length.ns() > kMaxDurationNs)
    bad("round length must be positive and at most " +
        ns_text(kMaxDurationNs) + ", got " +
        ns_text(image.config.round_length.ns()));
  if (image.config.gap < Duration::zero() ||
      image.config.gap.ns() > kMaxDurationNs)
    bad("ΔG_min gap must be in [0, " + ns_text(kMaxDurationNs) + "], got " +
        ns_text(image.config.gap.ns()));
  if (image.config.bus.bitrate_bps <= 0)
    bad("bitrate must be positive, got " +
        std::to_string(image.config.bus.bitrate_bps));
  else if (image.config.bus.bitrate_bps > 1'000'000'000)
    bad("bitrate above 1 Gbit/s has a sub-nanosecond bit time the timing "
        "model cannot represent");
}

}  // namespace

LintReport lint_calendar(const CalendarImage& image,
                         const LintOptions& options) {
  LintReport report;

  check_config(image, report);
  if (report.has_errors()) return report;

  const Duration t_wait = max_blocking_time(image.config.bus);
  const std::int64_t round_ns = image.config.round_length.ns();
  const std::int64_t gap_ns = image.config.gap.ns();

  const int n = static_cast<int>(image.slots.size());
  std::vector<SlotFacts> facts(static_cast<std::size_t>(n));

  // --- per-slot field and period/phase validity (C010, C004) ------------
  for (int i = 0; i < n; ++i) {
    const ImageSlot& slot = image.slots[static_cast<std::size_t>(i)];
    const SlotSpec& s = slot.spec;
    SlotFacts& f = facts[static_cast<std::size_t>(i)];

    f.fields_ok = true;
    const auto field_error = [&](std::string msg) {
      f.fields_ok = false;
      report.add({Rule::kBadSlotField, Severity::kError, i, -1, slot.line,
                  std::move(msg)});
    };
    if (s.dlc < 0 || s.dlc > 8)
      field_error("dlc " + std::to_string(s.dlc) +
                  " outside [0, 8] — WCTT undefined");
    if (s.fault.omission_degree < 0 ||
        s.fault.omission_degree > kMaxOmissionDegree)
      field_error("omission degree k " +
                  std::to_string(s.fault.omission_degree) +
                  " outside [0, " + std::to_string(kMaxOmissionDegree) +
                  "] — fault assumption outside the model");
    if (s.lst_offset.ns() < -kMaxDurationNs ||
        s.lst_offset.ns() > kMaxDurationNs)
      field_error("lst offset " + ns_text(s.lst_offset.ns()) +
                  " outside the format's representable range");
    if (s.etag > kMaxEtag)
      field_error("etag " + std::to_string(s.etag) +
                  " outside the 14-bit identifier field");
    if (s.publisher > kMaxNodeId)
      field_error("publisher " + std::to_string(s.publisher) +
                  " outside the 7-bit TxNode field");

    f.period_ok = s.period_rounds >= 1 &&
                  s.period_rounds <= kMaxPeriodRounds && s.phase_round >= 0 &&
                  s.phase_round < s.period_rounds;
    if (!f.period_ok)
      report.add({Rule::kPeriodPhase, Severity::kError, i, -1, slot.line,
                  "period_rounds=" + std::to_string(s.period_rounds) +
                      " phase=" + std::to_string(s.phase_round) +
                      " inconsistent (need 1 <= m <= " +
                      std::to_string(kMaxPeriodRounds) +
                      " and 0 <= phase < m)"});

    if (!f.fields_ok) continue;

    // Derived reservation window (Fig. 3): [LST − ΔT_wait, LST + WCTT].
    const Duration wctt = hrt_wctt(s.dlc, s.fault, image.config.bus);
    f.ready_ns = (s.lst_offset - t_wait).ns();
    f.deadline_ns = (s.lst_offset + wctt).ns();
    f.window_ns = f.deadline_ns - f.ready_ns;

    // --- C001: window must lie inside the round -----------------------
    f.window_ok = f.ready_ns >= 0 && f.deadline_ns <= round_ns;
    if (!f.window_ok)
      report.add({Rule::kWindowOutsideRound, Severity::kError, i, -1,
                  slot.line,
                  "window [" + ns_text(f.ready_ns) + ", " +
                      ns_text(f.deadline_ns) + "] outside the round of " +
                      ns_text(round_ns)});

    // --- C003: declared window vs recomputed ΔT_wait + WCTT -----------
    // Any mismatch is an error: calendar_from_text refuses such an image.
    if (slot.declared_window_ns && *slot.declared_window_ns != f.window_ns)
      report.add({Rule::kWcttCoverage, Severity::kError, i, -1, slot.line,
                  "declared window " + ns_text(*slot.declared_window_ns) +
                      (*slot.declared_window_ns < f.window_ns
                           ? " does not cover"
                           : " over-reserves") +
                      " ΔT_wait + WCTT(dlc=" + std::to_string(s.dlc) +
                      ", k=" + std::to_string(s.fault.omission_degree) +
                      ") = " + ns_text(f.window_ns) +
                      " — the image is stale or tampered"});
  }

  // --- C002: pairwise circular separation >= ΔG_min ---------------------
  // Incremental, mirroring the admission test's algorithm shape (each new
  // slot against the previously *accepted* ones) so that the C008
  // cross-check below compares like with like — but with an independently
  // derived arc-separation formula: for windows A (start a, length la) and
  // B (start b, length lb) on the round circle, let d = (b − a) mod R;
  // they are separated by >= G iff d >= la + G and R − d >= lb + G.
  for (int i = 0; i < n; ++i) {
    SlotFacts& f = facts[static_cast<std::size_t>(i)];
    f.accepted = f.fields_ok && f.period_ok && f.window_ok;
    if (!f.accepted) continue;
    for (int j = 0; j < i; ++j) {
      const SlotFacts& o = facts[static_cast<std::size_t>(j)];
      if (!o.accepted) continue;
      std::int64_t d = (o.ready_ns - f.ready_ns) % round_ns;
      if (d < 0) d += round_ns;
      const bool separated = d >= f.window_ns + gap_ns &&
                             round_ns - d >= o.window_ns + gap_ns;
      if (!separated) {
        f.accepted = false;
        report.add({Rule::kWindowOverlap, Severity::kError, i, j,
                    image.slots[static_cast<std::size_t>(i)].line,
                    "windows closer than ΔG_min = " + ns_text(gap_ns) +
                        " under worst-case clock disagreement"});
        break;
      }
    }
  }

  // --- C005: infrastructure etags ---------------------------------------
  int sync_slots = 0;
  for (int i = 0; i < n; ++i) {
    const ImageSlot& slot = image.slots[static_cast<std::size_t>(i)];
    const Etag etag = slot.spec.etag;
    if (etag >= kFirstApplicationEtag) continue;
    if (etag == kSyncRefEtag) {
      ++sync_slots;
      if (sync_slots > 1)
        report.add({Rule::kReservedEtag, Severity::kWarning, i, -1, slot.line,
                    "second slot on the clock-sync etag — one sync round "
                    "per network is the protocol's model"});
    } else {
      report.add({Rule::kReservedEtag, Severity::kWarning, i, -1, slot.line,
                  "etag " + std::to_string(etag) +
                      " is reserved for infrastructure (sync follow-up / "
                      "binding protocol)"});
    }
  }

  // --- C006: bandwidth of the reserved share ----------------------------
  // Accumulated in double: thousands of slots of a capped-but-large round
  // could overflow a 64-bit nanosecond sum, and a share only needs ratio
  // precision anyway.
  double reserved_ns = 0;
  for (const SlotFacts& f : facts)
    if (f.fields_ok) reserved_ns += static_cast<double>(f.window_ns + gap_ns);
  const double fraction = reserved_ns / static_cast<double>(round_ns);
  if (fraction > 1.0) {
    std::ostringstream msg;
    msg << "reserved windows + gaps need " << static_cast<std::int64_t>(reserved_ns)
        << " ns of a " << round_ns << " ns round ("
        << static_cast<int>(fraction * 100) << "%) — no placement exists";
    report.add({Rule::kOverSubscription, Severity::kError, -1, -1, 0,
                msg.str()});
  } else if (fraction > options.warn_reserved_fraction) {
    std::ostringstream msg;
    msg << "reserved share " << static_cast<int>(fraction * 100)
        << "% of the round leaves SRT/NRT traffic to live off reclamation "
           "alone";
    report.add({Rule::kOverSubscription, Severity::kWarning, -1, -1, 0,
                msg.str()});
  }

  // --- C007: ΔG_min vs clock precision ----------------------------------
  if (options.clock_precision) {
    if (image.config.gap < *options.clock_precision)
      report.add({Rule::kGapBelowPrecision, Severity::kError, -1, -1, 0,
                  "ΔG_min = " + ns_text(gap_ns) +
                      " below the worst-case clock disagreement " +
                      ns_text(options.clock_precision->ns()) +
                      " — adjacent slot owners can overlap on the wire"});
  } else if (image.config.gap == Duration::zero()) {
    report.add({Rule::kGapBelowPrecision, Severity::kWarning, -1, -1, 0,
                "ΔG_min = 0: correct only with perfectly agreeing clocks; "
                "declare precision_ns in a scenario to verify"});
  }

  // --- C008: differential check against the Calendar admission test -----
  Calendar calendar{image.config};
  for (int i = 0; i < n; ++i) {
    const ImageSlot& slot = image.slots[static_cast<std::size_t>(i)];
    bool admitted = calendar.reserve(slot.spec).has_value();
    if (options.admission_override)
      if (const auto injected =
              options.admission_override(static_cast<std::size_t>(i)))
        admitted = *injected;
    const bool lint_ok = facts[static_cast<std::size_t>(i)].accepted;
    if (admitted != lint_ok)
      report.add(
          {Rule::kAdmissionDisagreement, Severity::kError, i, -1, slot.line,
           std::string{"admission test "} +
               (admitted ? "accepts" : "rejects") +
               " this slot but the linter " +
               (lint_ok ? "accepts" : "rejects") +
               " it — one of the two implementations is wrong"});
  }

  return report;
}

LintReport lint_scenario(const CalendarImage& image, const ScenarioSpec& spec,
                         const LintOptions& options) {
  LintOptions merged = options;
  if (!merged.clock_precision && spec.clock_precision)
    merged.clock_precision = spec.clock_precision;
  LintReport report = lint_calendar(image, merged);

  // --- S102: node inventory must be duplicate-free ----------------------
  std::set<NodeId> nodes;
  for (const DeclaredNode& node : spec.nodes) {
    if (!nodes.insert(node.id).second)
      report.add({Rule::kDuplicateNode, Severity::kError, -1, -1, node.line,
                  "node id " + std::to_string(node.id) + " declared twice"});
  }

  // --- S101: every publisher / stream sender must be a declared node ----
  // (skipped when the scenario omits its node inventory).
  if (!nodes.empty()) {
    for (std::size_t i = 0; i < image.slots.size(); ++i) {
      const ImageSlot& slot = image.slots[i];
      if (!nodes.contains(slot.spec.publisher))
        report.add({Rule::kUnknownPublisher, Severity::kError,
                    static_cast<int>(i), -1, slot.line,
                    "slot publisher node " +
                        std::to_string(slot.spec.publisher) +
                        " is not declared in the scenario"});
    }
    for (const StreamSpec& stream : spec.streams) {
      if (!nodes.contains(stream.node))
        report.add({Rule::kUnknownPublisher, Severity::kError, -1, -1,
                    stream.line,
                    "stream sender node " + std::to_string(stream.node) +
                        " is not declared in the scenario"});
    }
  }

  // --- S103: priority partition / HRT out-arbitration -------------------
  // First the partition itself (paper §3.3: 0 = HRT exclusive,
  // P_HRT < P_SRT < P_NRT)...
  const Priority srt_p_min =
      spec.srt_band ? spec.srt_band->p_min : kSrtPriorityMin;
  if (spec.srt_band) {
    const DeadlinePriorityMap::Config& band = *spec.srt_band;
    const auto band_error = [&](std::string msg) {
      report.add({Rule::kPriorityInversion, Severity::kError, -1, -1,
                  spec.srt_band_line, std::move(msg)});
    };
    if (band.p_min <= kHrtPriority)
      band_error("SRT band starts at priority " +
                 std::to_string(band.p_min) +
                 " — priority 0 is exclusively HRT, an SRT frame could win "
                 "arbitration against a pending HRT message");
    if (band.p_max < band.p_min)
      band_error("SRT band empty (p_max " + std::to_string(band.p_max) +
                 " < p_min " + std::to_string(band.p_min) + ")");
    else if (band.p_max >= kNrtPriorityMin)
      band_error("SRT band reaches into the NRT partition (p_max " +
                 std::to_string(band.p_max) + " >= " +
                 std::to_string(kNrtPriorityMin) + ")");
    if (band.slot_length <= Duration::zero())
      band_error("priority slot length Δt_p must be positive");
  }
  for (const StreamSpec& stream : spec.streams) {
    if (stream.traffic != TrafficClass::kNrt) continue;
    if (stream.priority < kNrtPriorityMin || stream.priority > kNrtPriorityMax)
      report.add({Rule::kPriorityInversion, Severity::kError, -1, -1,
                  stream.line,
                  "NRT stream priority " + std::to_string(stream.priority) +
                      " outside the NRT partition [" +
                      std::to_string(kNrtPriorityMin) + ", " +
                      std::to_string(kNrtPriorityMax) + "]"});
  }
  // ...then the encoded-identifier check: the most urgent identifier any
  // declared stream can carry must lose arbitration (compare numerically
  // higher) against every HRT slot identifier. Redundant with the
  // partition checks today — and exactly that redundancy catches a future
  // id_codec layout change that stops making priority the dominant bits.
  for (const StreamSpec& stream : spec.streams) {
    const bool partition_ok =
        stream.traffic == TrafficClass::kSrt
            ? srt_p_min > kHrtPriority
            : stream.priority >= kNrtPriorityMin &&
                  stream.priority <= kNrtPriorityMax;
    if (!partition_ok) continue;  // already reported above
    const Priority most_urgent =
        stream.traffic == TrafficClass::kSrt
            ? srt_p_min
            : static_cast<Priority>(stream.priority);
    const std::uint32_t stream_id =
        encode_can_id({most_urgent, stream.node, stream.etag});
    for (std::size_t i = 0; i < image.slots.size(); ++i) {
      const ImageSlot& slot = image.slots[i];
      if (slot.spec.etag > kMaxEtag || slot.spec.publisher > kMaxNodeId)
        continue;  // RTEC-C010 already reported; id undefined
      const std::uint32_t hrt_id = encode_can_id(
          {kHrtPriority, slot.spec.publisher, slot.spec.etag});
      if (stream_id <= hrt_id)
        report.add({Rule::kPriorityInversion, Severity::kError,
                    static_cast<int>(i), -1, stream.line,
                    "stream identifier 0x" +
                        [](std::uint32_t v) {
                          std::ostringstream hex;
                          hex << std::hex << v;
                          return hex.str();
                        }(stream_id) +
                        " would win arbitration against this HRT slot"});
    }
  }

  // --- S104: one etag, one traffic class --------------------------------
  std::set<Etag> hrt_etags;
  for (const ImageSlot& slot : image.slots) hrt_etags.insert(slot.spec.etag);
  for (const StreamSpec& stream : spec.streams) {
    if (hrt_etags.contains(stream.etag))
      report.add({Rule::kEtagClassMixing, Severity::kError, -1, -1,
                  stream.line,
                  "etag " + std::to_string(stream.etag) +
                      " carries both an HRT reservation and " +
                      (stream.traffic == TrafficClass::kSrt ? "an SRT"
                                                            : "an NRT") +
                      " stream — subscribers cannot tell the guarantees "
                      "apart (hardware filters match the etag only)"});
    else if (stream.etag < kFirstApplicationEtag)
      report.add({Rule::kEtagClassMixing, Severity::kWarning, -1, -1,
                  stream.line,
                  "stream uses infrastructure etag " +
                      std::to_string(stream.etag)});
  }

  // --- S105: sync declaration vs sync slot ------------------------------
  int sync_slot = -1;
  for (std::size_t i = 0; i < image.slots.size(); ++i)
    if (image.slots[i].spec.etag == kSyncRefEtag) {
      sync_slot = static_cast<int>(i);
      break;
    }
  if (spec.sync_master) {
    if (sync_slot < 0)
      report.add({Rule::kSyncSlotMismatch, Severity::kError, -1, -1,
                  spec.sync_line,
                  "scenario declares sync master node " +
                      std::to_string(*spec.sync_master) +
                      " but the calendar reserves no sync slot (etag 0)"});
    else if (image.slots[static_cast<std::size_t>(sync_slot)].spec.publisher !=
             *spec.sync_master)
      report.add(
          {Rule::kSyncSlotMismatch, Severity::kError, sync_slot, -1,
           image.slots[static_cast<std::size_t>(sync_slot)].line,
           "sync slot publisher node " +
               std::to_string(
                   image.slots[static_cast<std::size_t>(sync_slot)]
                       .spec.publisher) +
               " is not the declared sync master node " +
               std::to_string(*spec.sync_master)});
  } else if (sync_slot >= 0) {
    report.add({Rule::kSyncSlotMismatch, Severity::kWarning, sync_slot, -1,
                image.slots[static_cast<std::size_t>(sync_slot)].line,
                "calendar reserves a sync slot but the scenario declares no "
                "sync master"});
  }

  // --- S106: SRT EDF feasibility under this calendar --------------------
  // Only meaningful when the calendar itself is clean (the test needs an
  // admitted Calendar). The demand-bound test is sufficient, not
  // necessary, so a rejection is a warning.
  const bool have_srt = std::any_of(
      spec.streams.begin(), spec.streams.end(), [](const StreamSpec& s) {
        return s.traffic == TrafficClass::kSrt;
      });
  if (have_srt && !report.has_errors()) {
    Calendar calendar{image.config};
    for (const ImageSlot& slot : image.slots)
      (void)calendar.reserve(slot.spec);
    SrtAnalysisInput input;
    input.bus = image.config.bus;
    input.calendar = &calendar;
    if (spec.srt_band) input.priority_slot = spec.srt_band->slot_length;
    for (const StreamSpec& stream : spec.streams) {
      if (stream.traffic != TrafficClass::kSrt) continue;
      SrtStreamSpec s;
      s.id = static_cast<int>(input.streams.size());
      s.period = stream.period;
      s.deadline = stream.deadline;
      s.dlc = stream.dlc;
      input.streams.push_back(s);
    }
    if (const auto verdict = srt_edf_feasibility(input))
      report.add({Rule::kSrtInfeasible, Severity::kWarning, -1, -1, 0,
                  "declared SRT set fails the (sufficient) EDF "
                  "demand-bound test: " +
                      verdict->detail});
  }

  return report;
}

LintReport parse_failure_report(const CalendarIoError& error) {
  LintReport report;
  report.add({Rule::kParseError, Severity::kError, -1, -1, error.line,
              error.message});
  return report;
}

}  // namespace rtec::analysis
