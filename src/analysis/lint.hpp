#pragma once

#include <functional>
#include <optional>

#include "analysis/report.hpp"
#include "analysis/scenario_spec.hpp"
#include "sched/calendar_io.hpp"

/// \file lint.hpp
/// Static calendar/scenario verifier — the offline counterpart of the
/// paper's admission test. The HRT timeliness argument (§3.1, Fig. 3) is
/// established *before* the system runs: the reservation calendar, not
/// runtime behaviour, guarantees bounded latency. This module checks
/// those invariants on a raw calendar image (and optionally a scenario
/// description) without running the simulator, and — because redundancy
/// is what makes tampering detectable — cross-checks its own verdict
/// against the Calendar's admission test (rule RTEC-C008: any
/// disagreement between the two implementations is itself a finding).
///
/// Rule catalog, severities and paper rationale: docs/static_analysis.md.
/// CLI front-end: tools/rtec_lint.

namespace rtec::analysis {

struct LintOptions {
  /// Worst-case clock disagreement Π that ΔG_min must dominate (rule
  /// RTEC-C007). Overrides a scenario's precision_ns when both are given;
  /// when neither is known the rule only warns about a zero gap.
  std::optional<Duration> clock_precision;
  /// Reserved-share warning threshold for RTEC-C006 (errors always fire
  /// at > 1.0). The paper argues unused reservations are reclaimed, so a
  /// high share is legal — but above this fraction the SRT/NRT classes
  /// are living off reclamation alone, which deserves a warning.
  double warn_reserved_fraction = 0.95;
  /// Fault-injection hook for RTEC-C008: when set, overrides the
  /// admission test's verdict for the given slot index (nullopt = use the
  /// real Calendar::reserve). The linter and the admission test agree by
  /// construction on well-formed input, so the differential tests inject
  /// a faulty oracle here to prove the cross-check actually fires.
  /// Production callers leave this empty.
  std::function<std::optional<bool>(std::size_t)> admission_override;
};

/// Verifies a raw calendar image against the calendar rule set
/// (RTEC-C001..C010). Findings reference image slot indices and source
/// lines when the image came from text.
[[nodiscard]] LintReport lint_calendar(const CalendarImage& image,
                                       const LintOptions& options = {});

/// lint_calendar plus the scenario cross-checks (RTEC-S101..S106):
/// publisher inventory, identifier/priority partition (id_codec,
/// priority_map), traffic-class separation per etag, sync-slot
/// consistency and the SRT EDF feasibility test (sched/srt_analysis).
[[nodiscard]] LintReport lint_scenario(const CalendarImage& image,
                                       const ScenarioSpec& spec,
                                       const LintOptions& options = {});

/// Wraps a parse failure as a one-finding report (RTEC-P001) so CLI/CI
/// consumers see a uniform JSON document for every failure mode.
[[nodiscard]] LintReport parse_failure_report(const CalendarIoError& error);

}  // namespace rtec::analysis
