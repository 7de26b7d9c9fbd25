#include "analysis/report.hpp"

#include <algorithm>
#include <sstream>

#include "util/json.hpp"

namespace rtec::analysis {

std::string_view rule_code(Rule r) {
  switch (r) {
    case Rule::kParseError: return "RTEC-P001";
    case Rule::kWindowOutsideRound: return "RTEC-C001";
    case Rule::kWindowOverlap: return "RTEC-C002";
    case Rule::kWcttCoverage: return "RTEC-C003";
    case Rule::kPeriodPhase: return "RTEC-C004";
    case Rule::kReservedEtag: return "RTEC-C005";
    case Rule::kOverSubscription: return "RTEC-C006";
    case Rule::kGapBelowPrecision: return "RTEC-C007";
    case Rule::kAdmissionDisagreement: return "RTEC-C008";
    case Rule::kBadConfig: return "RTEC-C009";
    case Rule::kBadSlotField: return "RTEC-C010";
    case Rule::kUnknownPublisher: return "RTEC-S101";
    case Rule::kDuplicateNode: return "RTEC-S102";
    case Rule::kPriorityInversion: return "RTEC-S103";
    case Rule::kEtagClassMixing: return "RTEC-S104";
    case Rule::kSyncSlotMismatch: return "RTEC-S105";
    case Rule::kSrtInfeasible: return "RTEC-S106";
    case Rule::kTopologyConfig: return "RTEC-T001";
    case Rule::kRoutingCycle: return "RTEC-T002";
    case Rule::kUnreachableSubscriber: return "RTEC-T003";
    case Rule::kEtagClash: return "RTEC-T004";
    case Rule::kPrecisionMismatch: return "RTEC-T005";
    case Rule::kSerialLookahead: return "RTEC-T006";
    case Rule::kSegmentOverload: return "RTEC-T007";
    case Rule::kGatewayOverload: return "RTEC-T008";
    case Rule::kE2eDeadline: return "RTEC-T009";
    case Rule::kHopInfeasible: return "RTEC-T010";
    case Rule::kOracleDisagreement: return "RTEC-T011";
    case Rule::kProbE2eMiss: return "RTEC-T012";
  }
  return "RTEC-????";
}

std::string_view rule_name(Rule r) {
  switch (r) {
    case Rule::kParseError: return "parse-error";
    case Rule::kWindowOutsideRound: return "window-outside-round";
    case Rule::kWindowOverlap: return "window-overlap";
    case Rule::kWcttCoverage: return "wctt-coverage";
    case Rule::kPeriodPhase: return "period-phase";
    case Rule::kReservedEtag: return "reserved-etag";
    case Rule::kOverSubscription: return "over-subscription";
    case Rule::kGapBelowPrecision: return "gap-below-precision";
    case Rule::kAdmissionDisagreement: return "admission-disagreement";
    case Rule::kBadConfig: return "bad-config";
    case Rule::kBadSlotField: return "bad-slot-field";
    case Rule::kUnknownPublisher: return "unknown-publisher";
    case Rule::kDuplicateNode: return "duplicate-node";
    case Rule::kPriorityInversion: return "priority-inversion";
    case Rule::kEtagClassMixing: return "etag-class-mixing";
    case Rule::kSyncSlotMismatch: return "sync-slot-mismatch";
    case Rule::kSrtInfeasible: return "srt-infeasible";
    case Rule::kTopologyConfig: return "topology-config";
    case Rule::kRoutingCycle: return "routing-cycle";
    case Rule::kUnreachableSubscriber: return "unreachable-subscriber";
    case Rule::kEtagClash: return "etag-clash";
    case Rule::kPrecisionMismatch: return "precision-mismatch";
    case Rule::kSerialLookahead: return "serial-lookahead";
    case Rule::kSegmentOverload: return "segment-overload";
    case Rule::kGatewayOverload: return "gateway-overload";
    case Rule::kE2eDeadline: return "e2e-deadline";
    case Rule::kHopInfeasible: return "hop-infeasible";
    case Rule::kOracleDisagreement: return "oracle-disagreement";
    case Rule::kProbE2eMiss: return "prob-e2e-miss";
  }
  return "unknown";
}

std::string_view to_string(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

int LintReport::error_count() const {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.severity == Severity::kError;
      }));
}

int LintReport::warning_count() const {
  return static_cast<int>(findings.size()) - error_count();
}

std::string report_to_json(const LintReport& report, std::string_view tool) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"tool\": \"" << tool << "\",\n";
  out << "  \"format\": 1,\n";
  out << "  \"counts\": {\"errors\": " << report.error_count()
      << ", \"warnings\": " << report.warning_count() << "},\n";
  out << "  \"verdict\": \"" << (report.has_errors() ? "reject" : "accept")
      << "\",\n";
  out << "  \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\n";
    out << "      \"rule\": \"" << rule_code(f.rule) << "\",\n";
    out << "      \"name\": \"" << rule_name(f.rule) << "\",\n";
    out << "      \"severity\": \"" << to_string(f.severity) << "\",\n";
    if (f.slot >= 0) out << "      \"slot\": " << f.slot << ",\n";
    if (f.other_slot >= 0) out << "      \"other_slot\": " << f.other_slot << ",\n";
    if (f.segment >= 0) out << "      \"segment\": " << f.segment << ",\n";
    if (f.link >= 0) out << "      \"link\": " << f.link << ",\n";
    if (f.route >= 0) out << "      \"route\": " << f.route << ",\n";
    if (f.line > 0) out << "      \"line\": " << f.line << ",\n";
    std::string message;
    append_json_string(message, f.message);
    out << "      \"message\": " << message << "\n    }";
  }
  out << (report.findings.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

std::string report_to_text(const LintReport& report) {
  std::ostringstream out;
  for (const Finding& f : report.findings) {
    if (f.line > 0) out << "line " << f.line << ": ";
    out << to_string(f.severity) << " [" << rule_code(f.rule) << "/"
        << rule_name(f.rule) << "]";
    if (f.slot >= 0) {
      out << " slot " << f.slot;
      if (f.other_slot >= 0) out << " vs " << f.other_slot;
      out << ":";
    }
    if (f.segment >= 0) out << " segment " << f.segment << ":";
    if (f.link >= 0) out << " link " << f.link << ":";
    if (f.route >= 0) out << " route " << f.route << ":";
    out << " " << f.message << "\n";
  }
  out << (report.has_errors() ? "REJECT" : "ACCEPT") << ": "
      << report.error_count() << " error(s), " << report.warning_count()
      << " warning(s)\n";
  return out.str();
}

}  // namespace rtec::analysis
