// rtec_verify — whole-topology static verifier (analysis/verify.hpp as a
// command-line tool). Checks a gateway-graph topology description — and
// the per-segment calendar images it references — against the RTEC-T rule
// catalog: graph structure, routing cycles, reachability, cross-segment
// etag clashes, clock-precision consistency, lookahead floors, bandwidth
// budgets and composed end-to-end latency bounds. Optionally cross-checks
// the verdict against the sharded simulator (differential oracle).
//
// Usage:
//   rtec_verify [options] <topology.topo>
//     --json                machine-readable report on stdout
//     --strict              exit non-zero on warnings too
//     --bounds              print composed per-route bounds (text mode)
//     --prob                probabilistic rule RTEC-T012 + per-route miss
//                           probabilities (text mode)
//     --oracle              run the differential simulation oracle
//     --seeds <a,b,c>       oracle seeds (default 1,2,3)
//     --sim-ms <n>          oracle simulated time per seed (default 200)
//     --warn-util <f>       utilization warning threshold (default 0.95)
//     --no-calendar-lint    skip the per-segment calendar lint merge
//
// Calendar paths inside the topology file resolve relative to the file.
// Exit codes: 0 clean (or warnings without --strict), 1 findings that
// gate, 2 usage or I/O failure. Parse failures of any input are reported
// as RTEC-P001 findings (exit 1) — the same uniform JSON document
// rtec_lint emits, with "tool": "rtec-verify".
//
// Rule catalog, severities and the bound derivation: docs/static_analysis.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include "analysis/lint.hpp"
#include "analysis/oracle.hpp"
#include "analysis/topology.hpp"
#include "analysis/verify.hpp"
#include "tool_io.hpp"

using namespace rtec;
using namespace rtec::analysis;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--strict] [--bounds] [--prob] [--oracle]\n"
               "          [--seeds <a,b,c>] [--sim-ms <n>] [--warn-util <f>]\n"
               "          [--no-calendar-lint] <topology.topo>\n",
               argv0);
  return 2;
}

std::optional<std::string> slurp(const std::string& path) {
  std::string error;
  auto text = tools::slurp_file(path, error);
  if (!text) std::fprintf(stderr, "%s\n", error.c_str());
  return text;
}

int emit(const LintReport& report, bool json, bool strict) {
  const std::string rendered = json ? report_to_json(report, "rtec-verify")
                                    : report_to_text(report);
  std::fputs(rendered.c_str(), stdout);
  if (report.has_errors()) return 1;
  if (strict && report.warning_count() > 0) return 1;
  return 0;
}

std::optional<std::vector<std::uint64_t>> parse_seed_list(const char* arg) {
  std::vector<std::uint64_t> seeds;
  const char* p = arg;
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p) return std::nullopt;
    seeds.push_back(v);
    if (*end == ',') ++end;
    else if (*end != '\0') return std::nullopt;
    p = end;
  }
  if (seeds.empty()) return std::nullopt;
  return seeds;
}

}  // namespace

int main(int argc, char** argv) {
  const char* topology_path = nullptr;
  bool json = false;
  bool strict = false;
  bool print_bounds = false;
  bool run_oracle = false;
  VerifyOptions options;
  OracleOptions oracle_options;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--bounds") == 0) {
      print_bounds = true;
    } else if (std::strcmp(argv[i], "--prob") == 0) {
      options.probabilistic = true;
    } else if (std::strcmp(argv[i], "--oracle") == 0) {
      run_oracle = true;
    } else if (std::strcmp(argv[i], "--no-calendar-lint") == 0) {
      options.per_segment_lint = false;
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      const auto seeds = parse_seed_list(argv[++i]);
      if (!seeds) return usage(argv[0]);
      oracle_options.seeds = *seeds;
    } else if (std::strcmp(argv[i], "--sim-ms") == 0 && i + 1 < argc) {
      char* end = nullptr;
      const long long ms = std::strtoll(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || ms <= 0) return usage(argv[0]);
      oracle_options.sim_time = Duration::milliseconds(ms);
    } else if (std::strcmp(argv[i], "--warn-util") == 0 && i + 1 < argc) {
      char* end = nullptr;
      const double f = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || f < 0 || f > 1)
        return usage(argv[0]);
      options.warn_utilization = f;
    } else if (argv[i][0] == '-') {
      return usage(argv[0]);
    } else if (topology_path == nullptr) {
      topology_path = argv[i];
    } else {
      return usage(argv[0]);
    }
  }
  if (topology_path == nullptr) return usage(argv[0]);
  oracle_options.verify = options;

  const auto topology_text = slurp(topology_path);
  if (!topology_text) return 2;
  const auto spec = parse_topology_spec(*topology_text);
  if (!spec) return emit(parse_failure_report(spec.error()), json, strict);

  // Calendar images referenced by the topology, resolved relative to it.
  // An unreadable file is an I/O failure (exit 2); a file that does not
  // parse is an RTEC-P001 finding tagged with its segment.
  TopologyInput input;
  input.spec = *spec;
  const std::filesystem::path base =
      std::filesystem::path{topology_path}.parent_path();
  LintReport calendar_failures;
  for (const SegmentSpec& segment : spec->segments) {
    if (segment.calendar.empty()) continue;
    const std::string path = (base / segment.calendar).string();
    const auto text = slurp(path);
    if (!text) return 2;
    const auto image = parse_calendar_image(*text);
    if (!image) {
      LintReport one = parse_failure_report(image.error());
      for (Finding& f : one.findings) {
        f.segment = segment.id;
        f.message = segment.calendar + ": " + f.message;
        calendar_failures.add(std::move(f));
      }
      continue;
    }
    input.calendars.emplace(segment.id, *image);
  }
  if (!calendar_failures.findings.empty())
    return emit(calendar_failures, json, strict);

  LintReport report = verify_topology(input, options);

  if (run_oracle) {
    const OracleResult oracle = run_differential_oracle(input, oracle_options);
    if (!oracle.ran) {
      std::fprintf(stderr, "oracle skipped: %s\n",
                   oracle.skip_reason.c_str());
    } else {
      std::fprintf(stderr,
                   "oracle ran: %zu observation(s) over %zu seed(s), "
                   "%zu disagreement(s)\n",
                   oracle.observations.size(), oracle_options.seeds.size(),
                   oracle.report.findings.size());
    }
    for (const Finding& f : oracle.report.findings) report.add(f);
  }

  if (print_bounds && !json) {
    for (const RouteBound& rb : route_bounds(input)) {
      const RouteSpec& route = input.spec.routes[rb.route];
      if (rb.computable)
        std::printf("route %zu etag=%u %d->%d: bound %lld ns, deadline "
                    "%lld ns, %zu hop(s)\n",
                    rb.route, static_cast<unsigned>(route.etag), route.from,
                    route.to, static_cast<long long>(rb.bound.ns()),
                    static_cast<long long>(route.e2e_deadline.ns()),
                    rb.link_ids.size());
      else
        std::printf("route %zu etag=%u %d->%d: no resolvable path\n",
                    rb.route, static_cast<unsigned>(route.etag), route.from,
                    route.to);
    }
  }

  if (options.probabilistic && !json) {
    for (const RouteMiss& rm : route_miss_bounds(input)) {
      const RouteSpec& route = input.spec.routes[rm.route];
      if (!rm.computable) continue;
      char target[32] = "none";
      if (route.miss_target)
        std::snprintf(target, sizeof target, "%.1e", *route.miss_target);
      std::printf("route %zu etag=%u %d->%d: miss probability %.3e over "
                  "%zu hop(s), target %s, tail bound %.1e\n",
                  rm.route, static_cast<unsigned>(route.etag), route.from,
                  route.to, rm.e2e_miss, rm.hop_miss.size(), target,
                  rm.tail_epsilon);
    }
  }

  return emit(report, json, strict);
}
