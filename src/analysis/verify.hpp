#pragma once

#include <vector>

#include "analysis/report.hpp"
#include "analysis/topology.hpp"
#include "sched/prob_rta.hpp"

/// \file verify.hpp
/// rtec-verify — whole-topology static verifier. PR 1's linter checks one
/// segment's reservation calendar; a production deployment is a *graph* of
/// segments coupled by store-and-forward gateways, and its correctness
/// questions are compositional: can an event circulate forever? can every
/// promised subscriber actually be reached? does forwarded traffic fit in
/// the bandwidth each segment has left after its HRT reservations? and —
/// the paper's admission question lifted to topologies — does the
/// worst-case latency composed hop-by-hop stay inside each channel's
/// end-to-end deadline? All of it is answered offline, from the topology
/// description plus the per-segment calendar images, exactly as the
/// paper's §3.1 argues HRT admission must be.
///
/// Rule catalog (RTEC-T001..T011), severities and the end-to-end bound
/// derivation: docs/static_analysis.md. CLI front-end: tools/rtec_verify.
/// The differential oracle that cross-checks these bounds against the
/// sharded simulator lives in analysis/oracle.hpp.

namespace rtec::analysis {

struct VerifyOptions {
  /// Warning threshold for the utilization rules (RTEC-T007/T008): above
  /// this fraction of the available bandwidth the budget is legal but has
  /// no engineering margin. Errors always fire at > 1.0.
  double warn_utilization = 0.95;
  /// Run lint_calendar over every provided per-segment calendar image and
  /// merge its findings (tagged with the segment id). Off = topology rules
  /// only (used by tests that target a single T rule).
  bool per_segment_lint = true;
  /// RTEC-T012: run the convolution-based probabilistic engine
  /// (sched/prob_rta) over every route that declares a miss_target and
  /// error when the hop-composed miss probability exceeds it. Opt-in
  /// (`rtec_verify --prob`) so the default report stays byte-identical
  /// for topologies that carry the new keys.
  bool probabilistic = false;
};

/// RTEC-T006: a positive forward latency below this floor still executes
/// correctly but bounds the engine's *per-link* lookahead between the
/// link's endpoint segments so tightly that their epochs degenerate to
/// near-serial execution (under per-link horizons the rest of the
/// topology keeps its own, larger horizons).
inline constexpr Duration kSerialLookaheadFloor = Duration::microseconds(10);

/// Worst-case end-to-end latency bound of one declared route, composed
/// hop-by-hop (docs/static_analysis.md derives it):
///
///   bound = Σ_hops (hop_deadline + Π_segment) + Σ_links forward_latency
///
/// over the unique path the route's bridged-etag forest provides.
struct RouteBound {
  std::size_t route = 0;     ///< index into TopologySpec::routes
  bool computable = false;   ///< path resolved through declared bridges
  Duration bound = Duration::zero();
  std::vector<int> link_ids;     ///< links traversed, in hop order
  std::vector<int> segment_ids;  ///< segments visited, from → to
};

/// Resolves every route's forwarding path and composes its static
/// end-to-end bound. Routes whose path cannot be resolved (structural
/// errors, unreachable destination) come back with computable = false.
[[nodiscard]] std::vector<RouteBound> route_bounds(const TopologyInput& input);

/// Probabilistic analogue of RouteBound: the per-hop transmission-
/// deadline-miss probabilities of one route under each segment's declared
/// fault_rate (sched/prob_rta's conservative busy-window model: worst-case
/// blocker, critical-instant interferers — local SRT streams, every route
/// transiting the segment, and the calendar's reserved share — plus
/// unbounded fault retries truncated at the hop deadline), and their
/// union-bound composition. `tail_epsilon` bounds the probability mass
/// the convolution pruned or truncated; it is *included* in e2e_miss, so
/// the reported number stays a sound upper bound.
struct RouteMiss {
  std::size_t route = 0;      ///< index into TopologySpec::routes
  bool computable = false;    ///< path resolved through declared bridges
  double e2e_miss = 0.0;      ///< 1 − Π (1 − hop_miss), incl. tail_epsilon
  double tail_epsilon = 0.0;  ///< summed pruning/truncation bound
  std::vector<double> hop_miss;  ///< per segment visited, from → to
};

/// Runs the probabilistic engine over every route (independent of any
/// miss_target declarations, so `--prob` can print the numbers even for
/// routes that promise nothing).
[[nodiscard]] std::vector<RouteMiss> route_miss_bounds(
    const TopologyInput& input);

/// Runs the whole RTEC-T rule catalog (plus, by default, the per-segment
/// calendar lint) over a topology. Findings carry the declared segment id,
/// link id and route index they are about.
[[nodiscard]] LintReport verify_topology(const TopologyInput& input,
                                         const VerifyOptions& options = {});

}  // namespace rtec::analysis
