#include "analysis/verify.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/lint.hpp"
#include "canbus/frame.hpp"
#include "sched/srt_analysis.hpp"
#include "sched/wctt.hpp"

namespace rtec::analysis {

namespace {

std::string ns_text(std::int64_t ns) { return std::to_string(ns) + " ns"; }

std::string pct_text(double fraction) {
  std::ostringstream out;
  out << static_cast<int>(fraction * 100) << "%";
  return out.str();
}

/// Structurally resolved topology: the subset of the declaration the graph
/// rules can trust. Built silently — verify_topology re-derives every
/// exclusion as an RTEC-T001 finding; route_bounds() only needs the facts.
struct Resolved {
  std::set<int> segments;                 ///< declared ids, duplicates once
  std::vector<const LinkSpec*> links;     ///< unique id, valid distinct endpoints
  std::map<Etag, std::vector<const LinkSpec*>> edges;  ///< per bridged etag
};

Resolved resolve(const TopologySpec& spec) {
  Resolved r;
  for (const SegmentSpec& s : spec.segments) r.segments.insert(s.id);

  std::map<int, int> link_decls;
  for (const LinkSpec& l : spec.links) ++link_decls[l.id];
  for (const LinkSpec& l : spec.links) {
    if (link_decls[l.id] != 1) continue;
    if (l.a == l.b) continue;
    if (!r.segments.contains(l.a) || !r.segments.contains(l.b)) continue;
    r.links.push_back(&l);
  }

  std::set<std::pair<int, Etag>> seen_bridges;
  for (const BridgeSpec& b : spec.bridges) {
    if (!seen_bridges.insert({b.link, b.etag}).second) continue;
    const auto it = std::find_if(
        r.links.begin(), r.links.end(),
        [&](const LinkSpec* l) { return l->id == b.link; });
    if (it == r.links.end()) continue;
    r.edges[b.etag].push_back(*it);
  }
  return r;
}

/// Worst-case wire time of one stream/route frame on a segment's bus (the
/// identifiers of sched/id_codec are 29-bit, so frames are extended).
Duration frame_cost(int dlc, const BusConfig& bus) {
  return worst_case_frame_duration(dlc, /*extended=*/true, bus);
}

/// The calendar-image facts the quantitative rules need. nullopt when the
/// image's config is unusable (RTEC-C009 territory — the per-segment lint
/// reports it; the bandwidth rules then stay silent rather than divide by
/// a zero bit time).
struct SegmentBudget {
  BusConfig bus;
  Duration round = Duration::zero();   ///< zero = no calendar provided
  double hrt_fraction = 0.0;           ///< reserved windows + gaps / round
};

std::optional<SegmentBudget> segment_budget(const TopologyInput& input,
                                            int segment_id) {
  SegmentBudget budget;
  const auto it = input.calendars.find(segment_id);
  if (it == input.calendars.end()) return budget;  // defaults: no HRT share

  const CalendarImage& image = it->second;
  if (image.config.round_length <= Duration::zero() ||
      image.config.bus.bitrate_bps <= 0 ||
      image.config.bus.bitrate_bps > 1'000'000'000)
    return std::nullopt;

  budget.bus = image.config.bus;
  budget.round = image.config.round_length;
  const Duration t_wait = max_blocking_time(image.config.bus);
  double reserved_ns = 0;
  for (const ImageSlot& slot : image.slots) {
    const SlotSpec& s = slot.spec;
    if (s.dlc < 0 || s.dlc > 8 || s.fault.omission_degree < 0 ||
        s.fault.omission_degree > kMaxOmissionDegree)
      continue;  // RTEC-C010: window undefined, lint reports it
    const Duration window = t_wait + hrt_wctt(s.dlc, s.fault, image.config.bus);
    reserved_ns += static_cast<double>((window + image.config.gap).ns());
  }
  budget.hrt_fraction =
      reserved_ns / static_cast<double>(image.config.round_length.ns());
  return budget;
}

Duration precision_of(const TopologySpec& spec, int segment_id) {
  const SegmentSpec* s = spec.segment_by_id(segment_id);
  return (s != nullptr && s->precision) ? *s->precision : Duration::zero();
}

/// BFS through one etag's bridge edges; returns the hop path from → to as
/// (segment ids visited, link specs traversed), or nullopt if unreachable.
struct Path {
  std::vector<int> segments;
  std::vector<const LinkSpec*> links;
};

std::optional<Path> find_path(const Resolved& r, Etag etag, int from, int to) {
  if (!r.segments.contains(from) || !r.segments.contains(to) || from == to)
    return std::nullopt;
  const auto edges_it = r.edges.find(etag);
  if (edges_it == r.edges.end()) return std::nullopt;

  std::map<int, std::pair<int, const LinkSpec*>> parent;  // seg -> (prev, via)
  std::deque<int> frontier{from};
  parent[from] = {from, nullptr};
  while (!frontier.empty()) {
    const int seg = frontier.front();
    frontier.pop_front();
    if (seg == to) break;
    for (const LinkSpec* l : edges_it->second) {
      const int next = l->a == seg ? l->b : (l->b == seg ? l->a : seg);
      if (next == seg || parent.contains(next)) continue;
      parent[next] = {seg, l};
      frontier.push_back(next);
    }
  }
  if (!parent.contains(to)) return std::nullopt;

  Path path;
  for (int seg = to; seg != from; seg = parent[seg].first) {
    path.segments.push_back(seg);
    path.links.push_back(parent[seg].second);
  }
  path.segments.push_back(from);
  std::reverse(path.segments.begin(), path.segments.end());
  std::reverse(path.links.begin(), path.links.end());
  return path;
}

RouteBound compose_bound(const TopologyInput& input, const Resolved& r,
                         std::size_t route_index) {
  const RouteSpec& route = input.spec.routes[route_index];
  RouteBound out;
  out.route = route_index;
  const auto path = find_path(r, route.etag, route.from, route.to);
  if (!path) return out;

  // docs/static_analysis.md, "End-to-end bound": on every segment of the
  // path the event is (re-)published with transmission deadline
  // hop_deadline on a local clock that may disagree with its segment's
  // peers by up to Π; every gateway hop then adds its deterministic
  // store-and-forward latency exactly. Every term is non-negative, and the
  // parser admits precisions up to INT64_MAX ns, so the sum saturates at
  // Duration::max() (which exceeds any declared deadline) instead of
  // wrapping to a negative bound that T009 would accept.
  Duration bound = Duration::zero();
  const auto add = [&bound](Duration term) {
    bound = term > Duration::max() - bound ? Duration::max() : bound + term;
  };
  for (const int seg : path->segments) {
    add(route.hop_deadline);
    add(precision_of(input.spec, seg));
    out.segment_ids.push_back(seg);
  }
  for (const LinkSpec* l : path->links) {
    add(l->latency);
    out.link_ids.push_back(l->id);
  }
  out.bound = bound;
  out.computable = true;
  return out;
}

}  // namespace

std::vector<RouteBound> route_bounds(const TopologyInput& input) {
  const Resolved r = resolve(input.spec);
  std::vector<RouteBound> bounds;
  bounds.reserve(input.spec.routes.size());
  for (std::size_t i = 0; i < input.spec.routes.size(); ++i)
    bounds.push_back(compose_bound(input, r, i));
  return bounds;
}

std::vector<RouteMiss> route_miss_bounds(const TopologyInput& input) {
  const TopologySpec& spec = input.spec;
  const Resolved resolved = resolve(spec);

  std::vector<std::optional<Path>> paths;
  paths.reserve(spec.routes.size());
  for (const RouteSpec& route : spec.routes)
    paths.push_back(find_path(resolved, route.etag, route.from, route.to));

  std::map<int, std::optional<SegmentBudget>> budgets;
  for (const int seg : resolved.segments)
    budgets[seg] = segment_budget(input, seg);

  std::vector<RouteMiss> out;
  out.reserve(spec.routes.size());
  for (std::size_t i = 0; i < spec.routes.size(); ++i) {
    RouteMiss rm;
    rm.route = i;
    if (!paths[i]) {
      out.push_back(std::move(rm));
      continue;
    }
    rm.computable = true;
    const RouteSpec& route = spec.routes[i];
    for (const int seg : paths[i]->segments) {
      const auto& budget = budgets[seg];
      const BusConfig bus = budget ? budget->bus : BusConfig{};
      const SegmentSpec* sspec = spec.segment_by_id(seg);

      HopQuery query;
      query.frame_bits = worst_case_wire_bits(route.dlc, /*extended=*/true);
      query.blocking_bits = duration_to_bits(max_blocking_time(bus), bus);
      query.deadline_bits = duration_to_bits(route.hop_deadline, bus);
      query.faults.p = sspec != nullptr ? sspec->fault_rate : 0.0;

      // Competitors under the conservative model: every declared local SRT
      // stream, every other route transiting this segment, and the HRT
      // calendar's reserved share (one worst-case burst per round).
      for (const TopologyStream& ts : spec.streams) {
        if (ts.segment != seg || ts.stream.traffic != TrafficClass::kSrt)
          continue;
        if (ts.stream.period <= Duration::zero()) continue;
        query.interferers.push_back(
            {worst_case_wire_bits(ts.stream.dlc, /*extended=*/true),
             duration_to_bits(ts.stream.period, bus)});
      }
      for (std::size_t j = 0; j < spec.routes.size(); ++j) {
        if (j == i || !paths[j]) continue;
        const auto& other_segs = paths[j]->segments;
        if (std::find(other_segs.begin(), other_segs.end(), seg) ==
            other_segs.end())
          continue;
        query.interferers.push_back(
            {worst_case_wire_bits(spec.routes[j].dlc, /*extended=*/true),
             duration_to_bits(spec.routes[j].period, bus)});
      }
      if (budget && budget->round > Duration::zero() &&
          budget->hrt_fraction > 0.0) {
        const auto round_bits = duration_to_bits(budget->round, bus);
        const double share =
            std::min(1.0, budget->hrt_fraction) * static_cast<double>(round_bits);
        query.interferers.push_back(
            {static_cast<int>(std::min<double>(share + 1.0, 1e9)), round_bits});
      }

      const ResponseDistribution hop = hop_response_distribution(query);
      rm.hop_miss.push_back(hop.miss_probability);
      rm.tail_epsilon += hop.tail_epsilon;
    }
    rm.e2e_miss = compose_route_miss(rm.hop_miss);
    out.push_back(std::move(rm));
  }
  return out;
}

LintReport verify_topology(const TopologyInput& input,
                           const VerifyOptions& options) {
  const TopologySpec& spec = input.spec;
  LintReport report;

  const auto add = [&](Rule rule, Severity severity, std::string msg,
                       int segment = -1, int link = -1, int route = -1,
                       int line = 0) {
    Finding f;
    f.rule = rule;
    f.severity = severity;
    f.message = std::move(msg);
    f.segment = segment;
    f.link = link;
    f.route = route;
    f.line = line;
    report.add(std::move(f));
  };

  // --- T001: structural validity of the declaration ---------------------
  if (spec.segments.empty())
    add(Rule::kTopologyConfig, Severity::kError,
        "topology declares no segments");
  std::set<int> seg_ids;
  for (const SegmentSpec& s : spec.segments) {
    if (!seg_ids.insert(s.id).second)
      add(Rule::kTopologyConfig, Severity::kError,
          "segment id " + std::to_string(s.id) + " declared twice", s.id, -1,
          -1, s.line);
  }
  std::map<int, int> link_decls;
  for (const LinkSpec& l : spec.links) ++link_decls[l.id];
  std::set<int> dup_links_reported;
  for (const LinkSpec& l : spec.links) {
    if (link_decls[l.id] > 1 && dup_links_reported.insert(l.id).second)
      add(Rule::kTopologyConfig, Severity::kError,
          "link id " + std::to_string(l.id) + " declared " +
              std::to_string(link_decls[l.id]) + " times",
          -1, l.id, -1, l.line);
    if (l.a == l.b)
      add(Rule::kTopologyConfig, Severity::kError,
          "link connects segment " + std::to_string(l.a) + " to itself", l.a,
          l.id, -1, l.line);
    for (const int end : {l.a, l.b})
      if (!seg_ids.contains(end))
        add(Rule::kTopologyConfig, Severity::kError,
            "link endpoint references undeclared segment " +
                std::to_string(end),
            end, l.id, -1, l.line);
  }
  std::set<std::pair<int, Etag>> seen_bridges;
  for (const BridgeSpec& b : spec.bridges) {
    if (spec.link_by_id(b.link) == nullptr && link_decls[b.link] <= 1)
      add(Rule::kTopologyConfig, Severity::kError,
          "bridge references undeclared link " + std::to_string(b.link), -1,
          b.link, -1, b.line);
    if (!seen_bridges.insert({b.link, b.etag}).second)
      add(Rule::kTopologyConfig, Severity::kError,
          "etag " + std::to_string(b.etag) + " bridged twice on link " +
              std::to_string(b.link) +
              " — the gateway would forward every event twice",
          -1, b.link, -1, b.line);
  }
  for (std::size_t i = 0; i < spec.routes.size(); ++i) {
    const RouteSpec& route = spec.routes[i];
    for (const int end : {route.from, route.to})
      if (!seg_ids.contains(end))
        add(Rule::kTopologyConfig, Severity::kError,
            "route endpoint references undeclared segment " +
                std::to_string(end),
            end, -1, static_cast<int>(i), route.line);
    if (route.from == route.to)
      add(Rule::kTopologyConfig, Severity::kError,
          "route from and to are the same segment — a local channel needs "
          "no gateway and no end-to-end bound",
          route.from, -1, static_cast<int>(i), route.line);
  }
  for (const TopologyStream& ts : spec.streams)
    if (!seg_ids.contains(ts.segment))
      add(Rule::kTopologyConfig, Severity::kError,
          "stream references undeclared segment " +
              std::to_string(ts.segment),
          ts.segment, -1, -1, ts.stream.line);
  for (const auto& [seg, image] : input.calendars) {
    (void)image;
    if (!seg_ids.contains(seg))
      add(Rule::kTopologyConfig, Severity::kWarning,
          "calendar provided for undeclared segment " + std::to_string(seg),
          seg);
  }

  // --- per-segment calendar lint (C-series, tagged with the segment) ----
  if (options.per_segment_lint) {
    for (const SegmentSpec& s : spec.segments) {
      const auto it = input.calendars.find(s.id);
      if (it == input.calendars.end()) continue;
      LintOptions lint_options;
      lint_options.clock_precision = s.precision;
      LintReport seg_report = lint_calendar(it->second, lint_options);
      for (Finding& f : seg_report.findings) {
        f.segment = s.id;
        report.add(std::move(f));
      }
    }
  }

  const Resolved resolved = resolve(spec);

  // --- T002: a bridged etag's link set must be a forest ------------------
  // Gateways re-publish on the far segment, where the next gateway's
  // subscriber picks the event up again; on a cyclic link set (including
  // two parallel links) every instance circulates forever.
  for (const auto& [etag, edges] : resolved.edges) {
    std::map<int, int> dsu;  // segment -> representative
    std::function<int(int)> find = [&](int x) {
      auto it = dsu.find(x);
      if (it == dsu.end()) { dsu[x] = x; return x; }
      if (it->second == x) return x;
      return it->second = find(it->second);
    };
    for (const LinkSpec* l : edges) {
      const int ra = find(l->a);
      const int rb = find(l->b);
      if (ra == rb) {
        add(Rule::kRoutingCycle, Severity::kError,
            "etag " + std::to_string(etag) +
                "'s bridges form a forwarding loop closed by this link — "
                "every event on the etag circulates forever",
            -1, l->id, -1, l->line);
        continue;
      }
      dsu[ra] = rb;
    }
  }

  // --- T004: cross-segment event-tag clashes -----------------------------
  // Everything a bridged etag's component can see shares that tag: an HRT
  // reservation or a local stream on the same etag anywhere in the
  // component is indistinguishable from the forwarded traffic (hardware
  // filters match the etag alone — RTEC-S104's argument, lifted across
  // gateways).
  for (const auto& [etag, edges] : resolved.edges) {
    std::set<int> component;
    for (const LinkSpec* l : edges) {
      component.insert(l->a);
      component.insert(l->b);
    }
    if (etag < kFirstApplicationEtag) {
      add(Rule::kEtagClash, Severity::kWarning,
          "bridging infrastructure etag " + std::to_string(etag) +
              " — sync/binding traffic is segment-local by design",
          -1, edges.front()->id, -1, edges.front()->line);
    }
    for (const int seg : component) {
      const auto cal = input.calendars.find(seg);
      if (cal != input.calendars.end()) {
        for (std::size_t slot = 0; slot < cal->second.slots.size(); ++slot)
          if (cal->second.slots[slot].spec.etag == etag)
            add(Rule::kEtagClash, Severity::kError,
                "bridged etag " + std::to_string(etag) +
                    " collides with an HRT reservation (slot " +
                    std::to_string(slot) +
                    ") — forwarded SRT frames are indistinguishable from "
                    "the reserved channel",
                seg);
      }
      for (const TopologyStream& ts : spec.streams)
        if (ts.segment == seg && ts.stream.etag == etag)
          add(Rule::kEtagClash, Severity::kError,
              "bridged etag " + std::to_string(etag) +
                  " collides with a declared local stream — two unrelated "
                  "event sources share one tag",
              seg, -1, -1, ts.stream.line);
    }
  }

  // --- T005: clock-precision consistency across each link ----------------
  for (const LinkSpec* l : resolved.links) {
    const SegmentSpec* sa = spec.segment_by_id(l->a);
    const SegmentSpec* sb = spec.segment_by_id(l->b);
    const bool have_a = sa != nullptr && sa->precision.has_value();
    const bool have_b = sb != nullptr && sb->precision.has_value();
    if (have_a != have_b) {
      add(Rule::kPrecisionMismatch, Severity::kWarning,
          "segment " + std::to_string(have_a ? l->b : l->a) +
              " declares no clock precision while its link peer does — "
              "cross-segment skew across this gateway is unbounded",
          have_a ? l->b : l->a, l->id, -1, l->line);
    } else if (have_a && have_b) {
      const Duration worst = std::max(*sa->precision, *sb->precision);
      if (l->latency < worst)
        add(Rule::kPrecisionMismatch, Severity::kError,
            "forward latency " + ns_text(l->latency.ns()) +
                " is below the worst clock disagreement " +
                ns_text(worst.ns()) +
                " of its endpoint segments — a release stamp computed on "
                "one timeline is meaningless on the other at this "
                "granularity",
            -1, l->id, -1, l->line);
    }
  }

  // --- T006: forward latency vs the engine's per-link lookahead ----------
  // The conservative engine computes each shard's horizon from its
  // *incoming* links only (per-link lookahead, sim/shard_engine.hpp), so
  // a sub-floor latency no longer throttles the whole topology — it
  // serializes epochs between the link's two endpoint segments, and the
  // warning is scoped accordingly. Zero stays a structural error: the
  // coordinator's progress argument needs strictly positive lookahead on
  // every cross-shard channel, whichever horizon policy is active.
  for (const LinkSpec* l : resolved.links) {
    if (l->latency <= Duration::zero())
      add(Rule::kSerialLookahead, Severity::kError,
          "zero forward latency: the conservative shard engine requires "
          "positive lookahead (a cross-shard handoff channel with zero "
          "latency stalls every epoch)",
          -1, l->id, -1, l->line);
    else if (l->latency < kSerialLookaheadFloor)
      add(Rule::kSerialLookahead, Severity::kWarning,
          "forward latency " + ns_text(l->latency.ns()) +
              " bounds the per-link lookahead between segments " +
              std::to_string(l->a) + " and " + std::to_string(l->b) +
              " below " + ns_text(kSerialLookaheadFloor.ns()) +
              " — their epochs degenerate to near-serial execution (the "
              "rest of the topology is unaffected under per-link horizons)",
          -1, l->id, -1, l->line);
  }

  // --- route paths: T003 reachability + T009 end-to-end bounds -----------
  std::vector<RouteBound> bounds;
  bounds.reserve(spec.routes.size());
  for (std::size_t i = 0; i < spec.routes.size(); ++i)
    bounds.push_back(compose_bound(input, resolved, i));

  for (std::size_t i = 0; i < spec.routes.size(); ++i) {
    const RouteSpec& route = spec.routes[i];
    const RouteBound& rb = bounds[i];
    const bool endpoints_ok = seg_ids.contains(route.from) &&
                              seg_ids.contains(route.to) &&
                              route.from != route.to;
    if (!endpoints_ok) continue;  // RTEC-T001 already reported
    if (!rb.computable) {
      add(Rule::kUnreachableSubscriber, Severity::kError,
          "subscribers on segment " + std::to_string(route.to) +
              " can never receive etag " + std::to_string(route.etag) +
              " published on segment " + std::to_string(route.from) +
              " — no chain of gateways bridges it",
          route.to, -1, static_cast<int>(i), route.line);
      continue;
    }
    if (rb.bound > route.e2e_deadline) {
      std::ostringstream msg;
      msg << "composed worst-case end-to-end latency "
          << ns_text(rb.bound.ns()) << " exceeds the declared deadline "
          << ns_text(route.e2e_deadline.ns()) << " over "
          << rb.segment_ids.size() << " segments / " << rb.link_ids.size()
          << " gateway hops (per hop: transmission deadline "
          << ns_text(route.hop_deadline.ns())
          << " + clock precision, plus each gateway's forward latency)";
      add(Rule::kE2eDeadline, Severity::kError, msg.str(), -1, -1,
          static_cast<int>(i), route.line);
    }
  }

  // --- T012: probabilistic end-to-end miss budget (opt-in) ---------------
  // The worst-case rules above assume the fault budget holds; this rule
  // prices the assumption itself: under each segment's declared per-attempt
  // fault_rate, the convolution engine's (conservative) per-hop deadline-
  // miss probabilities compose by union bound and must stay inside the
  // route's declared miss_target.
  if (options.probabilistic) {
    for (const RouteMiss& rm : route_miss_bounds(input)) {
      const RouteSpec& route = spec.routes[rm.route];
      if (!rm.computable || !route.miss_target) continue;
      if (rm.e2e_miss > *route.miss_target) {
        std::ostringstream msg;
        msg << "hop-composed deadline-miss probability " << rm.e2e_miss
            << " exceeds the declared per-instance target "
            << *route.miss_target << " over " << rm.hop_miss.size()
            << " hop(s) (conservative busy-window model under each "
               "segment's fault_rate; includes the convolution tail bound "
            << rm.tail_epsilon << ")";
        add(Rule::kProbE2eMiss, Severity::kError, msg.str(), -1, -1,
            static_cast<int>(rm.route), route.line);
      }
    }
  }

  // --- quantitative budgets: T007 segments, T008 gateway directions ------
  std::map<int, std::optional<SegmentBudget>> budgets;
  for (const int seg : seg_ids) budgets[seg] = segment_budget(input, seg);

  // Transit demand per segment and per link direction, from the resolved
  // route paths. Keyed by (link id, toward-b?) for directions.
  std::map<int, double> transit_util;
  std::map<std::pair<int, bool>, double> direction_util;
  std::map<std::pair<int, bool>, int> direction_routes;
  for (const RouteBound& rb : bounds) {
    if (!rb.computable) continue;
    const RouteSpec& route = spec.routes[rb.route];
    for (std::size_t hop = 0; hop < rb.segment_ids.size(); ++hop) {
      const int seg = rb.segment_ids[hop];
      const auto& budget = budgets[seg];
      const BusConfig bus = budget ? budget->bus : BusConfig{};
      const double cost =
          static_cast<double>(frame_cost(route.dlc, bus).ns()) /
          static_cast<double>(route.period.ns());
      transit_util[seg] += cost;
      if (hop > 0) {
        const LinkSpec* l = *std::find_if(
            resolved.links.begin(), resolved.links.end(),
            [&](const LinkSpec* cand) {
              return cand->id == rb.link_ids[hop - 1];
            });
        const bool toward_b = l->b == seg;
        direction_util[{l->id, toward_b}] += cost;
        ++direction_routes[{l->id, toward_b}];
      }
    }
  }

  for (const int seg : seg_ids) {
    const auto& budget = budgets[seg];
    if (!budget) continue;  // unusable calendar config: C009 reported
    const BusConfig bus = budget->bus;
    double stream_util = 0;
    for (const TopologyStream& ts : spec.streams) {
      if (ts.segment != seg || ts.stream.traffic != TrafficClass::kSrt)
        continue;
      if (ts.stream.period <= Duration::zero()) continue;
      stream_util += static_cast<double>(
                         frame_cost(ts.stream.dlc, bus).ns()) /
                     static_cast<double>(ts.stream.period.ns());
    }
    const double total =
        budget->hrt_fraction + stream_util + transit_util[seg];
    if (total > 1.0 || total > options.warn_utilization) {
      std::ostringstream msg;
      msg << "segment demand " << pct_text(total)
          << " of the bus (HRT reserved " << pct_text(budget->hrt_fraction)
          << ", local SRT " << pct_text(stream_util) << ", forwarded "
          << pct_text(transit_util[seg]) << ")"
          << (total > 1.0 ? " — no schedule exists"
                          : " leaves no engineering margin");
      add(Rule::kSegmentOverload,
          total > 1.0 ? Severity::kError : Severity::kWarning, msg.str(),
          seg);
    }
  }

  for (const auto& [key, demand] : direction_util) {
    const auto& [link_id, toward_b] = key;
    const LinkSpec* l = *std::find_if(
        resolved.links.begin(), resolved.links.end(),
        [&](const LinkSpec* cand) { return cand->id == link_id; });
    const int dest = toward_b ? l->b : l->a;
    const auto& budget = budgets[dest];
    if (!budget) continue;
    // Forwarded traffic is SRT: it lives in the share of the destination
    // bus the HRT calendar leaves unreserved.
    const double capacity = std::max(0.0, 1.0 - budget->hrt_fraction);
    if (demand > capacity || demand > options.warn_utilization * capacity) {
      std::ostringstream msg;
      msg << "forwarded demand toward segment " << dest << " ("
          << direction_routes[key] << " route(s), " << pct_text(demand)
          << " of the bus) "
          << (demand > capacity ? "exceeds" : "nearly exhausts")
          << " the non-reserved share " << pct_text(capacity)
          << " the destination calendar leaves";
      add(Rule::kGatewayOverload,
          demand > capacity ? Severity::kError : Severity::kWarning,
          msg.str(), dest, link_id);
    }
  }

  // --- T010: per-segment EDF feasibility of the composed SRT set ---------
  // Local streams plus every route that transits the segment, each with
  // its per-hop transmission deadline, against the segment's reserved
  // calendar. The demand-bound test is sufficient, not necessary, so a
  // rejection warns (the differential oracle is the empirical follow-up).
  for (const int seg : seg_ids) {
    const auto& budget = budgets[seg];
    if (!budget) continue;
    SrtAnalysisInput edf;
    edf.bus = budget->bus;
    for (const TopologyStream& ts : spec.streams) {
      if (ts.segment != seg || ts.stream.traffic != TrafficClass::kSrt)
        continue;
      SrtStreamSpec s;
      s.id = static_cast<int>(edf.streams.size());
      s.period = ts.stream.period;
      s.deadline = ts.stream.deadline;
      s.dlc = ts.stream.dlc;
      edf.streams.push_back(s);
    }
    for (const RouteBound& rb : bounds) {
      if (!rb.computable) continue;
      const RouteSpec& route = spec.routes[rb.route];
      if (std::find(rb.segment_ids.begin(), rb.segment_ids.end(), seg) ==
          rb.segment_ids.end())
        continue;
      SrtStreamSpec s;
      s.id = static_cast<int>(edf.streams.size());
      s.period = route.period;
      s.deadline = std::min(route.hop_deadline, route.period);
      s.dlc = route.dlc;
      edf.streams.push_back(s);
    }
    if (edf.streams.empty()) continue;

    std::optional<Calendar> calendar;
    const auto cal_it = input.calendars.find(seg);
    if (cal_it != input.calendars.end()) {
      calendar.emplace(cal_it->second.config);
      for (const ImageSlot& slot : cal_it->second.slots)
        (void)calendar->reserve(slot.spec);
      edf.calendar = &*calendar;
    }
    if (const auto verdict = srt_edf_feasibility(edf))
      add(Rule::kHopInfeasible, Severity::kWarning,
          "composed SRT set (local streams + transiting routes) fails the "
          "(sufficient) EDF demand-bound test: " +
              verdict->detail,
          seg);
  }

  return report;
}

}  // namespace rtec::analysis
