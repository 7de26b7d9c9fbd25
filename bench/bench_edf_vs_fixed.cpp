// E5 — EDF-on-CAN vs static priorities (§3.4 motivation, §4).
//
// "There is a substantial share of aperiodic and sporadic traffic in the
// system which can not adequately be mapped to static priorities."
//
// Identical arrival sequences (6 periodic streams + 1 bursty sporadic
// stream, 25% of the load) are replayed through three schedulers:
//   edf    — the SRT engine: deadline→priority bands with dynamic promotion
//   dm     — deadline-monotonic static priorities (Tindell/Burns)
//   dual   — Davis dual-priority (one promotion to a static high band)
// Sweep: offered load 0.3 .. 1.25 of bus capacity. Metric: fraction of
// messages transmitted by their deadline.

#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/dual_priority.hpp"
#include "baselines/fixed_priority.hpp"
#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "util/random.hpp"

using namespace rtec;
using namespace rtec::literals;

namespace {

constexpr Duration kRun = Duration::seconds(2);

struct Arrival {
  TimePoint at;
  std::size_t stream;
  TimePoint deadline;
};

struct Workload {
  std::vector<StreamSpec> streams;
  std::vector<Arrival> arrivals;
};

/// Builds the stream set for a target load and the concrete arrival trace.
Workload make_workload(double load, std::uint64_t seed) {
  const BusConfig bus;
  // Calibrate offered load with the exact wire time of the frames actually
  // sent (0xAA payload in every scheme), not the worst-case stuffing bound.
  CanFrame representative;
  representative.id = encode_can_id({100, 4, 100});
  representative.dlc = 8;
  representative.data.fill(0xAA);
  const double c_ms =
      frame_duration(representative, bus).ms() +
      bus.bit_time().ms() * kIntermissionBits;

  Workload w;
  // Six periodic streams absorb 75% of the load.
  const double base_inv_sum = 1.0 / 4 + 1.0 / 6 + 1.0 / 8 + 1.0 / 10 +
                              1.0 / 14 + 1.0 / 20;  // per ms
  const double base_u = c_ms * base_inv_sum;
  const double scale = base_u / (0.75 * load);
  const double periods_ms[] = {4, 6, 8, 10, 14, 20};
  for (std::size_t i = 0; i < 6; ++i) {
    StreamSpec s;
    s.id = static_cast<int>(i + 10);
    s.node = static_cast<NodeId>(i + 1);
    s.period = Duration::nanoseconds(
        static_cast<std::int64_t>(periods_ms[i] * scale * 1e6));
    s.deadline = s.period;
    s.dlc = 8;
    w.streams.push_back(s);
  }
  // One sporadic stream (node 7): Poisson bursts of 3, tight 2x-period
  // deadline, 25% of the load.
  StreamSpec sp;
  sp.id = 20;
  sp.node = 7;
  const double burst_rate = 0.25 * load / (3 * c_ms);  // bursts per ms
  sp.period = Duration::nanoseconds(
      static_cast<std::int64_t>(1e6 / burst_rate));  // mean burst gap
  sp.deadline = sp.period * 2 < 4_ms ? sp.period * 2 : 4_ms;
  sp.dlc = 8;
  w.streams.push_back(sp);

  Rng rng{seed};
  for (std::size_t i = 0; i < 6; ++i) {
    const StreamSpec& s = w.streams[i];
    TimePoint t = TimePoint::origin() + Duration::nanoseconds(rng.uniform_int(
                                            0, s.period.ns() - 1));
    while (t < TimePoint::origin() + kRun) {
      w.arrivals.push_back({t, i, t + s.deadline});
      t += s.period;
    }
  }
  {
    TimePoint t = TimePoint::origin();
    while (t < TimePoint::origin() + kRun) {
      t += Duration::nanoseconds(
          static_cast<std::int64_t>(rng.exponential(static_cast<double>(sp.period.ns()))));
      if (t >= TimePoint::origin() + kRun) break;
      for (int b = 0; b < 3; ++b) {
        const TimePoint at = t + Duration::microseconds(5) * b;
        w.arrivals.push_back({at, 6, at + sp.deadline});
      }
    }
  }
  std::sort(w.arrivals.begin(), w.arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
  return w;
}

struct Outcome {
  std::uint64_t offered = 0;
  std::uint64_t by_deadline = 0;
  [[nodiscard]] double miss_ratio() const {
    return offered == 0
               ? 0.0
               : 1.0 - static_cast<double>(by_deadline) /
                           static_cast<double>(offered);
  }
};

Outcome run_edf(const Workload& w, bool with_expiry = false) {
  Scenario scn;
  Node::ClockParams perfect;
  perfect.granularity = 1_ns;
  std::vector<Node*> nodes;
  std::vector<std::unique_ptr<Srtec>> channels;
  for (const StreamSpec& s : w.streams) {
    Node& n = scn.add_node(s.node, perfect);
    nodes.push_back(&n);
    channels.push_back(std::make_unique<Srtec>(n.middleware()));
    (void)channels.back()->announce(
        subject_of("e5/" + std::to_string(s.id)), {}, nullptr);
  }
  for (const Arrival& a : w.arrivals) {
    Srtec* chan = channels[a.stream].get();
    // The paper's validity mechanism: with expiry on, an event is dropped
    // from the send queue the moment its validity (= deadline here) ends —
    // stopping the EDF overload domino at the source.
    const TimePoint expiry =
        with_expiry ? a.deadline : a.deadline + Duration::seconds(10);
    scn.sim().schedule_at(a.at, [chan, a, expiry] {
      Event e;
      e.content.assign(8, 0xAA);  // same frame length as the baselines
      e.attributes.deadline = a.deadline;
      e.attributes.expiration = expiry;
      (void)chan->publish(std::move(e));
    });
  }
  scn.run_for(kRun + Duration::seconds(1));  // drain
  Outcome o;
  o.offered = w.arrivals.size();
  for (Node* n : nodes)
    o.by_deadline += n->middleware().srt().counters().sent_by_deadline;
  return o;
}

Outcome run_dm(const Workload& w) {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  const auto assignment = deadline_monotonic_assignment(w.streams);
  // priority per original stream index
  std::vector<Priority> prio(w.streams.size());
  for (const auto& pa : assignment)
    for (std::size_t i = 0; i < w.streams.size(); ++i)
      if (w.streams[i].id == pa.stream.id) prio[i] = pa.priority;

  std::vector<std::unique_ptr<CanController>> ctls;
  std::vector<std::unique_ptr<StaticPrioritySender>> senders;
  for (const StreamSpec& s : w.streams) {
    ctls.push_back(std::make_unique<CanController>(sim, s.node));
    bus.attach(*ctls.back());
    senders.push_back(std::make_unique<StaticPrioritySender>(sim, *ctls.back()));
  }
  for (const Arrival& a : w.arrivals) {
    StaticPrioritySender* snd = senders[a.stream].get();
    const StreamSpec spec = w.streams[a.stream];
    const Priority p = prio[a.stream];
    sim.schedule_at(a.at,
                    [snd, spec, p, a, &sim] { snd->queue(spec, p, a.deadline, sim.now()); });
  }
  sim.run_until(TimePoint::origin() + kRun + Duration::seconds(1));
  Outcome o;
  o.offered = w.arrivals.size();
  for (const auto& s : senders) o.by_deadline += s->outcome().sent_by_deadline;
  return o;
}

Outcome run_dual(const Workload& w) {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  const auto assignment = deadline_monotonic_assignment(w.streams);
  std::vector<std::uint8_t> rank(w.streams.size());
  std::vector<std::optional<Duration>> rta =
      response_time_analysis(assignment, bus.config());
  std::vector<Duration> lead(w.streams.size());
  for (std::size_t r = 0; r < assignment.size(); ++r)
    for (std::size_t i = 0; i < w.streams.size(); ++i)
      if (w.streams[i].id == assignment[r].stream.id) {
        rank[i] = static_cast<std::uint8_t>(r);
        // Davis: promote at deadline - R_high; fall back to D/2 when the
        // static analysis already fails.
        lead[i] = rta[r].value_or(w.streams[i].deadline / 2);
      }

  std::vector<std::unique_ptr<CanController>> ctls;
  std::vector<std::unique_ptr<DualPrioritySender>> senders;
  for (const StreamSpec& s : w.streams) {
    ctls.push_back(std::make_unique<CanController>(sim, s.node));
    bus.attach(*ctls.back());
    senders.push_back(std::make_unique<DualPrioritySender>(sim, *ctls.back()));
  }
  for (const Arrival& a : w.arrivals) {
    DualPrioritySender* snd = senders[a.stream].get();
    const StreamSpec spec = w.streams[a.stream];
    const std::uint8_t r = rank[a.stream];
    const Duration ld = lead[a.stream];
    sim.schedule_at(a.at, [snd, spec, r, ld, a] {
      snd->queue(spec.node, static_cast<Etag>(spec.id), r, spec.dlc,
                 a.deadline, ld);
    });
  }
  sim.run_until(TimePoint::origin() + kRun + Duration::seconds(1));
  Outcome o;
  o.offered = w.arrivals.size();
  for (const auto& s : senders) o.by_deadline += s->outcome().sent_by_deadline;
  return o;
}

}  // namespace

int main() {
  // RTEC_BENCH_QUICK=1: three loads (light, near saturation, overload).
  const bool quick = bench::quick_mode();
  bench::title("E5", "deadline miss ratio: EDF vs deadline-monotonic vs dual-priority");
  bench::note("6 periodic + 1 bursty sporadic stream (25%% of load), 2 s per point,");
  bench::note("identical arrival traces for all three schedulers");

  bench::BenchJson bj{"edf_vs_fixed"};
  bj.meta("generated_by", "bench_edf_vs_fixed");
  bj.meta("threads", static_cast<double>(bench::sweep_threads()));
  if (quick) bj.meta("mode", "quick");

  const std::vector<double> loads =
      quick ? std::vector<double>{0.3, 0.95, 1.25}
            : std::vector<double>{0.3, 0.5, 0.7, 0.85, 0.95, 1.05, 1.25};
  struct LoadRow {
    Outcome edf, edfx, dm, dual;
    bool dm_feasible = false;
  };
  // Each load point replays its own arrival trace through all four
  // schedulers on private simulators — share-nothing, so points sweep in
  // parallel.
  const std::vector<LoadRow> rows =
      bench::sweep(loads.size(), [&](std::size_t i) {
        const Workload w = make_workload(loads[i], 4242);
        return LoadRow{run_edf(w), run_edf(w, /*with_expiry=*/true), run_dm(w),
                       run_dual(w),
                       feasible(deadline_monotonic_assignment(w.streams),
                                BusConfig{})};
      });

  std::printf("\n  %-7s %-9s %-11s %-12s %-11s %-11s %s\n", "load", "offered",
              "edf miss", "edf+expiry", "dm miss", "dual miss",
              "dm feasible (RTA)");
  bench::rule();
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const LoadRow& r = rows[i];
    std::printf("  %-7.2f %-9llu %-11.4f %-12.4f %-11.4f %-11.4f %s\n",
                loads[i], static_cast<unsigned long long>(r.edf.offered),
                r.edf.miss_ratio(), r.edfx.miss_ratio(), r.dm.miss_ratio(),
                r.dual.miss_ratio(), r.dm_feasible ? "yes" : "no");
    bj.row({{"load", loads[i]},
            {"edf_miss", r.edf.miss_ratio()},
            {"edf_expiry_miss", r.edfx.miss_ratio()},
            {"dm_miss", r.dm.miss_ratio()},
            {"dual_miss", r.dual.miss_ratio()},
            {"offered", static_cast<double>(r.edf.offered)}});
  }
  bench::rule();
  if (!bj.write())
    bench::note("warning: could not write BENCH_edf_vs_fixed.json");
  bench::note("edf+expiry — the paper's actual SRT design (every SRTEC event");
  bench::note("carries a validity interval) — misses least at every load up to");
  bench::note("deep overload. Plain EDF (no expiry) shows the classic");
  bench::note("non-preemptive-EDF domino once transient overload appears, which");
  bench::note("is precisely why §2.2.2 pairs deadlines with expiration times.");
  bench::note("DM only catches up in deep permanent overload, where it protects");
  bench::note("its high-priority streams by starving the rest — and its RTA");
  bench::note("already declared the set infeasible there.");
  return 0;
}
