// E2 — HRT guarantees under omission faults (§3.2, Livani/Kaiser [16]).
//
// Table 1: analysis vs. simulation. For each (DLC, omission degree k) the
// analytic WCTT bound is compared against the worst observed latency
// (ready → successful end-of-frame) under an adversarial fault script that
// corrupts exactly the first k attempts of every message AND an
// adversarial worst-length blocker. The bound must dominate, and be tight
// to within the stuffing slack.
//
// Table 2: random omission faults. Sweep fault probability p and the
// channel's provisioned omission degree k; report per-instance failure
// rate. Expect: failures only when more than k consecutive corruptions
// hit one message — i.e. ~p^(k+1) — while provisioned channels ride
// through everything else with zero deadline misses.

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "core/hrtec.hpp"
#include "core/scenario.hpp"
#include "util/task_pool.hpp"

using namespace rtec;
using namespace rtec::literals;

namespace {

Node::ClockParams perfect() {
  Node::ClockParams p;
  p.granularity = 1_ns;
  return p;
}

/// Worst observed ready->completion latency over `rounds` instances with
/// exactly k corruptions per message plus a worst-case blocker.
Duration adversarial_latency(int dlc, int k, int rounds) {
  Scenario::Config cfg;
  cfg.calendar.round_length = 10_ms;
  Scenario scn{cfg};
  Node& pub_node = scn.add_node(1, perfect());
  scn.add_node(2, perfect());
  Node& adversary = scn.add_node(9, perfect());

  const Subject subject = subject_of("e2/hrt");
  SlotSpec slot;
  slot.lst_offset = 2_ms;
  slot.dlc = dlc;
  slot.fault.omission_degree = k;
  slot.etag = *scn.binding().bind(subject);
  slot.publisher = pub_node.id();
  const std::size_t slot_index = *scn.calendar().reserve(slot);

  auto faults = std::make_unique<ScriptedFaults>();
  auto counter = std::make_shared<int>(0);
  faults->add_rule([counter, k](const FaultContext& ctx) {
    if (id_priority(ctx.frame.id) != kHrtPriority) return false;
    // Corrupt attempts 1..k of each message, at the LAST bit (worst case).
    return (*counter)++ % (k + 1) < k;
  });
  scn.set_fault_model(std::move(faults));

  Hrtec pub{pub_node.middleware()};
  (void)pub.announce(subject, {}, nullptr);

  Duration worst = Duration::zero();
  TimePoint window_ready;
  scn.bus().add_observer([&](const CanBus::FrameEvent& ev) {
    if (id_priority(ev.frame.id) == kHrtPriority && ev.success) {
      const Duration latency = ev.end - window_ready;
      if (latency > worst) worst = latency;
    }
  });

  for (int r = 0; r < rounds; ++r) {
    const Calendar::Instance inst = scn.calendar().instance_at_or_after(
        slot_index, TimePoint::origin() + cfg.calendar.round_length * r);
    window_ready = inst.ready;
    scn.sim().schedule_at(inst.ready - 10_us, [&pub, dlc] {
      Event e;
      e.content.assign(static_cast<std::size_t>(dlc), 0x00);  // worst stuffing
      (void)pub.publish(std::move(e));
    });
    // Worst-length blocker just before ready.
    scn.sim().schedule_at(inst.ready - 1_ns, [&adversary] {
      CanFrame f;
      f.id = encode_can_id({kNrtPriorityMax, 9, 500});
      f.dlc = 8;
      f.data.fill(0);
      (void)adversary.controller().submit(f, TxMode::kAutoRetransmit);
    });
    scn.run_until(inst.deadline + 1_ms);
  }
  return worst;
}

struct RandomRun {
  std::uint64_t instances = 0;
  std::uint64_t failures = 0;   // publisher-side kTransmissionFailed
  std::uint64_t bus_off = 0;    // instances lost to bus-off recovery
  std::uint64_t missing = 0;    // subscriber-side kMissingMessage
  std::uint64_t retries = 0;
};

RandomRun random_fault_run(double p, int k, int rounds, std::uint64_t seed) {
  TaskPool tasks;
  Scenario::Config cfg;
  cfg.calendar.round_length = 5_ms;
  Scenario scn{cfg};
  Node& pub_node = scn.add_node(1, perfect());
  Node& sub_node = scn.add_node(2, perfect());

  const Subject subject = subject_of("e2/rand");
  SlotSpec slot;
  slot.lst_offset = 1_ms;
  slot.dlc = 8;
  slot.fault.omission_degree = k;
  slot.etag = *scn.binding().bind(subject);
  slot.publisher = pub_node.id();
  (void)*scn.calendar().reserve(slot);

  scn.set_fault_model(std::make_unique<RandomOmissionFaults>(p, seed));

  RandomRun out;
  Hrtec pub{pub_node.middleware()};
  Hrtec sub{sub_node.middleware()};
  (void)pub.announce(subject, {}, [&](const ExceptionInfo& e) {
    if (e.error == ChannelError::kTransmissionFailed) ++out.failures;
    if (e.error == ChannelError::kBusOff) ++out.bus_off;
  });
  (void)sub.subscribe(subject, AttributeList{attr::QueueCapacity{4}},
                      [&] { (void)sub.getEvent(); },
                      [&](const ExceptionInfo& e) {
                        if (e.error == ChannelError::kMissingMessage)
                          ++out.missing;
                      });

  auto* loop = tasks.make();
  *loop = [&, loop] {
    Event e;
    e.content = {1, 2, 3, 4, 5, 6, 7, 8};
    (void)pub.publish(std::move(e));
    scn.sim().schedule_after(5_ms, [loop] { (*loop)(); });
  };
  scn.sim().schedule_after(Duration::zero(), [loop] { (*loop)(); });

  scn.run_for(cfg.calendar.round_length * rounds + 1_ms);
  out.instances = static_cast<std::uint64_t>(rounds);
  out.retries = pub_node.middleware().hrt().counters().retries;
  return out;
}

}  // namespace

int main() {
  // RTEC_BENCH_QUICK=1: the corners of both grids, 200 instances a point.
  const bool quick = bench::quick_mode();
  bench::title("E2", "HRT worst-case transmission time & fault tolerance");

  const BusConfig bus;
  bench::BenchJson bj{"hrt_faults"};
  bj.meta("generated_by", "bench_hrt_faults");
  bj.meta("threads", static_cast<double>(bench::sweep_threads()));
  if (quick) bj.meta("mode", "quick");

  // Every (dlc, k) point builds its own Scenario — run them in parallel.
  struct T1Point {
    int dlc = 0, k = 0;
  };
  std::vector<T1Point> t1_grid;
  for (int dlc : {0, 2, 4, 8})
    for (int k : {0, 1, 2, 3})
      if (!quick || ((dlc == 0 || dlc == 8) && (k == 0 || k == 3)))
        t1_grid.push_back({dlc, k});
  struct T1Row {
    Duration bound, sim;
  };
  const std::vector<T1Row> t1 =
      bench::sweep(t1_grid.size(), [&](std::size_t i) {
        const auto [dlc, k] = t1_grid[i];
        // Bound from the latest ready time: ΔT_wait blocking + WCTT.
        return T1Row{hrt_slot_window(dlc, {k}, bus),
                     adversarial_latency(dlc, k, 4)};
      });

  std::printf("\n  Table 1 — analytic WCTT bound vs worst simulated latency\n");
  std::printf("  (adversarial: k corruptions per message + worst blocker)\n");
  std::printf("  %-5s %-4s %-22s %-22s %s\n", "dlc", "k", "analysis bound (us)",
              "worst simulated (us)", "bound holds");
  bench::rule();
  bool all_hold = true;
  for (std::size_t i = 0; i < t1_grid.size(); ++i) {
    const auto [dlc, k] = t1_grid[i];
    const bool holds = t1[i].sim <= t1[i].bound;
    all_hold &= holds;
    std::printf("  %-5d %-4d %-22.1f %-22.1f %s\n", dlc, k, t1[i].bound.us(),
                t1[i].sim.us(), holds ? "yes" : "VIOLATED");
    bj.row({{"dlc", static_cast<double>(dlc)},
            {"k", static_cast<double>(k)},
            {"analytic_us", t1[i].bound.us()},
            {"simulated_us", t1[i].sim.us()}});
  }
  bench::rule();
  bench::note("analysis dominates simulation in every configuration: %s",
              all_hold ? "YES" : "NO (!!)");

  struct T2Point {
    double p = 0;
    int k = 0;
  };
  std::vector<T2Point> t2_grid;
  for (double p : {0.01, 0.05, 0.20})
    for (int k : {0, 1, 2, 3})
      if (!quick || (p == 0.20 && k <= 1)) t2_grid.push_back({p, k});
  const int instances = quick ? 200 : 2000;
  const std::vector<RandomRun> t2 =
      bench::sweep(t2_grid.size(), [&](std::size_t i) {
        return random_fault_run(t2_grid[i].p, t2_grid[i].k, instances, 77);
      });

  std::printf("\n  Table 2 — random omission faults: failure rate vs provisioned k\n");
  std::printf("  (%d instances each; failure = fault assumption violated)\n",
              instances);
  std::printf("  %-8s %-4s %-10s %-9s %-10s %-10s %s\n", "p", "k", "failures",
              "bus-off", "missing", "retries", "failure rate");
  bench::rule();
  for (std::size_t i = 0; i < t2_grid.size(); ++i) {
    const RandomRun& r = t2[i];
    std::printf("  %-8.2f %-4d %-10llu %-9llu %-10llu %-10llu %.4f\n",
                t2_grid[i].p, t2_grid[i].k,
                static_cast<unsigned long long>(r.failures),
                static_cast<unsigned long long>(r.bus_off),
                static_cast<unsigned long long>(r.missing),
                static_cast<unsigned long long>(r.retries),
                static_cast<double>(r.failures) /
                    static_cast<double>(r.instances));
    bj.row({{"p", t2_grid[i].p},
            {"k", static_cast<double>(t2_grid[i].k)},
            {"failures", static_cast<double>(r.failures)},
            {"retries", static_cast<double>(r.retries)}});
  }
  bench::rule();
  if (!bj.write()) bench::note("warning: could not write BENCH_hrt_faults.json");
  bench::note("failures scale ~ p^(k+1): each extra provisioned attempt buys");
  bench::note("an order of magnitude, and costs bandwidth ONLY on actual");
  bench::note("faults (retries column) — the paper's low-average-penalty claim.");
  return 0;
}
