// E4 — bandwidth reclamation (§3.2, §5): "when a reserved slot is not used,
// the priority mechanism of CAN will automatically assign this slot to some
// other (lower priority) message ... this is not possible in schemes which
// only use global time to enforce reservations."
//
// Table 1: sporadic HRT reservations with activity factor a (probability a
// slot instance is actually used). A saturated NRT sender measures how much
// goodput flows through. Ours: unused reservations and slot remainders are
// reclaimed automatically. TTCAN-like: exclusive windows are lost when
// unused; async traffic runs only in the arbitration window.
//
// Table 2: redundancy cost vs actual fault rate: ours suppresses redundant
// copies after success (cost ~ p), TTCAN always transmits all copies
// (cost = k, independent of p).

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "baselines/ttcan.hpp"
#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "core/hrtec.hpp"
#include "core/scenario.hpp"
#include "trace/metrics.hpp"
#include "util/random.hpp"
#include "util/task_pool.hpp"

using namespace rtec;
using namespace rtec::literals;

namespace {

Node::ClockParams perfect() {
  Node::ClockParams p;
  p.granularity = 1_ns;
  return p;
}

constexpr int kRounds = 400;
const Duration kRound = 10_ms;

struct Goodput {
  double nrt_kbps = 0;        // async goodput (payload-bearing wire bits/s)
  double hrt_util = 0;        // fraction of bus time spent on HRT class
  double reserved_frac = 0;   // calendar share reserved
};

/// Our scheme: `slots` sporadic HRT reservations, activity factor a,
/// saturated NRT background.
Goodput run_ours(int slots, double activity, std::uint64_t seed) {
  TaskPool tasks;
  Scenario::Config cfg;
  cfg.calendar.round_length = kRound;
  Scenario scn{cfg};
  Node& pub_node = scn.add_node(1, perfect());
  Node& nrt_node = scn.add_node(2, perfect());
  scn.add_node(3, perfect());

  // Reserve `slots` sporadic k=1 slots, evenly spread.
  std::vector<std::size_t> slot_idx;
  std::vector<Subject> subjects;
  for (int s = 0; s < slots; ++s) {
    const std::string name = "e4/hrt" + std::to_string(s);
    const Subject subject = subject_of(name);
    subjects.push_back(subject);
    SlotSpec spec;
    spec.lst_offset = 1_ms + (kRound - 2_ms) / slots * s;
    spec.dlc = 8;
    spec.fault.omission_degree = 1;
    spec.etag = *scn.binding().bind(subject);
    spec.publisher = pub_node.id();
    spec.periodic = false;
    slot_idx.push_back(*scn.calendar().reserve(spec));
  }

  std::vector<std::unique_ptr<Hrtec>> pubs;
  for (const Subject& s : subjects) {
    pubs.push_back(std::make_unique<Hrtec>(pub_node.middleware()));
    (void)pubs.back()->announce(s, AttributeList{attr::Sporadic{kRound}},
                                nullptr);
  }

  // Sporadic publications with probability `activity` per slot instance.
  Rng rng{seed};
  for (int r = 0; r < kRounds; ++r) {
    for (int s = 0; s < slots; ++s) {
      if (!rng.bernoulli(activity)) continue;
      const auto inst = scn.calendar().instance_at_or_after(
          slot_idx[static_cast<std::size_t>(s)],
          TimePoint::origin() + kRound * r);
      Hrtec* chan = pubs[static_cast<std::size_t>(s)].get();
      scn.sim().schedule_at(inst.ready - 20_us, [chan] {
        Event e;
        e.content = {1, 2, 3, 4, 5, 6, 7, 8};
        (void)chan->publish(std::move(e));
      });
    }
  }

  // Saturated NRT sender: keeps its mailbox always full.
  auto* flood = tasks.make();
  *flood = [&nrt_node, flood] {
    CanFrame f;
    f.id = encode_can_id({kNrtPriorityMax, 2, 300});
    f.dlc = 8;
    f.data = {0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A};
    while (nrt_node.controller().has_free_mailbox())
      (void)nrt_node.controller().submit(
          f, TxMode::kAutoRetransmit,
          [flood](auto, const CanFrame&, bool, TimePoint) { (*flood)(); });
  };
  (*flood)();

  ClassUtilization util{scn.bus()};
  scn.run_for(kRound * kRounds);

  Goodput g;
  const double secs = (kRound * kRounds).sec();
  g.nrt_kbps =
      static_cast<double>(util.busy(TrafficClass::kNrt).ns()) / 1e3 / secs / 1e3;
  g.hrt_util = util.fraction(TrafficClass::kHrt);
  g.reserved_frac = scn.calendar().reserved_fraction();
  return g;
}

/// TTCAN-like: identical reservations as exclusive windows (k+1 = 2 copies,
/// always transmitted when used); async traffic only in the remaining
/// arbitration window.
Goodput run_ttcan(int slots, double activity, std::uint64_t seed) {
  TaskPool tasks;
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController::Config ctl_cfg;
  ctl_cfg.auto_recovery_delay = bus.config().bit_time() * (128 * 11);
  CanController owner{sim, 1, ctl_cfg};
  CanController async_ctl{sim, 2, ctl_cfg};
  bus.attach(owner);
  bus.attach(async_ctl);

  TtcanSchedule schedule;
  schedule.basic_cycle = kRound;
  schedule.bus = bus.config();
  const Duration window = hrt_slot_window(8, {1}, bus.config());
  Duration covered = Duration::zero();
  std::vector<std::pair<Duration, Duration>> exclusive;  // (start, end)
  for (int s = 0; s < slots; ++s) {
    const Duration lst = 1_ms + (kRound - 2_ms) / slots * s;
    const Duration start = lst - max_blocking_time(bus.config());
    schedule.windows.push_back(
        {TtcanWindow::Kind::kExclusive, start, window, 1, 2});
    exclusive.emplace_back(start, start + window);
    covered += window;
  }
  // Fill every gap between exclusive windows (and the cycle head/tail)
  // with arbitration windows — the most generous TTCAN system matrix.
  Duration cursor = Duration::zero();
  for (const auto& [start, end] : exclusive) {
    if (start - cursor > 100_us)
      schedule.windows.push_back(
          {TtcanWindow::Kind::kArbitration, cursor, start - cursor, 0, 1});
    cursor = end;
  }
  if (kRound - cursor > 100_us)
    schedule.windows.push_back(
        {TtcanWindow::Kind::kArbitration, cursor, kRound - cursor, 0, 1});

  TtcanDriver owner_drv{sim, owner, schedule};
  Rng rng{seed};
  owner_drv.set_exclusive_source(
      [&rng, activity](std::size_t, std::uint64_t) -> std::optional<CanFrame> {
        if (!rng.bernoulli(activity)) return std::nullopt;
        CanFrame f;
        f.id = 0x100;
        f.dlc = 8;
        f.data = {1, 2, 3, 4, 5, 6, 7, 8};
        return f;
      });

  TtcanDriver async_drv{sim, async_ctl, schedule};
  // Keep the async queue topped up.
  auto* top_up = tasks.make();
  *top_up = [&async_drv, &sim, top_up] {
    while (async_drv.async_backlog() < 16) {
      CanFrame f;
      f.id = 0x1000'0000 | 0x300;
      f.dlc = 8;
      f.data = {0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A};
      async_drv.queue_async(f);
    }
    sim.schedule_after(1_ms, [top_up] { (*top_up)(); });
  };
  (*top_up)();

  Duration async_busy = Duration::zero();
  Duration excl_busy = Duration::zero();
  bus.add_observer([&](const CanBus::FrameEvent& ev) {
    if (ev.frame.id == 0x100)
      excl_busy += ev.end - ev.start;
    else
      async_busy += ev.end - ev.start;
  });

  owner_drv.start();
  async_drv.start();
  sim.run_until(TimePoint::origin() + kRound * kRounds);

  Goodput g;
  const double secs = (kRound * kRounds).sec();
  g.nrt_kbps = static_cast<double>(async_busy.ns()) / 1e3 / secs / 1e3;
  g.hrt_util = static_cast<double>(excl_busy.ns()) /
               static_cast<double>((kRound * kRounds).ns());
  g.reserved_frac = static_cast<double>((covered).ns()) /
                    static_cast<double>(kRound.ns());
  return g;
}

/// HRT bus share with random omission faults at rate p; `suppress` toggles
/// the paper's suppression-on-success rule (the ablation knob).
double hrt_share(double p, bool suppress) {
  TaskPool tasks;
  Scenario::Config cfg;
  cfg.calendar.round_length = kRound;
  Scenario scn{cfg};
  Node& pub_node = scn.add_node(1, perfect());
  scn.add_node(2, perfect());
  const Subject subject = subject_of("e4/red");
  SlotSpec spec;
  spec.lst_offset = 1_ms;
  spec.dlc = 8;
  spec.fault.omission_degree = 1;
  spec.etag = *scn.binding().bind(subject);
  spec.publisher = pub_node.id();
  (void)*scn.calendar().reserve(spec);
  scn.set_fault_model(std::make_unique<RandomOmissionFaults>(p, 3));
  Hrtec pub{pub_node.middleware()};
  AttributeList attrs;
  if (!suppress) attrs.add(attr::AlwaysTransmitCopies{});
  (void)pub.announce(subject, attrs, nullptr);
  auto* loop = tasks.make();
  *loop = [&, loop] {
    Event e;
    e.content = {1, 2, 3, 4, 5, 6, 7, 8};
    (void)pub.publish(std::move(e));
    scn.sim().schedule_after(kRound, [loop] { (*loop)(); });
  };
  scn.sim().schedule_after(Duration::zero(), [loop] { (*loop)(); });
  ClassUtilization util{scn.bus()};
  scn.run_for(kRound * kRounds);
  return util.fraction(TrafficClass::kHrt);
}

}  // namespace

int main() {
  // RTEC_BENCH_QUICK=1: the corners of the goodput grid, two fault rates.
  const bool quick = bench::quick_mode();
  bench::title("E4", "bandwidth reclamation: event channels vs TTCAN-like TDMA");
  bench::note("%d rounds of %lld ms; sporadic k=1 HRT reservations; saturated",
              kRounds, static_cast<long long>(kRound.ns() / 1'000'000));
  bench::note("NRT background measures reclaimable goodput (1 Mbit/s bus)");

  bench::BenchJson bj{"reclamation"};
  bj.meta("generated_by", "bench_reclamation");
  bj.meta("threads", static_cast<double>(bench::sweep_threads()));
  if (quick) bj.meta("mode", "quick");

  struct T1Point {
    int slots = 0;
    double activity = 0;
  };
  const std::vector<int> slot_counts =
      quick ? std::vector<int>{2, 8} : std::vector<int>{2, 4, 8};
  const std::vector<double> activities =
      quick ? std::vector<double>{0.0, 1.0}
            : std::vector<double>{0.0, 0.25, 0.5, 1.0};
  std::vector<T1Point> grid;
  for (int slots : slot_counts)
    for (double a : activities) grid.push_back({slots, a});
  struct T1Row {
    Goodput ours, ttcan;
  };
  // Each point runs both schemes on private simulators — share-nothing.
  const std::vector<T1Row> t1 = bench::sweep(grid.size(), [&](std::size_t i) {
    return T1Row{run_ours(grid[i].slots, grid[i].activity, 7),
                 run_ttcan(grid[i].slots, grid[i].activity, 7)};
  });

  std::printf("\n  Table 1 — NRT goodput (kbit/s) vs reserved share and activity\n");
  std::printf("  %-6s %-9s %-10s %-12s %-12s %s\n", "slots", "reserved",
              "activity", "ours", "ttcan-like", "advantage");
  bench::rule();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& [slots, a] = grid[i];
    const Goodput& ours = t1[i].ours;
    const Goodput& ttcan = t1[i].ttcan;
    const double adv = ttcan.nrt_kbps > 0
                           ? (ours.nrt_kbps / ttcan.nrt_kbps - 1.0) * 100
                           : 0.0;
    std::printf("  %-6d %6.1f%%   %-9.2f %-12.0f %-12.0f %+.0f%%\n", slots,
                ours.reserved_frac * 100, a, ours.nrt_kbps, ttcan.nrt_kbps,
                adv);
    bj.row({{"slots", static_cast<double>(slots)},
            {"activity", a},
            {"ours_nrt_kbps", ours.nrt_kbps},
            {"ttcan_nrt_kbps", ttcan.nrt_kbps},
            {"reserved_frac", ours.reserved_frac}});
    if (i % activities.size() == activities.size() - 1) bench::rule();
  }
  bench::note("ours: NRT goodput is nearly independent of the reserved share —");
  bench::note("whatever HRT does not use flows down automatically. ttcan-like:");
  bench::note("goodput drops with every reserved window whether used or not.");

  std::printf("\n  Table 2 — redundancy bandwidth cost vs actual fault rate\n");
  std::printf("  (k=1 everywhere; 'no-suppress' = ours with the ablation knob\n");
  std::printf("   attr::AlwaysTransmitCopies: burn every copy like TDMA)\n");
  std::printf("  %-8s %-18s %-18s %s\n", "p", "ours HRT share",
              "ours no-suppress", "ttcan-like");
  bench::rule();
  const std::vector<double> ps =
      quick ? std::vector<double>{0.0, 0.10} : std::vector<double>{0.0, 0.02, 0.10};
  struct T2Row {
    double ours = 0, ablated = 0, ttcan = 0;
  };
  const std::vector<T2Row> t2 = bench::sweep(ps.size(), [&](std::size_t i) {
    return T2Row{hrt_share(ps[i], /*suppress=*/true),
                 hrt_share(ps[i], /*suppress=*/false),
                 run_ttcan(1, 1.0, 3).hrt_util};
  });
  for (std::size_t i = 0; i < ps.size(); ++i) {
    std::printf("  %-8.2f %9.3f%%         %9.3f%%         %9.3f%%\n", ps[i],
                t2[i].ours * 100, t2[i].ablated * 100, t2[i].ttcan * 100);
    bj.row({{"p", ps[i]},
            {"ours_hrt_share", t2[i].ours},
            {"no_suppress_hrt_share", t2[i].ablated},
            {"ttcan_hrt_share", t2[i].ttcan}});
  }
  bench::rule();
  if (!bj.write())
    bench::note("warning: could not write BENCH_reclamation.json");
  bench::note("ours grows only with p (copies sent when faults occur); both the");
  bench::note("no-suppress ablation and the TDMA baseline pay ~2x at every fault");
  bench::note("rate — \"time redundancy only costs bandwidth if faults really");
  bench::note("occur\" is exactly the suppression-on-success rule.");
  return 0;
}
