// E13 — attack injection and streaming anomaly detection (robustness).
//
// The paper's fault model is benign; this harness measures what happens
// when the bus is *lied to*. A five-node benign world publishes jittered
// periodic streams; after a training phase, the three streaming
// inter-arrival-time detectors (trace/detectors.hpp, following the CAN
// IDS benchmarking methodology of arXiv 2307.04561) watch the bus while
// one of the four attack families (canbus/attack.hpp) runs through the
// real arbitration path. Reported per (attack, detector, seed):
//
//   fp_alarms — alarms raised during the attack-free benign window
//               (false positives),
//   detected  — whether any alarm fired during/after the attack window,
//   ttd_ms    — time from attack onset to the first such alarm.
//
// Expected shape: spoofing/injection/replay are caught within a few
// victim periods by all three detectors; message suspension is invisible
// to the per-arrival detectors until traffic resumes but is flagged by
// the window-frequency detector within ~one window — the study's central
// observation, reproduced here at frame-accurate bus timing.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "canbus/attack.hpp"
#include "core/scenario.hpp"
#include "sched/id_codec.hpp"
#include "trace/detectors.hpp"
#include "trace/registry.hpp"
#include "util/random.hpp"
#include "util/task_pool.hpp"

using namespace rtec;
using namespace rtec::literals;

namespace {

constexpr int kDetectors = 3;
const char* const kDetectorNames[kDetectors] = {"iat_gate", "cusum",
                                                "win_freq"};
constexpr int kAttacks = 5;
const char* const kAttackNames[kAttacks] = {"none", "injection", "spoof",
                                            "suspend", "replay"};

/// Experiment timeline: [0, train) learn, [train, attack_from) measure
/// false positives on attack-free traffic, [attack_from, attack_to) the
/// attack runs, then a tail so late detections (suspension resume) land.
struct Timeline {
  TimePoint train_end;
  TimePoint attack_from;
  TimePoint attack_to;
  TimePoint run_end;
};

Timeline make_timeline(bool quick) {
  const auto at = [](std::int64_t ms) {
    return TimePoint::origin() + Duration::milliseconds(ms);
  };
  if (quick) return {at(1000), at(1500), at(2000), at(2300)};
  return {at(4000), at(6000), at(8000), at(9000)};
}

/// Benign node streams: periods and identifier etags of nodes 1..5.
/// Node 1 (10 ms) is the spoof/suspension/replay victim.
constexpr int kNodes = 5;
constexpr std::int64_t kPeriodsMs[kNodes] = {10, 14, 20, 28, 40};

std::uint32_t stream_id(NodeId node) {
  return encode_can_id(
      {/*priority=*/5, node, static_cast<Etag>(100 + node)});
}

/// Controller-level periodic publisher with seeded per-event phase noise
/// in [0, jitter]: nominal slots stay on the grid so the long-run rate is
/// exact, while inter-arrival times get a non-degenerate distribution for
/// the detectors to learn.
void jittered_publisher(Simulator& sim, CanController& c, std::uint32_t id,
                        Duration period, Duration jitter, TimePoint from,
                        TimePoint until, TaskPool& pool, Rng* rng) {
  auto* tick = pool.make();
  auto slot = std::make_shared<TimePoint>(from);
  *tick = [&sim, &c, id, period, jitter, until, slot, rng, tick] {
    if (*slot >= until) return;
    const Duration noise =
        Duration::nanoseconds(rng->uniform_int(0, jitter.ns()));
    sim.schedule_at(*slot + noise, [&c, id] {
      CanFrame f;
      f.id = id;
      f.dlc = 8;
      (void)c.submit(f, TxMode::kSingleShot);
    });
    *slot += period;
    sim.schedule_at(*slot, [tick] { (*tick)(); });
  };
  sim.schedule_at(from, [tick] { (*tick)(); });
}

struct DetectorOutcome {
  std::uint64_t fp_alarms = 0;  ///< alarms in the attack-free window
  bool detected = false;        ///< any alarm at/after attack onset
  double ttd_ms = -1.0;         ///< onset -> first alarm; -1 = none
};

struct PointResult {
  std::array<DetectorOutcome, kDetectors> det{};
  std::uint64_t injected = 0;   ///< attack frames submitted
  std::uint64_t delivered = 0;  ///< attack frames on the wire
  std::uint64_t deliveries = 0;  ///< total tapped bus deliveries
};

PointResult run_point(int attack, std::uint64_t seed, const Timeline& tl,
                      rtec::trace::MetricsRegistry* metrics = nullptr) {
  Scenario scn;
  TaskPool pool;
  std::vector<std::unique_ptr<Rng>> rngs;

  for (int i = 0; i < kNodes; ++i) {
    const NodeId id = static_cast<NodeId>(i + 1);
    Node& n = scn.add_node(id);
    const Duration period = Duration::milliseconds(kPeriodsMs[i]);
    rngs.push_back(std::make_unique<Rng>(seed * 100 + static_cast<std::uint64_t>(i)));
    jittered_publisher(scn.sim(), n.controller(), stream_id(id), period,
                       /*jitter=*/period / 10,
                       TimePoint::origin() + Duration::milliseconds(i + 1),
                       tl.run_end, pool, rngs.back().get());
  }

  // The detector bank under test, with per-detector alarm logs.
  trace::DetectorBank& bank = scn.detectors();
  std::array<std::vector<trace::Alarm>, kDetectors> alarms;
  trace::MeanIatGate::Config gate_cfg;
  gate_cfg.train_until = tl.train_end;
  trace::CusumDetector::Config cusum_cfg;
  cusum_cfg.train_until = tl.train_end;
  trace::WindowFrequencyDetector::Config win_cfg;
  win_cfg.train_until = tl.train_end;
  win_cfg.window = 100_ms;
  trace::Detector* dets[kDetectors] = {
      &bank.add(std::make_unique<trace::MeanIatGate>(gate_cfg)),
      &bank.add(std::make_unique<trace::CusumDetector>(cusum_cfg)),
      &bank.add(std::make_unique<trace::WindowFrequencyDetector>(win_cfg))};
  for (int d = 0; d < kDetectors; ++d) {
    auto* log = &alarms[static_cast<std::size_t>(d)];
    dets[d]->set_alarm_sink(
        [log](const trace::Alarm& a) { log->push_back(a); });
  }

  // The adversary.
  const NodeId victim = 1;
  AttackModel* armed = nullptr;
  switch (attack) {
    case 1: {  // injection: fuzzed identifier flood
      FuzzingAttack::Config cfg;
      cfg.from = tl.attack_from;
      cfg.to = tl.attack_to;
      cfg.mean_gap = 2_ms;
      armed = &scn.install_attack(std::make_unique<FuzzingAttack>(cfg), 9,
                                  seed + 1);
      break;
    }
    case 2: {  // spoofing: the victim's exact id at the victim's rate
      SpoofingAttack::Config cfg;
      cfg.id = stream_id(victim);
      cfg.from = tl.attack_from;
      cfg.to = tl.attack_to;
      cfg.period = Duration::milliseconds(kPeriodsMs[0]);
      cfg.jitter = 1_ms;
      armed = &scn.install_attack(std::make_unique<SpoofingAttack>(cfg), 9,
                                  seed + 1);
      break;
    }
    case 3: {  // suspension: the victim node goes silent
      SuspensionAttack::Config cfg;
      cfg.victim = victim;
      cfg.from = tl.attack_from;
      cfg.to = tl.attack_to;
      armed = &scn.install_attack(std::make_unique<SuspensionAttack>(cfg), 9,
                                  seed + 1);
      break;
    }
    case 4: {  // replay: record the victim's benign window, replay it
      ReplayAttack::Config cfg;
      cfg.record_from = tl.train_end;
      cfg.record_to = tl.attack_from;
      cfg.replay_at = tl.attack_from;
      cfg.id_match = stream_id(victim);
      cfg.id_mask = 0x1fffffff;
      armed = &scn.install_attack(std::make_unique<ReplayAttack>(cfg), 9,
                                  seed + 1);
      break;
    }
    default:
      break;  // none: FP/control run
  }

  scn.run_until(tl.run_end);
  scn.flush_streams();

  PointResult out;
  for (int d = 0; d < kDetectors; ++d) {
    DetectorOutcome& o = out.det[static_cast<std::size_t>(d)];
    for (const trace::Alarm& a : alarms[static_cast<std::size_t>(d)]) {
      if (a.at < tl.attack_from) {
        ++o.fp_alarms;
      } else if (!o.detected) {
        o.detected = true;
        o.ttd_ms = (a.at - tl.attack_from).ms();
      }
    }
  }
  if (armed != nullptr) {
    out.injected = armed->frames_injected();
    out.delivered = armed->frames_delivered();
  }
  out.deliveries = scn.tapped_deliveries();
  if (metrics != nullptr) scn.export_metrics(*metrics);
  return out;
}

}  // namespace

int main() {
  bench::title("E13", "attack injection vs streaming anomaly detection");

  const bool quick = bench::quick_mode();
  const Timeline tl = make_timeline(quick);
  const std::vector<std::uint64_t> seeds =
      quick ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2, 3};
  const double benign_s = (tl.attack_from - tl.train_end).sec();

  bench::BenchJson bj{"attack"};
  bj.meta("generated_by", "bench_attack");
  bj.meta("quick", quick ? 1.0 : 0.0);
  bj.meta("threads", static_cast<double>(bench::sweep_threads()));
  bj.meta("train_s", (tl.train_end - TimePoint::origin()).sec());
  bj.meta("benign_s", benign_s);
  bj.meta("attack_s", (tl.attack_to - tl.attack_from).sec());
  bj.meta("attacks", "0=none 1=injection 2=spoof 3=suspend 4=replay");
  bj.meta("detectors", "0=iat_gate 1=cusum 2=win_freq");

  struct Point {
    int attack = 0;
    std::uint64_t seed = 0;
  };
  std::vector<Point> grid;
  for (int a = 0; a < kAttacks; ++a)
    for (const std::uint64_t s : seeds) grid.push_back({a, s});

  const std::vector<PointResult> results =
      bench::sweep(grid.size(), [&](std::size_t i) {
        return run_point(grid[i].attack, grid[i].seed, tl);
      });

  std::printf("\n  per-detector outcome by attack type (seeded runs)\n");
  std::printf("  %-10s %-5s %-9s %-10s %-9s %-9s %s\n", "attack", "seed",
              "detector", "fp/benign", "detected", "ttd_ms", "attack frames");
  bench::rule();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const PointResult& r = results[i];
    for (int d = 0; d < kDetectors; ++d) {
      const DetectorOutcome& o = r.det[static_cast<std::size_t>(d)];
      std::printf("  %-10s %-5llu %-9s %-10.2f %-9s %-9.1f %llu/%llu\n",
                  kAttackNames[grid[i].attack],
                  static_cast<unsigned long long>(grid[i].seed),
                  kDetectorNames[d],
                  static_cast<double>(o.fp_alarms) / benign_s,
                  o.detected ? "yes" : "no", o.ttd_ms,
                  static_cast<unsigned long long>(r.delivered),
                  static_cast<unsigned long long>(r.injected));
      bj.row({{"attack", static_cast<double>(grid[i].attack)},
              {"detector", static_cast<double>(d)},
              {"seed", static_cast<double>(grid[i].seed)},
              {"fp_alarms", static_cast<double>(o.fp_alarms)},
              {"fp_per_s", static_cast<double>(o.fp_alarms) / benign_s},
              {"detected", o.detected ? 1.0 : 0.0},
              {"ttd_ms", o.ttd_ms},
              {"attack_injected", static_cast<double>(r.injected)},
              {"attack_delivered", static_cast<double>(r.delivered)},
              {"deliveries", static_cast<double>(r.deliveries)}});
    }
  }
  bench::rule();

  // Headline rates per attack type across seeds and detectors: an attack
  // counts as detected when ANY detector alarms (a bank is an ensemble).
  std::printf("\n  ensemble summary (any-detector)\n");
  std::printf("  %-10s %-10s %-12s %s\n", "attack", "detected", "rate",
              "median ttd_ms");
  bench::rule();
  for (int a = 0; a < kAttacks; ++a) {
    int hit = 0;
    int n = 0;
    std::vector<double> ttds;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (grid[i].attack != a) continue;
      ++n;
      double best = -1.0;
      for (const DetectorOutcome& o : results[i].det)
        if (o.detected && (best < 0.0 || o.ttd_ms < best)) best = o.ttd_ms;
      if (best >= 0.0) {
        ++hit;
        ttds.push_back(best);
      }
    }
    std::sort(ttds.begin(), ttds.end());
    const double med = ttds.empty() ? -1.0 : ttds[ttds.size() / 2];
    std::printf("  %-10s %d/%-8d %-12.2f %.1f\n", kAttackNames[a], hit, n,
                n > 0 ? static_cast<double>(hit) / n : 0.0, med);
  }
  bench::rule();
  if (!bj.write()) bench::note("warning: could not write BENCH_attack.json");
  // Full registry snapshot from one representative attack point
  // (docs/observability.md) — METRICS_attack.json rides along with the
  // BENCH json in CI artifacts.
  {
    trace::MetricsRegistry metrics;
    (void)run_point(/*attack=*/2, /*seed=*/1, tl, &metrics);
    if (!metrics.save(bench::output_path("METRICS_attack.json")))
      bench::note("warning: could not write METRICS_attack.json");
  }
  bench::note("suspension is the hard case: per-arrival detectors only fire");
  bench::note("when traffic resumes; the window-frequency detector flags the");
  bench::note("silence itself within ~one window of the onset.");
  return 0;
}
