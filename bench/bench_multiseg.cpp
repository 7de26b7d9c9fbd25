// Parallel multi-segment engine at city scale: generated topologies
// (sim/topology_gen.hpp — chain, fleet-of-stars, campus grid, backbone
// tree) with a busy/light segment mix, measured two ways per point:
//
//   seq   — one shared kernel (shards=1), the sequential reference
//   par   — one kernel per segment, per-link lookahead
//
// Both runs simulate the identical workload and produce bit-identical
// frame traces (tests/test_multiseg.cpp), so `speedup` isolates the
// engine. The committed BENCH_multiseg.json also keeps frozen
// global-minimum lookahead columns that this bench no longer writes.
//
// Points run SERIALLY (never on the sweep pool): the parallel engine's own
// worker threads are the thing being measured, so nothing else may compete
// for cores. RTEC_BENCH_THREADS caps the engine's worker count (default:
// one per segment, up to the hardware). RTEC_BENCH_QUICK=1 shrinks the
// grid for CI smoke runs. Speedup is meaningless on 1-core hosts — the
// `host_cpus` metadata records what the numbers were measured on; the
// epoch column is a scheduling count and is host-independent.

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "core/gateway.hpp"
#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "sim/topology_gen.hpp"
#include "time/periodic.hpp"
#include "trace/registry.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/task_pool.hpp"

using namespace rtec;
using namespace rtec::literals;

namespace {

struct Run {
  double wall_s = 0;
  double frames = 0;
  double epochs = 0;
  double handoffs = 0;
  double shard_runs = 0;
};

/// City workload over a generated topology: two regular nodes per segment
/// with per-segment clock sync, one bridged SRT subject per gateway link,
/// and Poisson chatter on every fourth segment. The busy/light mix is the
/// point — it is what per-link lookahead exploits.
Run run_city(const TopoSpec& topo, int shards, unsigned threads,
             Duration sim_time,
             rtec::trace::MetricsRegistry* metrics = nullptr) {
  TaskPool pool;
  Scenario::Config cfg;
  cfg.networks = topo.segments;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.calendar.round_length = 10_ms;
  Scenario scn{cfg};
  Rng setup_rng{topo.seed + 0xBE7Cu};

  for (int net = 0; net < topo.segments; ++net) {
    for (NodeId k : {NodeId{1}, NodeId{2}}) {
      Node::ClockParams p;
      p.initial_offset = Duration::microseconds(setup_rng.uniform_int(-20, 20));
      p.drift_ppb = setup_rng.uniform_int(-80'000, 80'000);
      p.granularity = 1_us;
      scn.add_node(k, p, net);
    }
  }

  std::vector<int> next_gw_id(static_cast<std::size_t>(topo.segments), 100);
  std::vector<std::unique_ptr<Gateway>> gateways;
  std::vector<std::unique_ptr<Srtec>> stacks;
  std::vector<std::unique_ptr<PeriodicLocalTask>> tasks;
  const auto make_stack = [&](NodeId id, int net) {
    stacks.push_back(std::make_unique<Srtec>(scn.node(id, net).middleware()));
    return stacks.back().get();
  };

  for (std::size_t l = 0; l < topo.links.size(); ++l) {
    const TopoLink& link = topo.links[l];
    Node& ga = scn.add_node(
        static_cast<NodeId>(next_gw_id[static_cast<std::size_t>(link.a)]++),
        {}, link.a);
    Node& gb = scn.add_node(
        static_cast<NodeId>(next_gw_id[static_cast<std::size_t>(link.b)]++),
        {}, link.b);
    gateways.push_back(std::make_unique<Gateway>(
        ga, gb, scn.link_gateway(ga, gb, link.latency)));
    const Subject subj = subject_of("city/x" + std::to_string(l));
    (void)gateways.back()->bridge_srt(subj, 10_ms, 30_ms);
    Srtec* pub = make_stack(NodeId{1}, link.a);
    (void)pub->announce(subj, AttributeList{attr::Deadline{10_ms}}, nullptr);
    Srtec* sub = make_stack(NodeId{2}, link.b);
    (void)sub->subscribe(subj, {}, [sub] { (void)sub->getEvent(); }, nullptr);
    std::uint8_t payload = static_cast<std::uint8_t>(l);
    tasks.push_back(std::make_unique<PeriodicLocalTask>(
        scn.node(NodeId{1}, link.a).clock(),
        5_ms + Duration::milliseconds(static_cast<std::int64_t>(l % 5)),
        [pub, payload]() mutable {
          Event e;
          e.content = {payload++, 0x42};
          (void)pub->publish(std::move(e));
        }));
    tasks.back()->start();
  }

  for (int net = 0; net < topo.segments; ++net)
    (void)scn.enable_clock_sync_on(net, NodeId{2}, 500_us);

  // Poisson chatter on every fourth segment: the busy minority whose
  // horizons per-link lookahead decouples from the idle majority.
  std::vector<std::unique_ptr<Rng>> seg_rngs;
  for (int net = 0; net < topo.segments; net += 4) {
    seg_rngs.push_back(std::make_unique<Rng>(
        topo.seed * 1000 + static_cast<std::uint64_t>(net) + 1));
    const Subject subj = subject_of("city/c" + std::to_string(net));
    Srtec* pub = make_stack(NodeId{1}, net);
    (void)pub->announce(subj, AttributeList{attr::Deadline{20_ms}}, nullptr);
    Srtec* sub = make_stack(NodeId{2}, net);
    (void)sub->subscribe(subj, {}, [sub] { (void)sub->getEvent(); }, nullptr);
    Simulator* sim = &scn.segment_sim(net);
    Rng* rng = seg_rngs.back().get();
    auto* loop = pool.make();
    *loop = [pub, sim, rng, loop] {
      Event e;
      e.content = {0x5A};
      (void)pub->publish(std::move(e));
      sim->schedule_after(Duration::nanoseconds(static_cast<std::int64_t>(
                              rng->exponential(0.5e6))),
                          [loop] { (*loop)(); });
    };
    sim->schedule_after(
        Duration::microseconds(setup_rng.uniform_int(100, 3000)),
        [loop] { (*loop)(); });
  }

  const auto t0 = std::chrono::steady_clock::now();
  scn.run_for(sim_time);
  const auto t1 = std::chrono::steady_clock::now();

  Run r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  for (int net = 0; net < topo.segments; ++net)
    r.frames += static_cast<double>(scn.bus(net).frames_ok() +
                                    scn.bus(net).frames_error());
  r.epochs = static_cast<double>(scn.shard_engine().stats().epochs);
  r.handoffs = static_cast<double>(scn.shard_engine().stats().handoffs);
  r.shard_runs = static_cast<double>(scn.shard_engine().stats().shard_runs);
  if (metrics != nullptr) scn.export_metrics(*metrics);
  return r;
}

Run median_of(int reps, const std::function<Run()>& fn) {
  std::vector<Run> runs;
  runs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) runs.push_back(fn());
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.wall_s < b.wall_s; });
  return runs[quantile_rank(runs.size(), 0.5)];
}

struct Point {
  TopoShape shape;
  int segments;
};

}  // namespace

int main() {
  const bool quick = bench::quick_mode();
  const Duration sim_time =
      quick ? Duration::milliseconds(300) : Duration::seconds(1);
  const int reps = quick ? 1 : 3;
  const std::vector<Point> points =
      quick ? std::vector<Point>{{TopoShape::kChain, 4},
                                 {TopoShape::kCampusGrid, 16}}
            : std::vector<Point>{{TopoShape::kChain, 4},
                                 {TopoShape::kChain, 8},
                                 {TopoShape::kChain, 32},
                                 {TopoShape::kFleetStar, 64},
                                 {TopoShape::kBackboneTree, 64},
                                 {TopoShape::kCampusGrid, 64},
                                 {TopoShape::kCampusGrid, 128},
                                 {TopoShape::kCampusGrid, 256}};
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  bench::title("multiseg",
               "sharded engine at city scale, generated topologies");
  bench::note("%lld simulated ms per run; 2 nodes/segment + gateways,",
              static_cast<long long>(sim_time.ns() / 1'000'000));
  bench::note("per-segment clock sync, bridged SRT on every link, Poisson");
  bench::note("chatter on every 4th segment (busy/light mix); %u host cpus",
              hw);

  bench::BenchJson bj{"multiseg"};
  bj.meta("generated_by", "bench_multiseg");
  bj.meta("shape_legend", "0=chain 1=fleet 2=grid 3=tree");
  bj.meta("sim_seconds", sim_time.sec());
  bj.meta("quick", quick ? 1.0 : 0.0);
  bj.meta("reps", static_cast<double>(reps));
  bj.meta("host_cpus", static_cast<double>(hw));

  std::printf("\n  %-6s %-5s %-8s %-9s %-9s %-8s %-10s %s\n", "shape",
              "segs", "frames", "seq (s)", "par (s)", "speedup", "epochs",
              "handoffs");
  bench::rule();

  const auto t0 = std::chrono::steady_clock::now();
  for (const Point& pt : points) {
    const TopoSpec topo = make_topology(pt.shape, pt.segments, /*seed=*/11);
    // Engine threads, the calling thread included: RTEC_BENCH_THREADS caps
    // them (CI pins 2); default is one per segment up to the host's cores.
    const unsigned threads =
        std::min(bench::sweep_threads(), static_cast<unsigned>(pt.segments));
    const Run seq = median_of(reps, [&] {
      return run_city(topo, /*shards=*/1, /*threads=*/1, sim_time);
    });
    const Run par = median_of(reps, [&] {
      return run_city(topo, pt.segments, threads, sim_time);
    });
    const double speedup = seq.wall_s / par.wall_s;
    std::printf("  %-6s %-5d %-8.0f %-9.3f %-9.3f %-8.2f %-10.0f %.0f\n",
                topo_shape_name(pt.shape), pt.segments, par.frames,
                seq.wall_s, par.wall_s, speedup, par.epochs, par.handoffs);
    bj.row({{"shape", static_cast<double>(static_cast<int>(pt.shape))},
            {"segments", static_cast<double>(pt.segments)},
            {"threads", static_cast<double>(threads)},
            {"frames", par.frames},
            {"wall_s_seq", seq.wall_s},
            {"wall_s_par", par.wall_s},
            {"speedup", speedup},
            {"epochs", par.epochs},
            {"handoffs", par.handoffs},
            {"shard_runs", par.shard_runs}});
  }
  bench::rule();
  bj.meta("wall_s_total",
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
  if (!bj.write()) bench::note("warning: could not write BENCH_multiseg.json");
  // Full registry snapshot from one small representative city
  // (docs/observability.md) — METRICS_multiseg.json rides along with the
  // BENCH json in CI artifacts.
  {
    trace::MetricsRegistry metrics;
    const TopoSpec topo = make_topology(TopoShape::kChain, 4, /*seed=*/11);
    (void)run_city(topo, 4, 1, 100_ms, &metrics);
    if (!metrics.save(bench::output_path("METRICS_multiseg.json")))
      bench::note("warning: could not write METRICS_multiseg.json");
  }
  bench::note("both configurations execute the identical event sequence");
  bench::note("(tests/test_multiseg.cpp proves bit-equality); epochs are");
  bench::note("host-independent. On a 1-core host expect speedup <= 1");
  bench::note("(epoch + barrier overhead only).");
  return 0;
}
