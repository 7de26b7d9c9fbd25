// rtec_bench — the repository benchmark. One process runs one workload:
//
//   rtec_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--smoke] [--out DIR] [--label L]
//
// It builds its worlds from the seed, measures for `--seconds` of host
// time (at least three scenario-runs), checks the simulation's outputs,
// prints one `<metric> <value> <unit>` line per metric plus `sim_digest`,
// writes a BENCH_*.json through bench::BenchJson into --out, and ends with
// one JSON result line. With --trace 1 the run instead reports per-layer
// metrics: half the time goes to untraced ablation runs that add one layer
// at a time, half to the workload again with bench-side spans, which are
// written to spans_<workload>.json. README.md in this directory defines
// every workload and metric.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/sweep.hpp"
#include "rtec_bench/spans.hpp"
#include "rtec_bench/stats.hpp"
#include "rtec_bench/worlds.hpp"
#include "trace/binary.hpp"

#ifndef RTEC_BENCH_COMMIT
#define RTEC_BENCH_COMMIT "unknown"
#endif
#ifndef RTEC_BENCH_BUILD_TYPE
#define RTEC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef RTEC_SOURCE_ROOT
#define RTEC_SOURCE_ROOT ""
#endif
#ifdef __clang__
#define RTEC_BENCH_COMPILER "clang " __clang_version__
#else
#define RTEC_BENCH_COMPILER "g++ " __VERSION__
#endif

using namespace rtec;
using namespace rtec::literals;
using namespace rtec::bench;

namespace {

// ---------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0), identical in every workload. Must match
/// BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"frames_per_wall_s", "frames/s"},
    {"runs_per_s", "runs/s"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

/// Per-layer metrics (--trace 1). A layer a workload does not exercise
/// reports 0. Must match BENCHMARK.json.
constexpr MetricDef kPerLayer[] = {
    {"sim.events_scheduled_per_frame", "count"},
    {"sim.events_fired_per_frame", "count"},
    {"sim.events_cancelled_per_frame", "count"},
    {"sim.cancel_share", "ratio"},
    {"sim.heap_compactions_per_mframe", "count"},
    {"sim.slice_wall_ms.p50", "ms"},
    {"sim.slice_wall_ms.p99", "ms"},
    {"canbus.raw_ns_per_frame", "ns"},
    {"canbus.utilization", "ratio"},
    {"canbus.error_frame_share", "ratio"},
    {"core.ns_per_frame", "ns"},
    {"core.publish_ns.p50", "ns"},
    {"core.publish_ns.p99", "ns"},
    {"core.get_event_ns.p50", "ns"},
    {"core.srt.deadline_miss_share", "ratio"},
    {"core.srt.promotions_per_kframe", "count"},
    {"core.hrt.retries_per_kframe", "count"},
    {"core.nrt.frames_per_message", "count"},
    {"core.gateway.forwards_per_frame", "ratio"},
    {"engine.epochs_per_sim_s", "1/s"},
    {"engine.shard_runs_per_epoch", "count"},
    {"engine.skip_share", "ratio"},
    {"engine.horizon_log2.p50", "log2ns"},
    {"engine.runs_imbalance", "ratio"},
    {"engine.barrier_park_share", "ratio"},
    {"engine.handoffs_per_epoch", "count"},
    {"engine.handoff_bytes_per_batch", "bytes"},
    {"engine.speedup_vs_seq", "ratio"},
    {"trace.recorder_ns_per_frame", "ns"},
    {"trace.detectors_ns_per_frame", "ns"},
    {"trace.recorder_overhead_pct", "%"},
    {"trace.rteb_bytes_per_frame", "bytes"},
    {"trace.read_ns_per_record", "ns"},
    {"trace.read_records_per_s", "records/s"},
    {"setup.topology_ms", "ms"},
    {"setup.warmup_ms", "ms"},
    {"setup.world_ms", "ms"},
    {"setup.teardown_ms", "ms"},
    {"sweep.point_ms.p50", "ms"},
    {"sweep.point_ms.p99", "ms"},
    {"sweep.worker_idle_share", "ratio"},
    {"sweep.speedup_vs_serial", "ratio"},
    {"trace_overhead_pct", "%"},
};

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Peak resident set of this process image, from /proc/self/status. Not
/// getrusage: Linux carries ru_maxrss over from the parent through
/// fork+exec, so it would report the launcher's size for a small run.
double peak_rss_mib() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

unsigned host_cpus() { return std::max(1u, std::thread::hardware_concurrency()); }

// ------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out = ".bench_build/out";
  std::string label;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      o.trace = true;
      if (has_value && (std::string{argv[i + 1]} == "0" || std::string{argv[i + 1]} == "1"))
        o.trace = std::string{argv[++i]} == "1";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--out" && has_value) {
      o.out = argv[++i];
    } else if (a == "--label" && has_value) {
      o.label = argv[++i];
    } else {
      std::fprintf(stderr, "rtec_bench: unknown or incomplete argument '%s'\n", a.c_str());
      return std::nullopt;
    }
  }
  if (o.workload.empty() || !(o.seconds >= 0.0)) {
    std::fprintf(stderr,
                 "usage: rtec_bench --workload <mixed-bus|city-grid64|observe-attack|"
                 "sweep-short> --seed <n> --seconds <s> --trace <0|1> [--smoke] "
                 "[--out DIR] [--label L]\n");
    return std::nullopt;
  }
  return o;
}

// ------------------------------------------------------------ one run

/// One scenario-run: build (set-up), the timed span in slices, teardown.
struct RunStats {
  double setup_s = 0.0;
  double topology_s = 0.0;
  double warmup_s = 0.0;
  double run_s = 0.0;  ///< host time inside the timed run_until slices
  double teardown_s = 0.0;
  std::uint64_t frames = 0;  ///< bus occupancies inside the timed span
  double sim_s = 0.0;        ///< simulated seconds, warm-up included
  std::vector<std::uint64_t> boundaries;  ///< cumulative frames per slice end
  Counters counters;
  std::uint64_t digest = 0;
  std::optional<ShardEngine::Stats> engine;

  [[nodiscard]] double wall_s() const { return setup_s + run_s + teardown_s; }
  [[nodiscard]] double fps() const { return ratio(static_cast<double>(frames), run_s); }
};

/// Builds a world; the argument says whether it is traced.
using WorldFactory = std::function<std::unique_ptr<World>(bool)>;
/// Inspects a finished world before teardown (trace reads, engine stats);
/// `span` is the run's span index (-1 when untraced).
using AfterRun = std::function<void(World&, RunStats&, int span)>;

RunStats run_world(const WorldFactory& build, Duration slice, Tracer* tr, int parent,
                   const AfterRun& after = nullptr) {
  RunStats r;
  const int root = tr != nullptr ? tr->begin("run", parent) : -1;

  const std::uint64_t b0 = tr != nullptr ? tr->now_ns() : 0;
  const auto t0 = SteadyClock::now();
  std::unique_ptr<World> w = build(tr != nullptr);
  const auto t1 = SteadyClock::now();
  r.setup_s = seconds_between(t0, t1);
  r.topology_s = w->topology_s;
  r.warmup_s = w->warmup_s;
  if (tr != nullptr) tr->add("setup", b0, b0 + elapsed_ns(t0, t1), root);

  const std::uint64_t f0 = w->frames();
  const TimePoint end = w->start + w->length;
  for (TimePoint t = w->start; t < end; t += slice) {
    const TimePoint until = std::min(t + slice, end);
    const std::uint64_t s0 = tr != nullptr ? tr->now_ns() : 0;
    const auto a = SteadyClock::now();
    w->scn->run_until(until);
    const auto b = SteadyClock::now();
    r.run_s += seconds_between(a, b);
    if (tr != nullptr) tr->add("slice", s0, s0 + elapsed_ns(a, b), root);
    r.boundaries.push_back(w->frames() - f0);
  }
  r.frames = w->frames() - f0;
  r.sim_s = (w->scn->now() - TimePoint::origin()).sec();
  r.counters = counters(*w);
  r.digest = digest(r.counters);
  if (after) after(*w, r, root);
  if (tr != nullptr) {
    for (const Probes& p : w->probes) {
      tr->merge("publish", "slice", p.publish_ns);
      tr->merge("getEvent", "slice", p.get_event_ns);
    }
  }

  const std::uint64_t d0 = tr != nullptr ? tr->now_ns() : 0;
  const auto t2 = SteadyClock::now();
  w.reset();
  const auto t3 = SteadyClock::now();
  r.teardown_s = seconds_between(t2, t3);
  if (tr != nullptr) {
    tr->add("teardown", d0, d0 + elapsed_ns(t2, t3), root);
    tr->end(root);
  }
  return r;
}

// ------------------------------------------------------------ report

struct Report {
  explicit Report(std::string n) : name{std::move(n)}, json{name} {}

  std::string name;
  std::map<std::string, double> metrics;
  int attempted = 0;
  int failed = 0;
  std::uint64_t sim_digest = 0;
  BenchJson json;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "rtec_bench: check failed: %s\n", what.c_str());
    }
  }
  /// Sets an end-to-end metric to the median of its per-run samples and
  /// records their count and quartiles in the json meta.
  void from_samples(const std::string& metric, const std::vector<double>& v) {
    metrics[metric] = median(v);
    const Quartiles q = quartiles(v);
    json.meta("samples." + metric, static_cast<double>(v.size()));
    json.meta("q1." + metric, q.q1);
    json.meta("q3." + metric, q.q3);
  }
  void row(const RunStats& r) {
    json.row({{"setup_s", r.setup_s},
              {"run_s", r.run_s},
              {"teardown_s", r.teardown_s},
              {"frames", static_cast<double>(r.frames)},
              {"frames_per_wall_s", r.fps()}});
  }
};

/// Loop guard: keep going until the host-time budget is spent, but run at
/// least `min_runs` times.
class Budget {
 public:
  Budget(double seconds, std::size_t min_runs)
      : end_{SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                                      std::chrono::duration<double>(seconds))},
        min_runs_{min_runs} {}
  [[nodiscard]] bool more(std::size_t done) const {
    return done < min_runs_ || SteadyClock::now() < end_;
  }

 private:
  SteadyClock::time_point end_;
  std::size_t min_runs_;
};

// ------------------------------------------------------------ workloads

/// What a traced run needs from a workload to fill the per-layer metrics.
struct LayerInputs {
  std::vector<RunStats> runs;  ///< the traced scenario-runs
  double fps = 0.0;            ///< end-to-end frames/s of the traced runs
  double untraced_fps = 0.0;   ///< same, untraced (phase A)
  std::vector<double> speedup_vs_seq;
  std::vector<double> point_ms;
  double worker_idle_share = 0.0;
  double speedup_vs_serial = 0.0;
};

/// Ablation ladder results (untraced, interleaved).
struct Ablation {
  std::map<Layers, std::vector<double>> fps;
  std::vector<double> rteb_bytes_per_frame;
  std::vector<double> read_ns_per_record;
};

/// What decoding segment 0's recorded trace found; `seconds` holds the
/// host time of each read_all pass.
struct TraceRead {
  bool ok = true;
  std::vector<double> seconds;
  std::uint64_t frame_records = 0;
  std::uint64_t records = 0;
  std::uint64_t unknown_alarms = 0;
  std::uint64_t unknown_alarms_early = 0;
  std::string error;
};

TraceRead read_trace(World& w, int passes, Tracer* tr, int parent) {
  TraceRead out;
  const std::string& bytes = w.scn->rteb(0)->bytes();
  for (int p = 0; p < passes; ++p) {
    const std::uint64_t s0 = tr != nullptr ? tr->now_ns() : 0;
    const auto a = SteadyClock::now();
    auto reader = trace::RtebReader::open(bytes);
    if (!reader) {
      out.ok = false;
      out.error = reader.error();
      return out;
    }
    auto recs = reader->read_all();
    const auto b = SteadyClock::now();
    if (tr != nullptr) tr->add("read_all", s0, s0 + elapsed_ns(a, b), parent);
    if (!recs) {
      out.ok = false;
      out.error = recs.error();
      return out;
    }
    out.seconds.push_back(seconds_between(a, b));
    out.records = recs->size();
    out.frame_records = 0;
    out.unknown_alarms = 0;
    out.unknown_alarms_early = 0;
    for (const trace::RtebRecord& r : *recs) {
      if (r.kind == trace::RtebKind::kFrame) ++out.frame_records;
      if (r.kind == trace::RtebKind::kAlarm && r.alarm.unknown_id) {
        ++out.unknown_alarms;
        if (r.alarm.at < w.attack_from) ++out.unknown_alarms_early;
      }
    }
  }
  return out;
}

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Untraced measurement for `seconds`: fills the end-to-end metrics and
  /// the checks.
  virtual void measure(double seconds, Report& rep) = 0;
  /// One untraced run of the workload's own configuration; returns its
  /// frames/s (trace-overhead reference).
  virtual double reference_fps() = 0;
  /// One untraced run of the ablation world (a shorter, unsharded variant
  /// of the workload's world) at `layers`.
  virtual RunStats ablation_run(Layers layers, const AfterRun& after) = 0;
  /// Traced measurement for `seconds` (checks still count).
  virtual LayerInputs traced(double seconds, Tracer& tr, Report& rep) = 0;
};

double get(const Counters& c, const std::string& k) {
  const auto it = c.find(k);
  return it == c.end() ? 0.0 : it->second;
}

bool ok_counters(const RunStats& a, const RunStats& b) {
  return a.boundaries == b.boundaries && a.digest == b.digest;
}

/// mixed-bus and observe-attack: repeated runs of one single-segment world.
class SingleWorld final : public Workload {
 public:
  SingleWorld(MixedSpec spec, std::uint64_t seed, bool observe, std::size_t min_runs)
      : spec_{spec}, seed_{seed}, observe_{observe}, min_runs_{min_runs} {}

  void measure(double seconds, Report& rep) override {
    std::vector<RunStats> runs = loop(seconds, nullptr, rep);
    std::vector<double> fps, rate, setup;
    for (const RunStats& r : runs) {
      fps.push_back(r.fps());
      rate.push_back(1.0 / r.wall_s());
      setup.push_back(r.setup_s);
      rep.row(r);
    }
    rep.from_samples("frames_per_wall_s", fps);
    rep.from_samples("runs_per_s", rate);
    rep.from_samples("setup_s", setup);
  }

  double reference_fps() override {
    return run_world(factory(spec_), kSlice, nullptr, -1).fps();
  }

  RunStats ablation_run(Layers layers, const AfterRun& after) override {
    MixedSpec s = spec_;
    s.layers = layers;
    s.length = spec_.length / 4;
    return run_world(factory(s), kSlice, nullptr, -1, after);
  }

  LayerInputs traced(double seconds, Tracer& tr, Report& rep) override {
    LayerInputs in;
    in.runs = loop(seconds, &tr, rep);
    std::vector<double> fps;
    for (const RunStats& r : in.runs) {
      fps.push_back(r.fps());
      in.point_ms.push_back(r.wall_s() * 1e3);
    }
    in.fps = median(fps);
    return in;
  }

 private:
  static constexpr Duration kSlice = 50_ms;

  WorldFactory factory(const MixedSpec& s) const {
    return [s, seed = seed_](bool traced) { return build_mixed(s, seed, traced); };
  }

  std::vector<RunStats> loop(double seconds, Tracer* tr, Report& rep) {
    std::vector<RunStats> runs;
    const Budget budget{seconds, min_runs_};
    while (budget.more(runs.size())) {
      const std::size_t k = runs.size();
      AfterRun after = nullptr;
      if (observe_) {
        after = [&rep, tr, k](World& w, RunStats&, int span) {
          check_trace(w, rep, tr, span, k);
        };
      }
      runs.push_back(run_world(factory(spec_), kSlice, tr, -1, after));
      const RunStats& r = runs.back();
      if (k == 0) {
        rep.sim_digest = r.digest;
        check_traffic(r, rep);
      } else {
        rep.check(ok_counters(r, runs.front()),
                  "run " + std::to_string(k) + " replays run 0 at every slice boundary");
      }
    }
    return runs;
  }

  static void check_traffic(const RunStats& r, Report& rep) {
    const Counters& c = r.counters;
    rep.check(get(c, "net000.bus.utilization") > 0.80, "bus carries its offered load");
    rep.check(get(c, "core.hrt.delivered") > 0.98 * get(c, "core.hrt.published") &&
                  get(c, "core.srt.delivered") > 0.95 * get(c, "core.srt.published") &&
                  get(c, "core.nrt.delivered") > 0,
              "every channel class delivers its events");
  }

  static void check_trace(World& w, Report& rep, Tracer* tr, int span, std::size_t k) {
    const TraceRead read = read_trace(w, 3, tr, span);
    const std::string tag = "run " + std::to_string(k) + ": ";
    rep.check(read.ok, tag + "read_all decodes the trace " + read.error);
    const CanBus& bus = w.scn->bus(0);
    rep.check(read.frame_records == bus.frames_ok() + bus.frames_error(),
              tag + "one frame record per bus occupancy");
    const auto dump = trace::rteb_to_candump(w.scn->rteb(0)->bytes(), "can0");
    rep.check(dump && static_cast<std::uint64_t>(std::count(dump->begin(), dump->end(), '\n')) ==
                          bus.frames_ok(),
              tag + "one candump line per delivered frame");
    // Fuzzed identifiers were never trained on, so every fuzzed frame on
    // the wire must raise an unknown-id alarm after the onset. (Earlier
    // unknown-id alarms exist: EDF promotion moves SRT frames to
    // identifiers the training window never saw.)
    const std::uint64_t fuzzed = w.fuzzing->frames_delivered();
    rep.check(fuzzed > 0 && w.spoofing->frames_delivered() > 0 &&
                  read.unknown_alarms - read.unknown_alarms_early >= fuzzed,
              tag + "both attacks reach the wire and every fuzzed frame raises an alarm");
  }

  MixedSpec spec_;
  std::uint64_t seed_;
  bool observe_;
  std::size_t min_runs_;
};

/// city-grid64: each rep runs the same span sequentially (shards=1) and
/// sharded (one shard per segment, nproc-1 engine workers).
class City final : public Workload {
 public:
  City(Duration length, std::uint64_t seed, std::size_t min_runs)
      : seed_{seed}, min_runs_{min_runs} {
    seq_.length = par_.length = length;
    par_.shards = par_.segments;
    par_.threads = std::max(1u, host_cpus() - 1);
  }

  void measure(double seconds, Report& rep) override {
    std::vector<double> fps, rate, setup;
    for (const Pair& p : loop(seconds, nullptr, rep)) {
      fps.push_back(p.par.fps());
      rate.push_back(1.0 / p.par.wall_s());
      setup.push_back(p.par.setup_s);
      rep.row(p.par);
    }
    rep.from_samples("frames_per_wall_s", fps);
    rep.from_samples("runs_per_s", rate);
    rep.from_samples("setup_s", setup);
  }

  double reference_fps() override {
    return run_world(factory(par_), kSlice, nullptr, -1).fps();
  }

  RunStats ablation_run(Layers layers, const AfterRun& after) override {
    CitySpec s = seq_;
    s.layers = layers;
    s.length = seq_.length / 4;
    return run_world(factory(s), kSlice, nullptr, -1, after);
  }

  LayerInputs traced(double seconds, Tracer& tr, Report& rep) override {
    LayerInputs in;
    std::vector<double> fps;
    for (Pair& p : loop(seconds, &tr, rep)) {
      fps.push_back(p.par.fps());
      in.point_ms.push_back(p.par.wall_s() * 1e3);
      in.speedup_vs_seq.push_back(p.seq.run_s / p.par.run_s);
      in.runs.push_back(std::move(p.par));
    }
    in.fps = median(fps);
    return in;
  }

 private:
  static constexpr Duration kSlice = 100_ms;
  struct Pair {
    RunStats seq;
    RunStats par;
  };

  WorldFactory factory(const CitySpec& s) const {
    return [s, seed = seed_](bool traced) { return build_city(s, seed, traced); };
  }

  std::vector<Pair> loop(double seconds, Tracer* tr, Report& rep) {
    std::vector<Pair> pairs;
    const Budget budget{seconds, min_runs_};
    const AfterRun keep_engine = [](World& w, RunStats& r, int) {
      r.engine = w.scn->shard_engine().stats();
    };
    while (budget.more(pairs.size())) {
      const std::size_t k = pairs.size();
      Pair p{run_world(factory(seq_), kSlice, tr, -1),
             run_world(factory(par_), kSlice, tr, -1, keep_engine)};
      rep.check(same_partition_invariants(p.seq, p.par),
                "run " + std::to_string(k) +
                    ": shards=1 and shards=64 agree on per-segment frames and kernel events");
      if (k == 0) {
        rep.sim_digest = p.seq.digest;
        rep.check(p.seq.counters["core.gateway.forwarded"] > 0, "gateways forward events");
      } else {
        rep.check(ok_counters(p.seq, pairs.front().seq) && ok_counters(p.par, pairs.front().par),
                  "run " + std::to_string(k) + " replays run 0 at every slice boundary");
      }
      pairs.push_back(std::move(p));
    }
    return pairs;
  }

  static bool same_partition_invariants(const RunStats& seq, const RunStats& par) {
    for (const auto& [name, v] : seq.counters) {
      const bool frames = name.find(".bus.frames_") != std::string::npos;
      if (!frames && name != "kernels.events_fired") continue;
      const auto it = par.counters.find(name);
      if (it == par.counters.end() || it->second != v) return false;
    }
    return seq.boundaries == par.boundaries;
  }

  CitySpec seq_;
  CitySpec par_;
  std::uint64_t seed_;
  std::size_t min_runs_;
};

/// sweep-short: independent 16-node points through bench::sweep on every
/// host CPU, in batches; every 64th point is re-run serially.
class Sweep final : public Workload {
 public:
  Sweep(std::size_t batch, std::uint64_t seed, std::size_t min_batches)
      : batch_{batch}, seed_{seed}, min_batches_{min_batches} {
    spec_.nodes = 16;
    spec_.length = 250_ms;
  }

  void measure(double seconds, Report& rep) override {
    const Result res = loop(seconds, nullptr, rep);
    rep.from_samples("frames_per_wall_s", res.point_fps);
    rep.from_samples("runs_per_s", res.batch_rate);
    rep.from_samples("setup_s", res.serial_setup);
  }

  double reference_fps() override {
    Report scratch{"reference"};
    return median(loop(0.0, nullptr, scratch, 1).point_fps);
  }

  RunStats ablation_run(Layers layers, const AfterRun& after) override {
    MixedSpec s = spec_;
    s.layers = layers;
    return run_world(factory(s, point_seed(0)), kSlice, nullptr, -1, after);
  }

  LayerInputs traced(double seconds, Tracer& tr, Report& rep) override {
    const Result res = loop(seconds, &tr, rep);
    LayerInputs in;
    in.runs = res.sample;
    in.fps = median(res.point_fps);
    in.point_ms = res.point_ms;
    in.worker_idle_share = median(res.idle_share);
    in.speedup_vs_serial = median(res.batch_rate) * median(res.serial_wall);
    return in;
  }

 private:
  static constexpr Duration kSlice = 250_ms;
  static constexpr std::size_t kSerialEvery = 64;

  struct Result {
    std::vector<double> point_fps, point_ms, batch_rate, idle_share;
    std::vector<double> serial_setup, serial_wall;
    std::vector<RunStats> sample;  ///< the serially re-run points
  };

  std::uint64_t point_seed(std::size_t i) const { return seed_ * 1'000'000 + i; }

  static WorldFactory factory(const MixedSpec& s, std::uint64_t seed) {
    return [s, seed](bool traced) { return build_mixed(s, seed, traced); };
  }

  Result loop(double seconds, Tracer* tr, Report& rep, std::size_t min_batches = 0) {
    Result res;
    const unsigned threads = host_cpus();
    const Budget budget{seconds, min_batches > 0 ? min_batches : min_batches_};
    for (std::size_t b = 0; budget.more(b); ++b) {
      const std::size_t first = b * batch_;
      const int span = tr != nullptr ? tr->begin("batch", -1) : -1;
      const auto t0 = SteadyClock::now();
      const std::vector<RunStats> points = sweep(
          batch_,
          [&](std::size_t j) {
            return run_world(factory(spec_, point_seed(first + j)), kSlice, tr, span);
          },
          threads);
      const double wall = seconds_between(t0, SteadyClock::now());
      if (tr != nullptr) tr->end(span);
      double busy = 0.0;
      for (const RunStats& p : points) {
        res.point_fps.push_back(p.fps());
        res.point_ms.push_back(p.wall_s() * 1e3);
        busy += p.wall_s();
      }
      res.batch_rate.push_back(static_cast<double>(batch_) / wall);
      res.idle_share.push_back(1.0 - busy / (wall * threads));
      rep.json.row({{"points", static_cast<double>(batch_)},
                    {"wall_s", wall},
                    {"runs_per_s", static_cast<double>(batch_) / wall}});

      for (std::size_t j = 0; j < batch_; j += kSerialEvery) {
        RunStats again = run_world(factory(spec_, point_seed(first + j)), kSlice, nullptr, -1);
        rep.check(ok_counters(again, points[j]),
                  "point " + std::to_string(first + j) + " re-run serially gives identical counters");
        if (first + j == 0) rep.sim_digest = again.digest;
        res.serial_setup.push_back(again.setup_s);
        res.serial_wall.push_back(again.wall_s());
        res.sample.push_back(std::move(again));
      }
    }
    return res;
  }

  MixedSpec spec_;
  std::size_t batch_;
  std::uint64_t seed_;
  std::size_t min_batches_;
};

// ------------------------------------------------------------ per-layer

Counters summed(const std::vector<RunStats>& runs) {
  Counters sum;
  for (const RunStats& r : runs)
    for (const auto& [k, v] : r.counters) sum[k] += v;
  return sum;
}

void fill_per_layer(const LayerInputs& in, const Ablation& ab, const Tracer& tr,
                    Report& rep) {
  auto& m = rep.metrics;
  const Counters c = summed(in.runs);
  double frames = 0.0, frames_error = 0.0, util = 0.0;
  int segments = 0;
  for (const auto& [k, v] : c) {
    if (k.size() > 17 && k.compare(k.size() - 17, 17, ".bus.frames_error") == 0)
      frames_error += v;
    if (k.find(".bus.frames_") != std::string::npos) frames += v;
    if (k.find(".bus.utilization") != std::string::npos) {
      util += v;
      ++segments;
    }
  }
  m["sim.events_scheduled_per_frame"] = ratio(get(c, "kernels.events_scheduled"), frames);
  m["sim.events_fired_per_frame"] = ratio(get(c, "kernels.events_fired"), frames);
  m["sim.events_cancelled_per_frame"] = ratio(get(c, "kernels.events_cancelled"), frames);
  m["sim.cancel_share"] =
      ratio(get(c, "kernels.events_cancelled"), get(c, "kernels.events_scheduled"));
  m["sim.heap_compactions_per_mframe"] = ratio(get(c, "kernels.heap_compactions"), frames) * 1e6;
  std::vector<double> slice_ms = tr.durations("slice");
  for (double& v : slice_ms) v /= 1e6;
  m["sim.slice_wall_ms.p50"] = median(slice_ms);
  m["sim.slice_wall_ms.p99"] = quantile(slice_ms, 0.99);

  const auto med = [&ab](Layers l) {
    const auto it = ab.fps.find(l);
    return it == ab.fps.end() ? 0.0 : median(it->second);
  };
  const double ns_raw = ratio(1e9, med(Layers::kRaw));
  const double ns_full = ratio(1e9, med(Layers::kFull));
  const double ns_rec = ratio(1e9, med(Layers::kRecorded));
  const double ns_det = ratio(1e9, med(Layers::kDetected));
  m["canbus.raw_ns_per_frame"] = ns_raw;
  // Utilization is a share per segment and run, so average it.
  m["canbus.utilization"] =
      ratio(util, static_cast<double>(segments) * static_cast<double>(in.runs.size()));
  m["canbus.error_frame_share"] = ratio(frames_error, frames);
  m["core.ns_per_frame"] = ns_full - ns_raw;
  const LogLinearHistogram* pub = tr.aggregate("publish");
  const LogLinearHistogram* get_ev = tr.aggregate("getEvent");
  m["core.publish_ns.p50"] = pub != nullptr ? pub->quantile(0.5) : 0.0;
  m["core.publish_ns.p99"] = pub != nullptr ? pub->quantile(0.99) : 0.0;
  m["core.get_event_ns.p50"] = get_ev != nullptr ? get_ev->quantile(0.5) : 0.0;
  m["core.srt.deadline_miss_share"] =
      ratio(get(c, "core.srt.deadline_missed"), get(c, "core.srt.published"));
  m["core.srt.promotions_per_kframe"] = ratio(get(c, "core.srt.promotions"), frames) * 1e3;
  m["core.hrt.retries_per_kframe"] = ratio(get(c, "core.hrt.retries"), frames) * 1e3;
  m["core.nrt.frames_per_message"] =
      ratio(get(c, "core.nrt.frames_sent"), get(c, "core.nrt.messages_sent"));
  m["core.gateway.forwards_per_frame"] = ratio(get(c, "core.gateway.forwarded"), frames);

  // Engine: the sharded runs (all zero for unsharded workloads).
  double epochs = 0, shard_runs = 0, skips = 0, spins = 0, parks = 0, handoffs = 0, batches = 0,
         bytes = 0, sharded_sim_s = 0;
  std::array<std::uint64_t, 64> horizon{};
  std::vector<double> imbalance;
  for (const RunStats& r : in.runs) {
    if (!r.engine) continue;
    const ShardEngine::Stats& s = *r.engine;
    sharded_sim_s += r.sim_s;
    epochs += static_cast<double>(s.epochs);
    shard_runs += static_cast<double>(s.shard_runs);
    skips += static_cast<double>(s.shard_skips);
    spins += static_cast<double>(s.barrier_spins);
    parks += static_cast<double>(s.barrier_parks);
    handoffs += static_cast<double>(s.handoffs);
    batches += static_cast<double>(s.handoff_batches);
    bytes += static_cast<double>(s.handoff_bytes);
    for (std::size_t b = 0; b < horizon.size(); ++b) horizon[b] += s.horizon_advance_log2[b];
    if (!s.per_shard_runs.empty()) {
      double mx = 0, sum = 0;
      for (const std::uint64_t x : s.per_shard_runs) {
        mx = std::max(mx, static_cast<double>(x));
        sum += static_cast<double>(x);
      }
      imbalance.push_back(ratio(mx, sum / static_cast<double>(s.per_shard_runs.size())));
    }
  }
  double horizon_p50 = 0.0;
  {
    std::uint64_t total = 0;
    for (const std::uint64_t x : horizon) total += x;
    if (total > 0) {
      const std::uint64_t rank = quantile_rank(total, 0.5);
      std::uint64_t seen = 0;
      for (std::size_t b = 0; b < horizon.size(); ++b) {
        seen += horizon[b];
        if (seen > rank) {
          horizon_p50 = static_cast<double>(b);
          break;
        }
      }
    }
  }
  m["engine.epochs_per_sim_s"] = ratio(epochs, sharded_sim_s);
  m["engine.shard_runs_per_epoch"] = ratio(shard_runs, epochs);
  m["engine.skip_share"] = ratio(skips, shard_runs + skips);
  m["engine.horizon_log2.p50"] = horizon_p50;
  m["engine.runs_imbalance"] = median(imbalance);
  m["engine.barrier_park_share"] = ratio(parks, spins + parks);
  m["engine.handoffs_per_epoch"] = ratio(handoffs, epochs);
  m["engine.handoff_bytes_per_batch"] = ratio(bytes, batches);
  m["engine.speedup_vs_seq"] = median(in.speedup_vs_seq);

  m["trace.recorder_ns_per_frame"] = ns_rec - ns_full;
  m["trace.detectors_ns_per_frame"] = ns_det - ns_rec;
  m["trace.recorder_overhead_pct"] =
      100.0 * ratio(med(Layers::kFull) - med(Layers::kRecorded), med(Layers::kFull));
  m["trace.rteb_bytes_per_frame"] = median(ab.rteb_bytes_per_frame);
  const double read_ns = median(ab.read_ns_per_record);
  m["trace.read_ns_per_record"] = read_ns;
  m["trace.read_records_per_s"] = ratio(1e9, read_ns);

  std::vector<double> topo, warm, world, down;
  for (const RunStats& r : in.runs) {
    topo.push_back(r.topology_s * 1e3);
    warm.push_back(r.warmup_s * 1e3);
    world.push_back(r.setup_s * 1e3);
    down.push_back(r.teardown_s * 1e3);
  }
  m["setup.topology_ms"] = median(topo);
  m["setup.warmup_ms"] = median(warm);
  m["setup.world_ms"] = median(world);
  m["setup.teardown_ms"] = median(down);
  m["sweep.point_ms.p50"] = median(in.point_ms);
  m["sweep.point_ms.p99"] = quantile(in.point_ms, 0.99);
  m["sweep.worker_idle_share"] = in.worker_idle_share;
  m["sweep.speedup_vs_serial"] = in.speedup_vs_serial;
  m["trace_overhead_pct"] = 100.0 * ratio(in.untraced_fps - in.fps, in.untraced_fps);
}

// ------------------------------------------------------------ main

std::unique_ptr<Workload> make_workload(const Options& o) {
  const std::size_t min_runs = 3;
  if (o.workload == "mixed-bus") {
    MixedSpec s;
    s.nodes = 32;
    s.length = o.smoke ? 500_ms : 64_s;
    return std::make_unique<SingleWorld>(s, o.seed, false, o.smoke ? 2 : min_runs);
  }
  if (o.workload == "observe-attack") {
    MixedSpec s;
    s.nodes = 16;
    s.length = o.smoke ? 1_s : 48_s;
    s.layers = Layers::kDetected;
    s.attacks = true;
    return std::make_unique<SingleWorld>(s, o.seed, true, o.smoke ? 2 : min_runs);
  }
  if (o.workload == "city-grid64")
    return std::make_unique<City>(o.smoke ? 200_ms : 3_s, o.seed, o.smoke ? 2 : min_runs);
  if (o.workload == "sweep-short")
    return std::make_unique<Sweep>(o.smoke ? 64 : 1024, o.seed, o.smoke ? 1 : 2);
  return nullptr;
}

/// Writes the BENCH json into `dir`. A smoke run is refused when `dir` is
/// the source root, so quick numbers never land beside committed results.
bool write_json(const Options& o, Report& rep) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const std::string root = RTEC_SOURCE_ROOT;
  if (o.smoke && !root.empty() &&
      fs::weakly_canonical(o.out, ec) == fs::weakly_canonical(root, ec)) {
    std::fprintf(stderr, "rtec_bench: refusing to write a --smoke result into the source root\n");
    return false;
  }
  fs::create_directories(o.out, ec);
  std::ofstream f{fs::path{o.out} / ("BENCH_" + rep.name + ".json")};
  if (!f) return false;
  f << rep.json.to_json();
  return f.good();
}

int run(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o);
  if (w == nullptr) {
    std::fprintf(stderr, "rtec_bench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  const double seconds = o.smoke ? 0.0 : o.seconds;
  Report rep{"rtec_" + o.workload + "_seed" + std::to_string(o.seed) +
             (o.trace ? "_trace" : "") + (o.label.empty() ? "" : "_" + o.label)};
  if (!o.trace) {
    w->measure(seconds, rep);
    rep.metrics["peak_rss_mib"] = peak_rss_mib();
  } else {
    // Phase A: untraced, interleaved ablation ladder plus the workload's
    // own configuration (the trace-overhead reference).
    Ablation ab;
    std::vector<double> reference;
    const Budget budget{seconds / 2, 1};
    for (std::size_t cycle = 0; budget.more(cycle); ++cycle) {
      reference.push_back(w->reference_fps());
      for (const Layers l : {Layers::kRaw, Layers::kFull, Layers::kRecorded, Layers::kDetected}) {
        AfterRun after = nullptr;
        if (l == Layers::kRecorded) {
          // Trace size and decode speed, on segment 0 of the recorded world.
          after = [&ab](World& world, RunStats& r, int) {
            const double all_frames = get(r.counters, "net000.bus.frames_ok") +
                                      get(r.counters, "net000.bus.frames_error");
            ab.rteb_bytes_per_frame.push_back(
                ratio(get(r.counters, "net000.rteb.bytes"), all_frames));
            const TraceRead t = read_trace(world, 1, nullptr, -1);
            if (t.ok && t.records > 0)
              ab.read_ns_per_record.push_back(t.seconds.front() * 1e9 /
                                              static_cast<double>(t.records));
          };
        }
        ab.fps[l].push_back(w->ablation_run(l, after).fps());
      }
    }
    // Phase B: the workload again, with spans.
    Tracer tr;
    LayerInputs in = w->traced(seconds / 2, tr, rep);
    in.untraced_fps = median(reference);
    fill_per_layer(in, ab, tr, rep);
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(o.out, ec);
    const std::string spans = (fs::path{o.out} / ("spans_" + o.workload + ".json")).string();
    if (!tr.write_json(spans))
      std::fprintf(stderr, "rtec_bench: could not write %s\n", spans.c_str());
  }

  const auto& defs = o.trace ? std::vector<MetricDef>(std::begin(kPerLayer), std::end(kPerLayer))
                             : std::vector<MetricDef>(std::begin(kEndToEnd), std::end(kEndToEnd));
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(rep.sim_digest));
  rep.json.meta("workload", o.workload);
  rep.json.meta("seed", static_cast<double>(o.seed));
  rep.json.meta("trace", o.trace ? 1.0 : 0.0);
  rep.json.meta("smoke", o.smoke ? 1.0 : 0.0);
  rep.json.meta("seconds", o.seconds);
  rep.json.meta("commit", RTEC_BENCH_COMMIT);
  rep.json.meta("compiler", RTEC_BENCH_COMPILER);
  rep.json.meta("build_type", RTEC_BENCH_BUILD_TYPE);
  rep.json.meta("host_cpus", static_cast<double>(host_cpus()));
  rep.json.meta("sim_digest", digest_hex);
  rep.json.meta("attempted", static_cast<double>(rep.attempted));
  rep.json.meta("failed", static_cast<double>(rep.failed));
  for (const MetricDef& d : defs) {
    rep.json.meta(std::string{"metric."} + d.name, rep.metrics.at(d.name));
    rep.json.meta(std::string{"unit."} + d.name, d.unit);
  }
  if (!write_json(o, rep)) std::fprintf(stderr, "rtec_bench: BENCH json not written\n");

  for (const MetricDef& d : defs)
    std::printf("%s %.10g %s\n", d.name, rep.metrics.at(d.name), d.unit);
  std::printf("sim_digest %s\n", digest_hex);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              rep.failed == 0 ? "true" : "false", rep.attempted, rep.failed);
  for (std::size_t i = 0; i < defs.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                defs[i].name, rep.metrics.at(defs[i].name), defs[i].unit);
  std::printf("}}\n");
  return rep.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> o = parse(argc, argv);
  if (!o) return 2;
  try {
    return run(*o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtec_bench: %s\n", e.what());
    return 1;
  }
}
