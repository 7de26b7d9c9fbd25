// E12 — the analytic fast path: convolution-based probabilistic WCRT
// (sched/prob_rta) cross-validated against the simulator, with paired
// wall-time accounting.
//
// Table 1: worst-case error position (the gated configuration — the
// analytic distribution is purely atomic and must match the simulated
// histogram quantiles to within ONE bit-time grid step; the same gate
// runs as a tier-1 ctest in tests/test_prob_rta.cpp).
//
// Table 2: uniform error positions (the fault framework's default). The
// analytic quantiles are exact; the simulated ones carry sampling noise,
// so these rows are reported, not gated (the DKW-bracketed check lives in
// the ctest).
//
// The paired timing answers ONE admission question both ways. The
// analytic side evaluates the full response distribution (quantiles +
// fault-assumption-violation probability) in one query. The simulation
// side must run enough channel instances to *certify* that violation
// rate empirically — rows use the binomial sample size for ±5% relative
// precision at 99% confidence, n = z²(1−m)/(ε²m) with m = p^(k+1) —
// because an admission verdict backed by a handful of observed misses is
// not an answer. Quick mode (CI smoke, the bench_analytic_quick ctest)
// runs a fixed small grid instead; full mode is what BENCH_analytic.json
// commits. In both modes the exit status is the worst-position quantile
// gate alone: the speedup is printed, not gated, because wall time on a
// shared host is noise.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/analytic_scenario.hpp"
#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "sched/prob_rta.hpp"

using namespace rtec;

namespace {

struct Point {
  int dlc = 8;
  int k = 2;
  double p = 0.15;
  std::uint64_t seed = 11;
  bool worst = true;  ///< pin the error position to the last bit
  int rounds = 2000;
};

struct Row {
  bench::AnalyticScenarioResult sim;
  double sim_wall_ms = 0.0;   ///< wall time of the simulation run
  double ana_query_us = 0.0;  ///< wall time of ONE analytic admission query
  ResponseDistribution ana;
};

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

/// Instances the simulation needs to certify the fault-assumption-
/// violation rate m = p^(k+1) to ±5% relative at 99% confidence
/// (two-sided normal approximation of the binomial).
int certification_rounds(int k, double p) {
  const double m = std::pow(p, k + 1);
  const double z = 2.576;  // 99%
  const double eps = 0.05;
  const double n = z * z * (1.0 - m) / (eps * eps * m);
  return std::max(2000, static_cast<int>(std::ceil(n)));
}

Row run_point(const Point& pt) {
  Row row;
  bench::AnalyticScenarioConfig cfg;
  cfg.dlc = pt.dlc;
  cfg.omission_degree = pt.k;
  cfg.fault_rate = pt.p;
  if (pt.worst) cfg.fixed_fault_position = 1.0;
  cfg.rounds = pt.rounds;
  cfg.seed = pt.seed;

  const double t0 = now_ms();
  row.sim = bench::run_analytic_scenario(cfg);
  row.sim_wall_ms = now_ms() - t0;

  OmissionModel model;
  model.p = pt.p;
  model.worst_case_position = pt.worst;

  // Time the analytic query: repeat until ≥ 50 ms of steady-clock time so
  // the per-query figure is stable even at microsecond granularity.
  const double t1 = now_ms();
  int reps = 0;
  double guard = 0.0;  // defeat dead-code elimination across reps
  do {
    row.ana = hrt_response_distribution(row.sim.frame_bits, pt.k, model);
    guard += row.ana.pmf.mean();
    ++reps;
  } while (now_ms() - t1 < 50.0);
  row.ana_query_us = (now_ms() - t1) * 1000.0 / reps;
  if (guard < 0.0) std::printf("%f", guard);  // never taken
  return row;
}

}  // namespace

int main() {
  bench::title("E12", "analytic probabilistic WCRT vs simulation");
  const bool quick = bench::quick_mode();
  const std::vector<std::uint64_t> seeds =
      quick ? std::vector<std::uint64_t>{11} :
              std::vector<std::uint64_t>{11, 12, 13};

  const BusConfig bus;
  const double bit_us = static_cast<double>(bus.bit_time().ns()) / 1000.0;
  const auto bits_us = [bit_us](std::int64_t bits) {
    return static_cast<double>(bits) * bit_us;
  };

  bench::BenchJson bj{"analytic"};
  bj.meta("generated_by", "bench_analytic");
  bj.meta("threads", static_cast<double>(bench::sweep_threads()));
  bj.meta("host_cpus",
          static_cast<double>(std::thread::hardware_concurrency()));
  bj.meta("mode", quick ? "quick" : "full");
  bj.meta("certification", "violation rate +-5% relative at 99% confidence");

  std::vector<Point> grid;
  for (int dlc : {2, 8})
    for (const auto& [k, p] : {std::pair{2, 0.15}, std::pair{3, 0.4}})
      for (std::uint64_t seed : seeds)
        grid.push_back({dlc, k, p, seed, true,
                        quick ? 2000 : certification_rounds(k, p)});
  const std::size_t worst_rows = grid.size();
  for (const auto& [k, p] : {std::pair{2, 0.15}, std::pair{3, 0.4}})
    for (std::uint64_t seed : seeds)
      grid.push_back({8, k, p, seed, false,
                      quick ? 2000 : certification_rounds(k, p)});

  const double wall0 = now_ms();
  const std::vector<Row> rows = bench::sweep(
      grid.size(), [&](std::size_t i) { return run_point(grid[i]); });

  bool all_within = true;
  double worst_speedup = 1e300;
  const auto emit = [&](std::size_t i) {
    const Point& pt = grid[i];
    const Row& r = rows[i];
    const double sim_p50 = r.sim.latency.quantile(0.5) / 1000.0;
    const double sim_p90 = r.sim.latency.quantile(0.9) / 1000.0;
    const double sim_p99 = r.sim.latency.quantile(0.99) / 1000.0;
    const double sim_p999 = r.sim.latency.quantile(0.999) / 1000.0;
    const double ana_p50 = bits_us(r.ana.pmf.quantile(0.5));
    const double ana_p90 = bits_us(r.ana.pmf.quantile(0.9));
    const double ana_p99 = bits_us(r.ana.pmf.quantile(0.99));
    const double ana_p999 = bits_us(r.ana.pmf.quantile(0.999));
    const double speedup = r.sim_wall_ms * 1000.0 / r.ana_query_us;
    worst_speedup = std::min(worst_speedup, speedup);

    bool within = true;
    if (pt.worst) {
      // The tier-1 gate, re-checked here: analytic p50/p90/p99 within one
      // bit-time grid step of the simulated histogram. p999 is reported
      // but not gated (its conditional rank sits closer to an atom
      // boundary than sampling resolves at gate-size runs).
      within = std::abs(sim_p50 - ana_p50) <= bit_us + 1e-9 &&
               std::abs(sim_p90 - ana_p90) <= bit_us + 1e-9 &&
               std::abs(sim_p99 - ana_p99) <= bit_us + 1e-9;
      all_within &= within;
    }

    const double miss_emp = static_cast<double>(r.sim.failures) /
                            static_cast<double>(pt.rounds);
    std::printf("  %-7s %-4d %-2d %-5.2f %-5llu %7d %7.1f/%7.1f "
                "%7.1f/%7.1f %9.1f %9.3f %9.0fx %s\n",
                pt.worst ? "worst" : "uniform", pt.dlc, pt.k, pt.p,
                static_cast<unsigned long long>(pt.seed), pt.rounds, sim_p99,
                ana_p99, sim_p999, ana_p999, r.sim_wall_ms, r.ana_query_us,
                speedup, pt.worst ? (within ? "ok" : "DIVERGED") : "-");
    bj.row({{"worst_position", pt.worst ? 1.0 : 0.0},
            {"dlc", static_cast<double>(pt.dlc)},
            {"k", static_cast<double>(pt.k)},
            {"p", pt.p},
            {"seed", static_cast<double>(pt.seed)},
            {"rounds", static_cast<double>(pt.rounds)},
            {"frame_bits", static_cast<double>(r.sim.frame_bits)},
            {"sim_p50_us", sim_p50},
            {"sim_p90_us", sim_p90},
            {"sim_p99_us", sim_p99},
            {"sim_p999_us", sim_p999},
            {"ana_p50_us", ana_p50},
            {"ana_p90_us", ana_p90},
            {"ana_p99_us", ana_p99},
            {"ana_p999_us", ana_p999},
            {"miss_analytic", r.ana.miss_probability},
            {"miss_empirical", miss_emp},
            {"tail_epsilon", r.ana.tail_epsilon},
            {"within_tolerance", pt.worst ? (within ? 1.0 : 0.0) : -1.0},
            {"sim_wall_ms", r.sim_wall_ms},
            {"ana_query_us", r.ana_query_us},
            {"speedup", speedup}});
  };

  std::printf("\n  Table 1 — worst-case error position (gated: ≤ 1 bit step)\n");
  std::printf("  %-7s %-4s %-2s %-5s %-5s %7s %-15s %-15s %9s %9s %10s\n",
              "mode", "dlc", "k", "p", "seed", "rounds", " p99 sim/ana us",
              " p999 sim/ana us", "sim ms", "query us", "speedup");
  bench::rule();
  for (std::size_t i = 0; i < worst_rows; ++i) emit(i);
  bench::rule();

  std::printf("\n  Table 2 — uniform error position (reported, ctest gates "
              "via DKW bracket)\n");
  bench::rule();
  for (std::size_t i = worst_rows; i < grid.size(); ++i) emit(i);
  bench::rule();

  bj.meta("wall_s_total", (now_ms() - wall0) / 1000.0);
  if (!bj.write()) bench::note("warning: could not write BENCH_analytic.json");
  bench::note("worst-position quantiles within 1 grid step everywhere: %s",
              all_within ? "YES" : "NO (!!)");
  bench::note("minimum analytic-vs-simulation speedup: %.0fx%s",
              worst_speedup,
              quick ? " (quick mode: sims not certification-sized)" : "");
  return all_within ? 0 : 1;
}
