#pragma once

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

/// \file sweep.hpp
/// Thread-pooled deterministic sweep runner + machine-readable benchmark
/// output (`BENCH_<name>.json`).
///
/// Every experiment harness in this repo is a sweep over independent
/// points, each of which builds its own `Scenario`/`Simulator` (share-
/// nothing) from an explicit seed. `sweep()` executes those points on a
/// worker pool and returns the results in index order, so the output is
/// **byte-identical regardless of thread count** — parallelism changes only
/// wall time, never results (verified by tests/test_sweep.cpp).
///
/// `BenchJson` mirrors each harness's result table into BENCH_<name>.json
/// (rows + wall-time metadata) so the perf trajectory is trackable
/// PR-over-PR and CI can archive it as an artifact.

namespace rtec::bench {

/// Worker count resolution: explicit argument > RTEC_BENCH_THREADS env >
/// hardware concurrency (min 1).
inline unsigned sweep_threads(unsigned threads = 0) {
  if (threads > 0) return threads;
  if (const char* env = std::getenv("RTEC_BENCH_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// True when the harness should shrink itself for CI smoke runs
/// (RTEC_BENCH_QUICK=1): fewer points, shorter simulated time.
inline bool quick_mode() {
  const char* env = std::getenv("RTEC_BENCH_QUICK");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Runs `fn(i)` for every i in [0, n) across a pool of worker threads and
/// returns the results in index order. `fn` must be safe to invoke
/// concurrently from several threads — i.e. each point must own all its
/// mutable state (its own Scenario/Simulator/Rng seeded from `i`), which
/// every harness here satisfies by construction.
template <typename Fn>
auto sweep(std::size_t n, Fn&& fn, unsigned threads = 0)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(std::is_default_constructible_v<R>,
                "sweep point results must be default-constructible");
  std::vector<R> out(n);
  const std::size_t workers =
      std::min<std::size_t>(n, sweep_threads(threads));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) out[i] = fn(i);
    return out;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < n; i = next.fetch_add(1, std::memory_order_relaxed))
        out[i] = fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
  return out;
}

/// Where a bench writes its output file `file`: the current directory, or
/// $RTEC_BENCH_DIR when set.
inline std::string output_path(std::string_view file) {
  std::string dir;
  if (const char* env = std::getenv("RTEC_BENCH_DIR")) dir = env;
  if (!dir.empty() && dir.back() != '/') dir += '/';
  return dir + std::string{file};
}

/// Machine-readable benchmark emitter. Usage:
///
///   BenchJson bj{"scale"};
///   bj.meta("sim_seconds", 10.0);
///   for (...) bj.row({{"nodes", 64}, {"frames_per_wall_s", r.fps}});
///   bj.meta("wall_s_total", total);
///   bj.write();              // -> BENCH_scale.json
///
/// Rows hold only numeric cells so serialization is deterministic
/// (printf %.17g round-trips doubles exactly).
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_{std::move(name)} {}

  /// Adds run metadata (wall time, thread count, mode, ...). Metadata is
  /// allowed to differ between runs; `rows` are the comparable payload.
  void meta(std::string_view key, double value) {
    meta_.emplace_back(std::string{key}, number(value));
  }
  void meta(std::string_view key, std::string_view value) {
    meta_.emplace_back(std::string{key}, quote(value));
  }

  /// Appends one result row; cells keep insertion order.
  void row(std::initializer_list<std::pair<std::string_view, double>> cells) {
    rows_.emplace_back();
    for (const auto& [k, v] : cells)
      rows_.back().emplace_back(std::string{k}, v);
  }

  /// The serialized "rows" array alone — the thread-count-invariant part
  /// (used by the sweep determinism test).
  [[nodiscard]] std::string rows_json() const {
    std::ostringstream os;
    os << "[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << (r == 0 ? "\n" : ",\n") << "    {";
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        if (c > 0) os << ", ";
        os << quote(rows_[r][c].first) << ": " << number(rows_[r][c].second);
      }
      os << "}";
    }
    os << "\n  ]";
    return os.str();
  }

  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os << "{\n  \"name\": " << quote(name_) << ",\n  \"meta\": {";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "    " << quote(meta_[i].first) << ": "
         << meta_[i].second;
    }
    os << "\n  },\n  \"rows\": " << rows_json() << "\n}\n";
    return os.str();
  }

  /// Writes BENCH_<name>.json to output_path(). Returns false on I/O
  /// failure.
  bool write() const {
    std::ofstream out{output_path("BENCH_" + name_ + ".json")};
    if (!out) return false;
    out << to_json();
    return out.good();
  }

 private:
  static std::string number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  static std::string quote(std::string_view s) {
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"' || ch == '\\') {
        out += '\\';
        out += ch;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", ch);
        out += buf;
      } else {
        out += ch;
      }
    }
    out += '"';
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::vector<std::pair<std::string, double>>> rows_;
};

}  // namespace rtec::bench
