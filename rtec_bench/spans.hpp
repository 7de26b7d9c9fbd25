#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "rtec_bench/stats.hpp"

/// \file spans.hpp
/// Bench-side span tracing for `rtec_bench --trace 1`. Spans are taken
/// around the calls the benchmark makes into each layer (Scenario
/// construction, run_for slices, publish, getEvent, read_all, ...), so the
/// program itself carries no instrumentation.
///
/// Low-rate spans (runs, set-up, slices, trace reads) are kept raw: name,
/// start, end and parent. High-rate spans (publish, getEvent) would cost
/// more memory than the run, so each world aggregates them into a
/// LogLinearHistogram per name and merges it here under its parent's name.
/// Everything is written as one JSON document at exit.

namespace rtec::bench {

using SteadyClock = std::chrono::steady_clock;

/// Nanoseconds between two steady-clock readings.
inline std::uint64_t elapsed_ns(SteadyClock::time_point from,
                                SteadyClock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  ///< index into the span list, -1 for a root
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
inline std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::clamp(lo, s.start_ns, s.end_ns);
      hi = std::clamp(hi, s.start_ns, s.end_ns);
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = s.end_ns - s.start_ns - covered;
  }
  return out;
}

/// Thread-safe span sink. A null Tracer pointer means tracing is off;
/// every call site checks it, so untraced runs pay one branch.
class Tracer {
 public:
  Tracer() : origin_{SteadyClock::now()} {}

  [[nodiscard]] std::uint64_t now_ns() const {
    return elapsed_ns(origin_, SteadyClock::now());
  }

  /// Records a finished raw span; returns its index (a parent for later
  /// spans).
  int add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
          int parent) {
    const std::lock_guard<std::mutex> lock{mu_};
    spans_.push_back({std::move(name), start_ns, end_ns, parent});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Opens a raw span now; close it with end().
  int begin(std::string name, int parent) {
    return add(std::move(name), now_ns(), 0, parent);
  }
  void end(int idx) {
    const std::uint64_t t = now_ns();
    const std::lock_guard<std::mutex> lock{mu_};
    spans_[static_cast<std::size_t>(idx)].end_ns = t;
  }

  /// Merges a world's aggregated high-rate spans named `name`, all of
  /// which ran inside spans named `parent`.
  void merge(const std::string& name, const std::string& parent,
             const LogLinearHistogram& h) {
    const std::lock_guard<std::mutex> lock{mu_};
    Aggregate& a = aggregates_[name];
    a.parent = parent;
    a.hist.merge(h);
  }

  // Read accessors: call once every thread that records has joined.

  [[nodiscard]] const LogLinearHistogram* aggregate(
      const std::string& name) const {
    const auto it = aggregates_.find(name);
    return it == aggregates_.end() ? nullptr : &it->second.hist;
  }

  /// Durations (ns) of every raw span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    return out;
  }

  /// Total self time per span name. Aggregated spans are charged against
  /// their parent name (they have no individual intervals).
  [[nodiscard]] std::map<std::string, std::uint64_t> self_by_name() const {
    std::map<std::string, std::uint64_t> out;
    const std::vector<std::uint64_t> self = self_times(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    for (const auto& [name, a] : aggregates_) {
      out[name] += a.hist.sum();
      std::uint64_t& p = out[a.parent];
      p -= std::min(p, a.hist.sum());
    }
    return out;
  }

  /// Writes {"spans": [...], "summary": {...}, "aggregates": {...},
  /// "self_ns": {...}}. The summary gives each raw span name's count,
  /// median and the highest percentile with at least 10 samples beyond it.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n    {\"name\": \"%s\", \"start_ns\": %llu, "
                   "\"end_ns\": %llu, \"parent\": %d}",
                   i == 0 ? "" : ",", s.name.c_str(),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.parent);
    }
    std::fprintf(f, "\n  ],\n  \"summary\": {");
    std::map<std::string, std::vector<double>> by_name;
    for (const Span& s : spans_)
      by_name[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns));
    bool first = true;
    for (const auto& [name, d] : by_name) {
      std::fprintf(f, "%s\n    \"%s\": {\"count\": %zu, \"p50_ns\": %.1f",
                   first ? "" : ",", name.c_str(), d.size(), median(d));
      if (const auto tail = tail_percentile(d))
        std::fprintf(f, ", \"tail_q\": %g, \"tail_ns\": %.1f", tail->q, tail->value);
      std::fprintf(f, "}");
      first = false;
    }
    std::fprintf(f, "\n  },\n  \"aggregates\": {");
    first = true;
    for (const auto& [name, a] : aggregates_) {
      std::fprintf(f,
                   "%s\n    \"%s\": {\"parent\": \"%s\", \"count\": %llu, "
                   "\"total_ns\": %llu, \"p50_ns\": %.1f, \"p99_ns\": %.1f}",
                   first ? "" : ",", name.c_str(), a.parent.c_str(),
                   static_cast<unsigned long long>(a.hist.count()),
                   static_cast<unsigned long long>(a.hist.sum()),
                   a.hist.quantile(0.5), a.hist.quantile(0.99));
      first = false;
    }
    std::fprintf(f, "\n  },\n  \"self_ns\": {");
    first = true;
    for (const auto& [name, ns] : self_by_name()) {
      std::fprintf(f, "%s\n    \"%s\": %llu", first ? "" : ",", name.c_str(),
                   static_cast<unsigned long long>(ns));
      first = false;
    }
    std::fprintf(f, "\n  }\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Aggregate {
    std::string parent;
    LogLinearHistogram hist;
  };

  SteadyClock::time_point origin_;
  std::mutex mu_;  ///< guards spans_ and aggregates_
  std::vector<Span> spans_;
  std::map<std::string, Aggregate> aggregates_;
};

}  // namespace rtec::bench
