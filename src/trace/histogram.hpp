#pragma once

#include <string>
#include <vector>

#include "util/time_types.hpp"

/// \file histogram.hpp
/// Fixed-bucket histogram with console rendering — benches use it to show
/// latency distributions inline (the "shape" EXPERIMENTS.md talks about)
/// without leaving the terminal.

namespace rtec {

class Histogram {
 public:
  /// Buckets of equal width spanning [lo, hi); samples outside are counted
  /// in the under/overflow bins.
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  void add(Duration d) { add(static_cast<double>(d.ns())); }

  [[nodiscard]] std::size_t count() const { return total_; }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] std::size_t bucket(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] double bucket_lo(std::size_t i) const;

  /// Nearest-rank q-quantile (util/stats quantile_rank — the same rank
  /// convention as SampleSet), resolved to the LOWER EDGE of the bucket
  /// holding the ranked sample: exact whenever samples sit on the bucket
  /// grid (bench_analytic aligns buckets to the bus bit time for this),
  /// otherwise quantised down by at most one bucket width. Ranked samples
  /// in the underflow bin report lo, in the overflow bin hi; 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  /// Multi-line ASCII rendering: one row per non-empty bucket,
  /// "[lo..hi) NNN ########". `unit_scale` divides the bucket bounds for
  /// display (e.g. 1000 to print microseconds for nanosecond samples).
  [[nodiscard]] std::string render(double unit_scale = 1.0,
                                   const char* unit = "",
                                   std::size_t max_bar = 50) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace rtec
