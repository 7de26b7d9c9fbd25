#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/stats.hpp"

/// \file stats.hpp
/// Statistics helpers of rtec_bench: medians and quartiles of
/// run samples (the same conventions as Python's `statistics` module, so
/// compare.py and the benchmark agree), the tail percentile a timing may be
/// reported at, and a log-linear histogram for high-rate spans.

namespace rtec::bench {

/// Median with the midpoint of the two middle samples for even counts
/// (Python's statistics.median). 0 for no samples.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank q-quantile (the repo's quantile_rank convention). 0 for no
/// samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[quantile_rank(v.size(), q)];
}

/// First and third quartile, computed like Python's
/// statistics.quantiles(v, n=4) (the default "exclusive" method).
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
  [[nodiscard]] double iqr() const { return q3 - q1; }
};

inline Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<std::int64_t>(v.size());
  if (ld == 1) return {v[0], v[0]};
  const std::int64_t m = ld + 1;
  const auto cut = [&](std::int64_t i) {
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

/// A percentile reported for a timing: the highest of p99.9 / p99 / p90 /
/// p50 that has at least `min_beyond` samples above its rank (nearest
/// rank, the repo's quantile_rank convention). Empty when there are fewer
/// than min_beyond + 1 samples.
struct TailPercentile {
  double q = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

inline std::optional<TailPercentile> tail_percentile(
    std::vector<double> v, std::size_t min_beyond = 10) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  for (const double q : {0.999, 0.99, 0.9, 0.5}) {
    const std::size_t rank = quantile_rank(v.size(), q);
    const std::size_t beyond = v.size() - 1 - rank;
    if (beyond >= min_beyond) return TailPercentile{q, v[rank], beyond};
  }
  return std::nullopt;
}

/// Log-linear histogram of non-negative integer samples (nanoseconds):
/// values below 2^kSubBits are exact, larger ones fall in one of 2^kSubBits
/// linear sub-buckets per power of two (relative error below 1/2^kSubBits).
/// Fixed memory, O(1) add, mergeable — for spans too frequent to keep raw.
class LogLinearHistogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

  void add(std::uint64_t v) {
    ++counts_[bucket(v)];
    ++count_;
    sum_ += v;
  }

  void merge(const LogLinearHistogram& o) {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }

  /// Nearest-rank q-quantile, reported as the midpoint of its bucket
  /// (exact below kSub). 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const std::uint64_t rank = quantile_rank(count_, q);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen > rank) {
        const std::uint64_t lo = lower_bound(b);
        const std::uint64_t width = lower_bound(b + 1) - lo;
        return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
      }
    }
    return static_cast<double>(lower_bound(counts_.size() - 1));
  }

  /// Bucket index of v (exposed for the tests).
  static std::size_t bucket(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int top = static_cast<int>(std::bit_width(v)) - 1;  // >= kSubBits
    const int shift = top - kSubBits;
    const std::uint64_t sub = (v >> shift) - kSub;
    return static_cast<std::size_t>(kSub +
                                    static_cast<std::uint64_t>(shift) * kSub +
                                    sub);
  }
  /// Smallest value that falls in bucket b.
  static std::uint64_t lower_bound(std::size_t b) {
    if (b < kSub) return b;
    const std::uint64_t shift = (b - kSub) / kSub;
    const std::uint64_t sub = (b - kSub) % kSub;
    return (kSub + sub) << shift;
  }

 private:
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

}  // namespace rtec::bench
