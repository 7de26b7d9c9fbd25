#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>

/// \file random.hpp
/// Deterministic PRNG (xoshiro256**) for workload generation and fault
/// injection. Every experiment seeds its generators explicitly so runs are
/// exactly reproducible; the standard library's engines are avoided
/// because its distributions are not portable across standard libraries.

namespace rtec {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm),
/// seeded through SplitMix64 so that any 64-bit seed yields a well-mixed
/// state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : s_) {
      // SplitMix64 step.
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    // Modulo bias is negligible for the span sizes used here (<< 2^64).
    return lo + static_cast<std::int64_t>(next_u64() % span);
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Exponential variate with the given mean (for Poisson arrivals).
  double exponential(double mean) {
    double u = uniform();
    if (u <= 0.0) u = 0x1.0p-53;  // avoid log(0)
    return -mean * std::log(u);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
};

}  // namespace rtec
