#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "canbus/can_types.hpp"
#include "util/time_types.hpp"

/// \file prob_rta.hpp
/// Convolution-based probabilistic response-time analysis for CAN messages
/// — the analytic fast path behind `rtec_verify --prob` and the
/// bench_analytic cross-validation harness.
///
/// wctt.hpp answers the paper's admission question with a single number:
/// the worst case under an assumed omission degree k. This module answers
/// the refined question "with what probability?": given a per-attempt
/// corruption probability p (the fault framework's RandomOmissionFaults),
/// it computes the full response-time *distribution* of a message and the
/// probability that the fault assumption itself is violated — in
/// microseconds, instead of the minutes of simulation the same quantiles
/// cost empirically (following the convolution-based CAN analyses, e.g.
/// arXiv 2411.05835).
///
/// Everything lives on the bit-time grid. The simulator charges corrupted
/// attempts in whole bit times (`max(1, ceil(frac · frame_bits))` data
/// bits + error frame + intermission, canbus/bus.cpp), arbitration is a
/// zero-delay event, and frames are integral bit counts — so every
/// latency the simulator can produce is an exact multiple of
/// BusConfig::bit_time(), and a discrete PMF indexed by bit count
/// represents it without quantisation error. Distributions are composed
/// by direct (FFT-free) convolution in a power-of-two circular buffer
/// with in-place accumulation and sub-epsilon tail pruning; the pruned
/// mass is tracked, so every result carries its own total-variation error
/// bound instead of silently losing probability.

namespace rtec {

/// Discrete sub-probability mass function on the bit-time grid: `at(b)` is
/// the probability that the quantity equals exactly `b` bit times. Mass
/// may sum to less than one — the remainder is either structural (e.g.
/// the probability the message is never delivered) or tracked pruning
/// loss (`pruned()`), never silent.
class BitPmf {
 public:
  BitPmf() = default;

  /// Deterministic value: all mass at `bit`.
  [[nodiscard]] static BitPmf point(std::int64_t bit);
  /// Mass `probs[i]` at `first_bit + i`.
  [[nodiscard]] static BitPmf from_span(std::int64_t first_bit,
                                        std::span<const double> probs);

  [[nodiscard]] bool empty() const { return probs_.empty(); }
  [[nodiscard]] std::int64_t first_bit() const { return first_; }
  [[nodiscard]] std::int64_t last_bit() const {
    return first_ + static_cast<std::int64_t>(probs_.size()) - 1;
  }
  [[nodiscard]] std::size_t support() const { return probs_.size(); }

  [[nodiscard]] double at(std::int64_t bit) const;
  /// Total retained mass Σ at(b).
  [[nodiscard]] double mass() const;
  /// Mass discarded by prune() calls over this PMF's history — an upper
  /// bound on the total-variation distance to the unpruned distribution.
  [[nodiscard]] double pruned() const { return pruned_; }
  /// P(X ≤ bit), counting retained mass only (pruned mass is *not*
  /// assumed below `bit`, so cdf is a guaranteed lower bound).
  [[nodiscard]] double cdf(std::int64_t bit) const;
  /// Smallest b with cdf(b) ≥ q · mass() — the nearest-rank quantile of
  /// the distribution conditioned on the retained mass. 0 when empty.
  [[nodiscard]] std::int64_t quantile(double q) const;
  /// Mean of the distribution conditioned on the retained mass.
  [[nodiscard]] double mean() const;

  /// X + bits (grid shift; support moves, masses unchanged).
  void shift(std::int64_t bits) { first_ += bits; }
  /// Multiply every mass by w (mixture weighting).
  void scale(double w);
  /// acc += w · other, in place, growing the support as needed.
  void add_scaled(const BitPmf& other, double w);
  /// Trim leading/trailing tail atoms while the total mass dropped stays
  /// ≤ eps; the dropped mass is added to pruned().
  void prune(double eps);

 private:
  friend class ConvRing;
  std::int64_t first_ = 0;
  std::vector<double> probs_;
  double pruned_ = 0.0;
};

/// The convolution kernel: a power-of-two circular buffer holding the
/// "current term" of a compound convolution (e.g. E^{⊛j} while expanding
/// a geometric number of error recoveries). `convolve()` multiplies the
/// term by another PMF *in place*, walking target indices from high to
/// low so no scratch buffer is needed; `prune()` advances the ring head,
/// recycling the vacated front slots for the growing back without any
/// data movement. Capacity grows by doubling (mask indexing), so the
/// whole expansion of a k-term compound costs O(k · support(E)²) work and
/// one buffer — near-linear in practice once tails are pruned.
class ConvRing {
 public:
  explicit ConvRing(const BitPmf& initial);

  /// this ← this ⊛ term, in place.
  void convolve(const BitPmf& term);
  /// Trim sub-epsilon tails (mass budget eps, tracked), advancing the
  /// ring head past dropped leading atoms.
  void prune(double eps);
  /// acc += weight · this, in place.
  void accumulate_into(BitPmf& acc, double weight) const;

  [[nodiscard]] BitPmf to_pmf() const;
  [[nodiscard]] std::size_t length() const { return len_; }
  [[nodiscard]] std::int64_t first_bit() const { return first_; }
  [[nodiscard]] double pruned() const { return pruned_; }
  /// Ring capacity — always a power of two (exposed for tests).
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

 private:
  [[nodiscard]] double& slot(std::size_t logical) {
    return ring_[(head_ + logical) & mask_];
  }
  [[nodiscard]] const double& slot(std::size_t logical) const {
    return ring_[(head_ + logical) & mask_];
  }
  void reserve(std::size_t need);

  std::vector<double> ring_;  ///< capacity a power of two
  std::size_t mask_ = 0;
  std::size_t head_ = 0;      ///< ring index of the first retained atom
  std::size_t len_ = 0;       ///< retained atoms
  std::int64_t first_ = 0;    ///< grid value of the first retained atom
  double pruned_ = 0.0;
};

/// Per-attempt omission-fault model mirroring the simulator's
/// RandomOmissionFaults: each transmission attempt is corrupted
/// independently with probability `p`; the error hits at a frame fraction
/// drawn uniformly from [min_fraction, 1), or always at the last bit when
/// `worst_case_position` (the adversarial variant the differential test
/// gates on, where the response distribution is purely atomic).
struct OmissionModel {
  double p = 0.0;
  bool worst_case_position = false;
  double min_fraction = 0.05;  ///< RandomOmissionFaults' floor
};

/// Numerical policy of the engine. `kPruneEps` is the per-convolution
/// tail-pruning budget; `kTailEps` stops expanding geometric retry terms
/// once the remaining weight is below it. Both losses are tracked and
/// surface in ResponseDistribution::tail_epsilon — the documented error
/// bound on every reported probability.
inline constexpr double kPruneEps = 1e-13;
inline constexpr double kTailEps = 1e-12;
/// Cap on the modeled consecutive failures of one frame.
inline constexpr int kMaxFailures = 256;

/// PMF of the bus time one corrupted attempt consumes before the retry
/// can start: error-position data bits (the simulator charges
/// max(1, ceil(frac · frame_bits))) + the 20-bit error frame + the 3-bit
/// intermission. Exact mirror of canbus/bus.cpp's charging rule.
[[nodiscard]] BitPmf error_recovery_pmf(int frame_bits,
                                        const OmissionModel& model);

/// A response-time distribution plus the probabilities the analysis
/// cannot place on the grid: `miss_probability` is the chance the message
/// is not delivered in time (fault assumption violated, or — for the hop
/// model — deadline exceeded); `tail_epsilon` bounds the mass lost to
/// pruning/truncation (all of it conservatively counted into
/// `miss_probability` where a deadline is involved). The PMF is
/// sub-probability: mass() ≈ 1 − miss_probability − tail_epsilon, and
/// quantile() conditions on delivery.
struct ResponseDistribution {
  BitPmf pmf;
  double miss_probability = 0.0;
  double tail_epsilon = 0.0;
};

/// Response distribution (ready → end of successful frame, in bit times)
/// of a sole-publisher HRT slot with `omission_degree` provisioned
/// retries: R = frame_bits + Σ_{i≤j} recovery_i with j ≤ omission_degree
/// failures, P(j failures) = p^j (1−p); the fault assumption is violated
/// with probability exactly p^(omission_degree+1). With no blocker and
/// priority 0, nothing else interposes (§3.2 of the paper) — this is an
/// *exact* model of the simulator, which the differential test exploits.
[[nodiscard]] ResponseDistribution hrt_response_distribution(
    int frame_bits, int omission_degree, const OmissionModel& model);

/// One competing message stream in a hop admission query, in bit times.
struct HopInterferer {
  int frame_bits = 0;
  std::int64_t period_bits = 0;
};

/// Admission query for one message on one segment: the message itself, a
/// worst-case non-preemptable blocker, the competing streams that can win
/// arbitration against it, the segment's fault rate and the transmission
/// deadline the route promises on this hop.
struct HopQuery {
  int frame_bits = 0;
  std::int64_t blocking_bits = 0;
  std::int64_t deadline_bits = 0;
  OmissionModel faults;
  std::vector<HopInterferer> interferers;
};

/// Conservative busy-window response distribution of one hop: worst-case
/// blocker as a point mass, all interferers released at the critical
/// instant and re-released every period (each instance carrying its own
/// geometric error-recovery compound), the message's own retries
/// unbounded but truncated at the deadline. The result stochastically
/// dominates every feasible phasing, so miss_probability is a sound upper
/// bound — the probabilistic analogue of the T009/T010 bounds.
[[nodiscard]] ResponseDistribution hop_response_distribution(
    const HopQuery& query);

/// Union-bound composition of per-hop miss probabilities along a route:
/// 1 − Π (1 − p_i), the probability at least one hop misses.
[[nodiscard]] double compose_route_miss(std::span<const double> hop_miss);

/// Floor conversion of a duration to whole bit times.
[[nodiscard]] std::int64_t duration_to_bits(Duration d, const BusConfig& bus);

}  // namespace rtec
