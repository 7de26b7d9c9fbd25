#include "sched/prob_rta.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace rtec {

namespace {

[[nodiscard]] std::size_t next_pow2(std::size_t n) {
  std::size_t cap = 1;
  while (cap < n) cap <<= 1;
  return cap;
}

[[nodiscard]] double clamp01(double p) { return std::clamp(p, 0.0, 1.0); }

}  // namespace

// --- BitPmf -----------------------------------------------------------------

BitPmf BitPmf::point(std::int64_t bit) {
  BitPmf pmf;
  pmf.first_ = bit;
  pmf.probs_.assign(1, 1.0);
  return pmf;
}

BitPmf BitPmf::from_span(std::int64_t first_bit, std::span<const double> probs) {
  BitPmf pmf;
  pmf.first_ = first_bit;
  pmf.probs_.assign(probs.begin(), probs.end());
  return pmf;
}

double BitPmf::at(std::int64_t bit) const {
  if (bit < first_ || bit > last_bit()) return 0.0;
  return probs_[static_cast<std::size_t>(bit - first_)];
}

double BitPmf::mass() const {
  double total = 0.0;
  for (const double v : probs_) total += v;
  return total;
}

double BitPmf::cdf(std::int64_t bit) const {
  double total = 0.0;
  const std::int64_t last = std::min(bit, last_bit());
  for (std::int64_t b = first_; b <= last; ++b)
    total += probs_[static_cast<std::size_t>(b - first_)];
  return total;
}

std::int64_t BitPmf::quantile(double q) const {
  if (probs_.empty()) return 0;
  const double target = clamp01(q) * mass();
  double cum = 0.0;
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    cum += probs_[i];
    if (cum >= target) return first_ + static_cast<std::int64_t>(i);
  }
  return last_bit();  // floating-point shortfall at q = 1
}

double BitPmf::mean() const {
  const double m = mass();
  if (m <= 0.0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < probs_.size(); ++i)
    acc += probs_[i] *
           static_cast<double>(first_ + static_cast<std::int64_t>(i));
  return acc / m;
}

void BitPmf::scale(double w) {
  for (double& v : probs_) v *= w;
  pruned_ *= w;
}

void BitPmf::add_scaled(const BitPmf& other, double w) {
  if (other.probs_.empty() || w == 0.0) return;
  if (probs_.empty()) {
    first_ = other.first_;
    probs_.assign(other.probs_.size(), 0.0);
  } else {
    if (other.first_ < first_) {
      probs_.insert(probs_.begin(),
                    static_cast<std::size_t>(first_ - other.first_), 0.0);
      first_ = other.first_;
    }
    if (other.last_bit() > last_bit())
      probs_.resize(static_cast<std::size_t>(other.last_bit() - first_) + 1,
                    0.0);
  }
  const auto offset = static_cast<std::size_t>(other.first_ - first_);
  for (std::size_t i = 0; i < other.probs_.size(); ++i)
    probs_[offset + i] += w * other.probs_[i];
}

void BitPmf::prune(double eps) {
  double budget = eps;
  std::size_t lead = 0;
  while (lead < probs_.size() && probs_[lead] <= budget) {
    budget -= probs_[lead];
    pruned_ += probs_[lead];
    ++lead;
  }
  std::size_t tail = probs_.size();
  while (tail > lead && probs_[tail - 1] <= budget) {
    budget -= probs_[tail - 1];
    pruned_ += probs_[tail - 1];
    --tail;
  }
  if (lead > 0 || tail < probs_.size()) {
    probs_.erase(probs_.begin() + static_cast<std::ptrdiff_t>(tail),
                 probs_.end());
    probs_.erase(probs_.begin(), probs_.begin() + static_cast<std::ptrdiff_t>(lead));
    first_ += static_cast<std::int64_t>(lead);
    if (probs_.empty()) first_ = 0;
  }
}

// --- ConvRing ---------------------------------------------------------------

ConvRing::ConvRing(const BitPmf& initial) {
  const std::size_t cap = next_pow2(std::max<std::size_t>(initial.support(), 16));
  ring_.assign(cap, 0.0);
  mask_ = cap - 1;
  len_ = initial.probs_.size();
  first_ = initial.first_;
  pruned_ = initial.pruned_;
  for (std::size_t i = 0; i < len_; ++i) ring_[i] = initial.probs_[i];
}

void ConvRing::reserve(std::size_t need) {
  if (need <= ring_.size()) return;
  std::vector<double> grown(next_pow2(need), 0.0);
  for (std::size_t i = 0; i < len_; ++i) grown[i] = slot(i);
  ring_ = std::move(grown);
  mask_ = ring_.size() - 1;
  head_ = 0;
}

void ConvRing::convolve(const BitPmf& term) {
  if (term.probs_.empty() || len_ == 0) {
    len_ = 0;
    first_ = 0;
    return;
  }
  const std::size_t tlen = term.probs_.size();
  const std::size_t new_len = len_ + tlen - 1;
  reserve(new_len);
  // In place, high target index to low: new[t] reads only old[t'] with
  // t' ≤ t, and every slot above t has already been rewritten — so the
  // single ring buffer holds both operand and result.
  for (std::size_t t = new_len; t-- > 0;) {
    const std::size_t j_lo = t >= len_ ? t - len_ + 1 : 0;
    const std::size_t j_hi = std::min(tlen - 1, t);
    double v = 0.0;
    for (std::size_t j = j_lo; j <= j_hi; ++j)
      v += term.probs_[j] * slot(t - j);
    slot(t) = v;
  }
  len_ = new_len;
  first_ += term.first_;
}

void ConvRing::prune(double eps) {
  double budget = eps;
  while (len_ > 0 && slot(0) <= budget) {
    budget -= slot(0);
    pruned_ += slot(0);
    head_ = (head_ + 1) & mask_;
    ++first_;
    --len_;
  }
  while (len_ > 0 && slot(len_ - 1) <= budget) {
    budget -= slot(len_ - 1);
    pruned_ += slot(len_ - 1);
    --len_;
  }
}

void ConvRing::accumulate_into(BitPmf& acc, double weight) const {
  if (len_ == 0 || weight == 0.0) return;
  if (acc.probs_.empty()) {
    acc.first_ = first_;
    acc.probs_.assign(len_, 0.0);
  } else {
    if (first_ < acc.first_) {
      acc.probs_.insert(acc.probs_.begin(),
                        static_cast<std::size_t>(acc.first_ - first_), 0.0);
      acc.first_ = first_;
    }
    const std::int64_t last = first_ + static_cast<std::int64_t>(len_) - 1;
    if (last > acc.last_bit())
      acc.probs_.resize(static_cast<std::size_t>(last - acc.first_) + 1, 0.0);
  }
  const auto offset = static_cast<std::size_t>(first_ - acc.first_);
  for (std::size_t i = 0; i < len_; ++i)
    acc.probs_[offset + i] += weight * slot(i);
}

BitPmf ConvRing::to_pmf() const {
  BitPmf pmf;
  pmf.first_ = first_;
  pmf.probs_.resize(len_);
  for (std::size_t i = 0; i < len_; ++i) pmf.probs_[i] = slot(i);
  pmf.pruned_ = pruned_;
  return pmf;
}

// --- fault model ------------------------------------------------------------

BitPmf error_recovery_pmf(int frame_bits, const OmissionModel& model) {
  assert(frame_bits >= 1);
  const int overhead = kErrorFrameBits + kIntermissionBits;
  const double f0 = clamp01(model.min_fraction);
  if (model.worst_case_position || f0 >= 1.0)
    return BitPmf::point(frame_bits + overhead);

  // The simulator draws frac uniform on [f0, 1) and charges
  // max(1, ceil(frac · L)) data bits: P(bits = b) is the measure of
  // ((b-1)/L, b/L] inside [f0, 1), normalised by the span 1 − f0.
  const auto length = static_cast<double>(frame_bits);
  const int b_min = std::max(
      1, static_cast<int>(std::ceil(f0 * length - 1e-9)));
  std::vector<double> probs(static_cast<std::size_t>(frame_bits - b_min) + 1,
                            0.0);
  for (int b = b_min; b <= frame_bits; ++b) {
    const double lo = std::max(f0, static_cast<double>(b - 1) / length);
    const double hi = static_cast<double>(b) / length;
    probs[static_cast<std::size_t>(b - b_min)] =
        std::max(0.0, hi - lo) / (1.0 - f0);
  }
  return BitPmf::from_span(b_min + overhead, probs);
}

// --- HRT (sole publisher, provisioned retries) ------------------------------

ResponseDistribution hrt_response_distribution(int frame_bits,
                                               int omission_degree,
                                               const OmissionModel& model) {
  assert(frame_bits >= 1 && omission_degree >= 0);
  const double p = clamp01(model.p);
  ResponseDistribution out;
  out.miss_probability = std::pow(p, omission_degree + 1);

  BitPmf acc = BitPmf::point(0);
  acc.scale(1.0 - p);  // j = 0: clean first attempt
  double truncated = 0.0;
  double ring_pruned = 0.0;
  if (omission_degree > 0 && p > 0.0 && p < 1.0) {
    const BitPmf recovery = error_recovery_pmf(frame_bits, model);
    ConvRing ring{recovery};  // term E^{⊛j}, starting at j = 1
    double weight = (1.0 - p) * p;
    for (int j = 1;; ++j) {
      ring.prune(kPruneEps);
      ring.accumulate_into(acc, weight);
      if (j == omission_degree) break;
      if (weight * p < kTailEps * (1.0 - p)) {
        // Remaining in-assumption weights Σ_{j'>j} p^j'(1−p) are below the
        // tail budget; account them instead of convolving further.
        truncated = std::pow(p, j + 1) - std::pow(p, omission_degree + 1);
        break;
      }
      ring.convolve(recovery);
      weight *= p;
    }
    // Each unit of relative mass pruned from the term costs at most its
    // mixture-weight sum (≤ 1) of absolute mass.
    ring_pruned = ring.pruned();
  } else if (p >= 1.0) {
    acc = BitPmf{};  // every attempt corrupted: never delivered
  }
  acc.shift(frame_bits);
  out.tail_epsilon = ring_pruned + truncated;
  out.pmf = std::move(acc);
  return out;
}

// --- hop admission (busy-window, conservative) ------------------------------

namespace {

/// Service-time PMF of one frame under unbounded geometric retries:
/// Σ_{j≥0} p^j (1−p) (E^{⊛j} ⊕ frame_bits), truncated once the remaining
/// weight drops below the tail budget, the term starts past `horizon`
/// (those sample paths miss the deadline regardless of how they end), or
/// kMaxFailures is hit. The mass deficit (1 − mass) is the caller's
/// conservative miss/loss accounting.
BitPmf geometric_service(int frame_bits, const OmissionModel& model,
                         std::int64_t horizon) {
  const double p = clamp01(model.p);
  if (p >= 1.0) return BitPmf{};  // never delivered
  BitPmf acc = BitPmf::point(0);
  acc.scale(1.0 - p);
  if (p > 0.0) {
    const BitPmf recovery = error_recovery_pmf(frame_bits, model);
    ConvRing ring{recovery};
    double weight = (1.0 - p) * p;
    for (int j = 1; j <= kMaxFailures; ++j) {
      ring.prune(kPruneEps);
      ring.accumulate_into(acc, weight);
      if (weight * p < kTailEps * (1.0 - p)) break;
      if (ring.first_bit() + frame_bits > horizon) break;
      ring.convolve(recovery);
      weight *= p;
    }
  }
  acc.shift(frame_bits);
  return acc;
}

}  // namespace

ResponseDistribution hop_response_distribution(const HopQuery& query) {
  assert(query.frame_bits >= 1);
  ResponseDistribution out;
  const std::int64_t deadline = query.deadline_bits;
  const BitPmf own =
      geometric_service(query.frame_bits, query.faults, deadline);
  if (own.empty()) {
    out.miss_probability = 1.0;
    return out;
  }

  struct Occ {
    BitPmf service;
    std::int64_t period = 0;
    std::int64_t counted = 0;
  };
  std::vector<Occ> occs;
  for (const HopInterferer& i : query.interferers) {
    if (i.frame_bits <= 0 || i.period_bits <= 0) continue;
    Occ occ;
    occ.service = geometric_service(i.frame_bits, query.faults, deadline);
    occ.period = i.period_bits;
    if (!occ.service.empty()) occs.push_back(std::move(occ));
  }

  // Busy-window fixpoint under critical-instant phasing: interferer i has
  // ceil(w / T_i) instances with arrivals inside the window w. Arrivals at
  // or after the deadline only delay sample paths that already miss, so
  // the window is capped there and the loop terminates.
  ConvRing ring{own};
  for (bool changed = true; changed;) {
    changed = false;
    const std::int64_t window =
        std::min(query.blocking_bits + ring.first_bit() +
                     static_cast<std::int64_t>(ring.length()) - 1,
                 deadline);
    for (Occ& occ : occs) {
      const std::int64_t want =
          std::max<std::int64_t>(0, window + occ.period - 1) / occ.period;
      while (occ.counted < want) {
        ring.convolve(occ.service);
        ring.prune(kPruneEps);
        ++occ.counted;
        changed = true;
      }
    }
  }

  BitPmf pmf = ring.to_pmf();
  pmf.shift(query.blocking_bits);
  out.tail_epsilon = std::max(0.0, 1.0 - pmf.mass());
  out.miss_probability = std::min(1.0, 1.0 - pmf.cdf(deadline));
  out.pmf = std::move(pmf);
  return out;
}

double compose_route_miss(std::span<const double> hop_miss) {
  double survive = 1.0;
  for (const double p : hop_miss) survive *= 1.0 - clamp01(p);
  return 1.0 - survive;
}

std::int64_t duration_to_bits(Duration d, const BusConfig& bus) {
  const std::int64_t bit_ns = bus.bit_time().ns();
  if (bit_ns <= 0 || d.ns() <= 0) return 0;
  return d.ns() / bit_ns;
}

}  // namespace rtec
