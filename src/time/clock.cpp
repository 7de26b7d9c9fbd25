#include "time/clock.hpp"

#include <cassert>

namespace rtec {

LocalClock::LocalClock(Simulator& sim, Duration offset, std::int64_t drift_ppb,
                       Duration granularity)
    : sim_{sim},
      base_perfect_{sim.now()},
      base_local_{sim.now() + offset},
      drift_ppb_{drift_ppb},
      granularity_{granularity} {
  assert(granularity > Duration::zero());
  assert(drift_ppb >= -kMaxDriftPpb && drift_ppb <= kMaxDriftPpb);
}

TimePoint LocalClock::to_local_raw(TimePoint perfect) const {
  const std::int64_t dt = (perfect - base_perfect_).ns();
  // local = base_local + dt * (1 + drift_ppb/1e9). dt stays below ~1e13 ns
  // (hours of simulated time between rebases) and |drift_ppb| below ~1e6,
  // so the product fits comfortably in int64.
  const std::int64_t skew = dt / 1'000'000'000 * drift_ppb_ +
                            dt % 1'000'000'000 * drift_ppb_ / 1'000'000'000;
  return base_local_ + Duration::nanoseconds(dt + skew);
}

TimePoint LocalClock::to_local(TimePoint perfect) const {
  const TimePoint raw = to_local_raw(perfect);
  const std::int64_t g = granularity_.ns();
  std::int64_t q = raw.ns() / g * g;
  if (raw.ns() < 0 && raw.ns() % g != 0) q -= g;  // truncate toward -inf
  return TimePoint::from_ns(q);
}

TimePoint LocalClock::to_perfect(TimePoint local) const {
  const std::int64_t dl = (local - base_local_).ns();
  // Invert dt * (1 + r) = dl with r = drift_ppb/1e9 by one fixed-point
  // refinement: dt0 = dl - skew(dl), dt = dl - skew(dt0). The residual is
  // O(r^3 * dl) plus integer rounding: at most a few ns for |r| <= 1e-4
  // and dl up to an hour, but about 3.6 us at |r| = 1e-3.
  const auto skew = [this](std::int64_t x) {
    return x / 1'000'000'000 * drift_ppb_ +
           x % 1'000'000'000 * drift_ppb_ / 1'000'000'000;
  };
  const std::int64_t dt0 = dl - skew(dl);
  return base_perfect_ + Duration::nanoseconds(dl - skew(dt0));
}

void LocalClock::adjust(Duration delta) {
  const TimePoint now_perfect = sim_.now();
  base_local_ = to_local_raw(now_perfect) + delta;
  base_perfect_ = now_perfect;
}

void LocalClock::adjust_rate(std::int64_t ppb_delta) {
  const TimePoint now_perfect = sim_.now();
  base_local_ = to_local_raw(now_perfect);
  base_perfect_ = now_perfect;
  drift_ppb_ += ppb_delta;
  assert(drift_ppb_ >= -kMaxDriftPpb && drift_ppb_ <= kMaxDriftPpb);
}

}  // namespace rtec
