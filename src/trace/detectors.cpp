#include "trace/detectors.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rtec {
namespace trace {

double effective_sigma(double mean, double stddev) {
  return std::max(stddev, kRelFloor * mean);
}

namespace {

/// Binary search into an id-sorted entry vector; nullptr when absent.
template <typename Entry>
Entry* find_entry(std::vector<Entry>& ids, std::uint32_t id) {
  auto it = std::lower_bound(
      ids.begin(), ids.end(), id,
      [](const Entry& e, std::uint32_t key) { return e.id < key; });
  if (it == ids.end() || it->id != id) return nullptr;
  return &*it;
}

/// Inserts a fresh entry keeping the vector sorted; nullptr when the
/// tracking budget is exhausted (the caller treats the id as untracked).
template <typename Entry>
Entry* admit_entry(std::vector<Entry>& ids, std::uint32_t id) {
  if (ids.size() >= kMaxTrackedIds) return nullptr;
  auto it = std::lower_bound(
      ids.begin(), ids.end(), id,
      [](const Entry& e, std::uint32_t key) { return e.id < key; });
  Entry e;
  e.id = id;
  return &*ids.insert(it, e);
}

}  // namespace

// -------------------------------------------------------------- IatDetector

void IatDetector::on_frame(const CanBus::FrameEvent& ev) {
  const TimePoint t = ev.end;
  Entry* e = find_entry(ids_, ev.frame.id);
  // Admission closes with training: a profile cannot be learned any more,
  // so tracking the id would only grow state without enabling detection.
  if (e == nullptr && in_training(t)) e = admit_entry(ids_, ev.frame.id);
  if (e == nullptr) {
    if (!in_training(t)) raise(ev.frame.id, t, 0.0, /*unknown_id=*/true);
    return;
  }
  if (!e->has_last) {
    e->has_last = true;
    e->last = t;
    return;
  }
  const double dt = static_cast<double>((t - e->last).ns());
  e->last = t;
  if (in_training(t)) {
    e->train.add(dt);
    return;
  }
  if (e->train.count() < kMinTrainSamples) {
    raise(ev.frame.id, t, 0.0, /*unknown_id=*/true);
    return;
  }
  const double sigma = effective_sigma(e->train.mean(), e->train.stddev());
  decide(*e, dt - e->train.mean(), sigma, t);
}

void MeanIatGate::decide(Entry& e, double dev, double sigma, TimePoint t) {
  const double z = std::abs(dev) / sigma;
  if (z > kSigmas) raise(e.id, t, z);
}

void CusumDetector::decide(Entry& e, double dev, double sigma, TimePoint t) {
  const double z = dev / sigma;
  e.s_pos = std::max(0.0, e.s_pos + z - kDrift);
  e.s_neg = std::max(0.0, e.s_neg - z - kDrift);
  if (e.s_pos > kThreshold) {
    raise(e.id, t, e.s_pos);
    e.s_pos = 0.0;
  }
  if (e.s_neg > kThreshold) {
    raise(e.id, t, e.s_neg);
    e.s_neg = 0.0;
  }
}

// -------------------------------------------- WindowFrequencyDetector

WindowFrequencyDetector::WindowFrequencyDetector(Config cfg) : Detector{cfg.train_until}, cfg_{cfg} {
  assert(cfg_.window > Duration::zero());
}

void WindowFrequencyDetector::close_one_window() {
  // Window w spans [w*W, (w+1)*W); its start time decides training vs
  // detection so a window straddling train_until is still training.
  const TimePoint w_start =
      TimePoint::origin() + cfg_.window * static_cast<std::int64_t>(open_window_);
  const bool training = in_training(w_start);
  for (Entry& e : ids_) {
    if (open_window_ < e.first_window) continue;
    if (training) {
      if (e.train_windows == 0) {
        e.min_count = e.count;
        e.max_count = e.count;
      } else {
        e.min_count = std::min(e.min_count, e.count);
        e.max_count = std::max(e.max_count, e.count);
      }
      ++e.train_windows;
    } else if (e.train_windows >= kMinTrainWindows) {
      const std::int64_t lo = std::max<std::int64_t>(e.min_count - kMargin, 0);
      const std::int64_t hi = e.max_count + kMargin;
      if (e.count < lo || e.count > hi) {
        const std::int64_t dist = e.count < lo ? lo - e.count : e.count - hi;
        // Alarm timestamp = window close time (when the count is known).
        raise(e.id, w_start + cfg_.window, static_cast<double>(dist));
      }
    }
    e.count = 0;
  }
  ++open_window_;
}

void WindowFrequencyDetector::close_windows_before(TimePoint t) {
  while (TimePoint::origin() +
             cfg_.window * static_cast<std::int64_t>(open_window_ + 1) <=
         t)
    close_one_window();
}

void WindowFrequencyDetector::on_frame(const CanBus::FrameEvent& ev) {
  const TimePoint t = ev.end;
  close_windows_before(t);
  Entry* e = find_entry(ids_, ev.frame.id);
  if (e == nullptr) {
    if (!in_training(t)) {
      raise(ev.frame.id, t, 0.0, /*unknown_id=*/true);
      return;
    }
    e = admit_entry(ids_, ev.frame.id);
    if (e == nullptr) return;  // tracking budget exhausted
    e->first_window = open_window_;
  }
  ++e->count;
}

void WindowFrequencyDetector::finish(TimePoint now) {
  close_windows_before(now);
}

}  // namespace trace
}  // namespace rtec
