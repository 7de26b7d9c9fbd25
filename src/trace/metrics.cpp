#include "trace/metrics.hpp"

namespace rtec {

ClassUtilization::ClassUtilization(CanBus& bus) : bus_{bus} {
  window_start_ = bus.simulator().now();
  bus.add_observer([this](const CanBus::FrameEvent& ev) {
    const auto c = static_cast<std::size_t>(classify_priority(id_priority(ev.frame.id)));
    busy_[c] += ev.end - ev.start;
    ++frames_[c];
    if (!ev.success) ++errors_[c];
  });
}

double ClassUtilization::fraction(TrafficClass c) const {
  const Duration elapsed = bus_.simulator().now() - window_start_;
  if (elapsed <= Duration::zero()) return 0.0;
  return static_cast<double>(busy_[static_cast<std::size_t>(c)].ns()) /
         static_cast<double>(elapsed.ns());
}

void ClassUtilization::reset() {
  window_start_ = bus_.simulator().now();
  busy_.fill(Duration::zero());
  frames_.fill(0);
  errors_.fill(0);
}

}  // namespace rtec
