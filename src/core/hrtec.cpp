#include "core/hrtec.hpp"

namespace rtec {

Expected<Duration, ChannelError> Hrtec::guaranteed_latency() const {
  const auto subj = subject();
  if (!subj) return Unexpected{ChannelError::kNotAnnounced};
  const Calendar* calendar = mw_.context().calendar;
  if (calendar == nullptr) return Unexpected{ChannelError::kNoReservation};
  const auto etag = mw_.binding().lookup(*subj);
  if (!etag) return Unexpected{ChannelError::kNoReservation};

  Duration worst = Duration::zero();
  bool found = false;
  for (std::size_t i = 0; i < calendar->size(); ++i) {
    if (calendar->slot(i).etag != *etag) continue;
    const SlotTiming t = calendar->timing(i);
    worst = std::max(worst, t.deadline_offset - t.ready_offset);
    found = true;
  }
  if (!found) return Unexpected{ChannelError::kNoReservation};
  return worst;
}

}  // namespace rtec
