#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/subject.hpp"
#include "util/time_types.hpp"

/// \file event.hpp
/// Events: event := <subject, attribute_list, content> (paper §2).
/// The content is "a structured set of functional parameters" — here raw
/// bytes plus typed accessors; HRT/SRT events fit one CAN frame (<= 8
/// bytes), NRT events may be arbitrarily large and are fragmented by the
/// middleware.

namespace rtec {

/// Per-occurrence (non-functional) attributes of one event instance.
/// Timestamps are on the publishing node's synchronized local timeline.
struct EventAttributes {
  /// Latest point in time the event message must be transmitted (SRT).
  /// TimePoint::max() = use the channel's default deadline.
  TimePoint deadline = TimePoint::max();
  /// End of temporal validity; after this the event may be dropped
  /// entirely (SRT). TimePoint::max() = channel default.
  TimePoint expiration = TimePoint::max();
  /// Application mode/context tag (free-form, e.g. operating mode).
  std::uint8_t mode = 0;
  /// Set by the middleware at publish time.
  TimePoint timestamp;
  /// Set by the middleware on delivery: the frame came from a gateway node,
  /// so the event was forwarded from another segment (what the LocalOnly
  /// subscriber filter drops).
  bool remote = false;
};

struct Event {
  Subject subject;
  EventAttributes attributes;
  std::vector<std::uint8_t> content;

  Event() = default;
  Event(Subject s, std::vector<std::uint8_t> bytes)
      : subject{s}, content{std::move(bytes)} {}

  [[nodiscard]] std::span<const std::uint8_t> payload() const { return content; }
  [[nodiscard]] std::size_t size() const { return content.size(); }
};

}  // namespace rtec
