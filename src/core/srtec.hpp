#pragma once

#include "core/channel.hpp"

/// \file srtec.hpp
/// Soft real-time event channel — the application-facing class of Fig. 2.
/// Structurally similar to HRTEC but without reservations: events carry a
/// transmission deadline and an expiration (validity interval) in their
/// attributes (or inherit channel defaults from attr::Deadline /
/// attr::Expiration), are scheduled EDF on the bus, and the exception
/// handler reports kDeadlineMissed / kExpired for awareness (§2.2.2).
///
/// The calls are EventChannel's (core/channel.hpp). For this class:
/// - cancelPublication() is listed explicitly in Fig. 2 (no network
///   resources are reserved, so it is purely local bookkeeping);
/// - publish() queues the event for EDF transmission.
///   `event.attributes.deadline` and `.expiration` may be absolute local
///   times; TimePoint::max() applies the channel defaults.

namespace rtec {

using Srtec = EventChannel<SrtEngine>;

}  // namespace rtec
