#pragma once

#include "core/channel.hpp"

/// \file nrtec.hpp
/// Non real-time event channel (§2.2.3): fixed application-chosen priority
/// within the NRT band, best-effort dissemination, optional fragmentation
/// for bulk payloads (memory images, electronic data sheets, test
/// patterns). Fragmentation is an inherent channel attribute declared in
/// the announce()/subscribe() attribute list.
///
/// The calls are EventChannel's (core/channel.hpp). For this class,
/// publish() queues the event; fragmented channels accept payloads up to
/// 2^24-1 bytes, plain channels up to 8 bytes.

namespace rtec {

using Nrtec = EventChannel<NrtEngine>;

}  // namespace rtec
