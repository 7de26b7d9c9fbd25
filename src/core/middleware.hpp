#pragma once

#include <memory>
#include <set>
#include <tuple>

#include "core/binding.hpp"
#include "core/hrt_engine.hpp"
#include "core/node_context.hpp"
#include "core/nrt_engine.hpp"
#include "core/srt_engine.hpp"
#include "sched/priority_map.hpp"

/// \file middleware.hpp
/// The per-node event channel handler: owns the three class engines,
/// performs subject→etag binding at announce/subscribe time, programs the
/// controller's acceptance filters, and dispatches received frames to the
/// right engine by the priority field of the identifier.
///
/// This is the component the paper calls "the middleware": it "rigorously
/// has to enforce" the priority relation 0 <= P_HRT < P_SRT < P_NRT, hides
/// all network detail behind the channel abstractions, and implements
/// delivery-time jitter removal, missing-message detection, EDF promotion
/// and fragmentation.

namespace rtec {

class Middleware {
 public:
  struct Config {
    /// Deadline→priority mapping used by this node's SRT engine. Must be
    /// identical on all nodes for global EDF to be meaningful.
    DeadlinePriorityMap::Config srt_map{};
  };

  Middleware(const NodeContext& ctx, BindingRegistry& binding, Config cfg);

  Middleware(const Middleware&) = delete;
  Middleware& operator=(const Middleware&) = delete;

  [[nodiscard]] NodeId node() const { return ctx_.node; }
  [[nodiscard]] const NodeContext& context() const { return ctx_; }
  [[nodiscard]] BindingRegistry& binding() { return binding_; }

  /// Marks a TxNode as a gateway that forwards events from other network
  /// segments; frames sent by it are treated as remote-origin for the
  /// LocalOnly subscriber filter. Distributed at configuration time.
  void add_gateway_node(NodeId gateway) { gateways_.insert(gateway); }

  /// Binds (or re-uses) the etag for `subject`.
  Expected<Etag, ChannelError> bind(Subject subject) {
    return binding_.bind(subject);
  }

  /// Programs the controller's hardware acceptance filtering for a newly
  /// subscribed etag — the point of dynamic binding (§2.1): "the local
  /// communication controller filters all messages that don't match the
  /// subject out of the message stream", so unsubscribed traffic never
  /// reaches this node's CPU. The first call narrows the controller from
  /// promiscuous to selective and installs the infrastructure etags
  /// (clock sync, binding protocol) alongside. Channel classes call this
  /// from subscribe(); cancellation keeps the filter (the table is only
  /// rebuilt at reconfiguration, as on real controllers).
  void add_subscription_filter(Etag etag);

  /// Frames that reached this node's middleware (post-hardware-filter) —
  /// lets tests and benches quantify the CPU offload.
  [[nodiscard]] std::uint64_t rx_frames_seen() const { return rx_frames_seen_; }

  // Engine access for the channel classes and for instrumentation.
  [[nodiscard]] HrtEngine& hrt() { return hrt_; }
  [[nodiscard]] SrtEngine& srt() { return srt_; }
  [[nodiscard]] NrtEngine& nrt() { return nrt_; }
  [[nodiscard]] const HrtEngine& hrt() const { return hrt_; }
  [[nodiscard]] const SrtEngine& srt() const { return srt_; }
  [[nodiscard]] const NrtEngine& nrt() const { return nrt_; }
  /// The engine of one class, by type (EventChannel's accessor).
  template <typename Engine>
  [[nodiscard]] Engine& engine() {
    return std::get<Engine&>(std::tie(hrt_, srt_, nrt_));
  }

 private:
  void dispatch(const CanFrame& frame, TimePoint bus_time);

  NodeContext ctx_;
  BindingRegistry& binding_;
  Config cfg_;
  HrtEngine hrt_;
  SrtEngine srt_;
  NrtEngine nrt_;
  std::set<NodeId> gateways_;
  std::set<Etag> filtered_etags_;
  std::uint64_t rx_frames_seen_ = 0;
};

}  // namespace rtec
