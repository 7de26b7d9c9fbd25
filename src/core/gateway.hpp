#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/node.hpp"
#include "core/nrtec.hpp"
#include "core/srtec.hpp"
#include "sim/handoff.hpp"

/// \file gateway.hpp
/// Event-channel gateway between two network segments (the architecture
/// of Kaiser/Brudna's WFCS 2002 interoperability paper, referenced as
/// §2.2.1's multi-network scenario: "publishers and subscribers are
/// connected by a channel which spans multiple networks").
///
/// A gateway is a node with one protocol stack per attached network. For
/// each bridged subject it subscribes on one side and re-publishes on the
/// other. Because a CAN sender never receives its own frames, the
/// opposite-direction subscription on the same controller cannot echo a
/// forwarded event back — bidirectional bridging is loop-free by
/// construction.
///
/// Forwarding is store-and-forward through a pair of handoff channels
/// (Scenario::link_gateway): an event delivered to the gateway's
/// subscriber stack at time t is re-published on the far segment at
/// exactly t + forward latency, and events delivered in the same slot
/// keep their delivery (FIFO) order via the channel's sequence numbers.
/// The deterministic release stamp is what makes the forwarding path
/// shard-safe: under the parallel engine the publish runs in the far
/// segment's own execution context, never from the near segment's thread.
///
/// Subscribers can exclude forwarded traffic with attr::LocalOnly: the
/// scenario registers the gateway's TxNode system-wide
/// (Scenario::register_gateway / link_gateway), and receiving middlewares
/// tag frames from it as remote-origin. HRT channels are deliberately
/// *not* bridgeable: a reservation is only meaningful inside one
/// network's calendar (forward an HRT stream by subscribing at the
/// gateway and publishing into a slot reserved for the gateway on the
/// other side).

namespace rtec {

namespace trace {
class MetricsRegistry;
}  // namespace trace

/// The pair of directed handoff channels one gateway forwards through,
/// created by Scenario::link_gateway (the scenario knows the segment→shard
/// partition; the gateway does not).
struct GatewayLink {
  HandoffChannel* a_to_b = nullptr;
  HandoffChannel* b_to_a = nullptr;
};

class Gateway {
 public:
  /// \param side_a node on network A  \param side_b node on network B
  /// \param link  handoff channels from Scenario::link_gateway(a, b, ...)
  Gateway(Node& side_a, Node& side_b, GatewayLink link)
      : a_{side_a}, b_{side_b}, link_{link} {
    assert(link.a_to_b != nullptr && link.b_to_a != nullptr);
  }

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  struct Counters {
    std::uint64_t forwarded_a_to_b = 0;
    std::uint64_t forwarded_b_to_a = 0;
    std::uint64_t forward_failures = 0;
  };

  /// Bridges an SRT subject in both directions. Forwarded events get a
  /// fresh transmission deadline `fwd_deadline` (and expiration
  /// `fwd_expiration`) relative to the forwarding instant — the origin
  /// network's deadline is not meaningful on the next segment's timeline.
  ///
  /// With `forward_transit` false (the default) the gateway only forwards
  /// events that originate on the near segment: traffic another gateway
  /// forwarded *into* that segment is ignored, so a subject never travels
  /// more than one hop. Setting it true lifts that filter and enables
  /// multi-hop routes across a chain of gateways. Transit forwarding is
  /// only loop-free when the subject's bridge graph is acyclic (a cycle
  /// would circulate every event forever) — exactly the property
  /// rtec-verify's RTEC-T002 check establishes statically, so only bridge
  /// transit on verified topologies.
  Expected<void, ChannelError> bridge_srt(Subject subject,
                                          Duration fwd_deadline,
                                          Duration fwd_expiration,
                                          bool forward_transit = false);

  /// Bridges an NRT subject in both directions (fragmented payloads are
  /// reassembled here and re-fragmented on the far side).
  Expected<void, ChannelError> bridge_nrt(Subject subject, bool fragmented,
                                          Priority priority);

  /// Counter snapshot. Per-direction counts are maintained on the
  /// direction's *destination* shard (single writer each), so the
  /// composed snapshot is only meaningful between run calls.
  [[nodiscard]] Counters counters() const {
    Counters c;
    c.forwarded_a_to_b = dir_a_to_b_.forwarded;
    c.forwarded_b_to_a = dir_b_to_a_.forwarded;
    c.forward_failures = dir_a_to_b_.failures + dir_b_to_a_.failures;
    return c;
  }

  /// Snapshots counters() into a metrics registry under `<prefix>.`
  /// (same between-runs caveat as counters()).
  void export_metrics(trace::MetricsRegistry& reg,
                      const std::string& prefix) const;

 private:
  /// Written only from the direction's destination segment context.
  struct DirectionCounters {
    std::uint64_t forwarded = 0;
    std::uint64_t failures = 0;
  };
  template <typename Channel>
  struct Bridge {
    std::unique_ptr<Channel> sub;
    std::unique_ptr<Channel> pub;
  };
  template <typename Channel>
  using Bridges = std::vector<Bridge<Channel>>;

  /// One direction of a bridge: announces `subject` on `to` with
  /// `pub_attrs`, subscribes on `from` with `sub_attrs`, and forwards each
  /// delivery through `chan`.
  template <typename Channel>
  Expected<void, ChannelError> make_half(Node& from, Node& to,
                                         HandoffChannel& chan,
                                         Subject subject,
                                         const AttributeList& pub_attrs,
                                         const AttributeList& sub_attrs,
                                         DirectionCounters& dir,
                                         Bridges<Channel>& bridges);

  Node& a_;
  Node& b_;
  GatewayLink link_;
  Bridges<Srtec> srt_bridges_;
  Bridges<Nrtec> nrt_bridges_;
  DirectionCounters dir_a_to_b_;
  DirectionCounters dir_b_to_a_;
};

}  // namespace rtec
