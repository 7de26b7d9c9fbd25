#include "core/gateway.hpp"

#include <utility>

#include "trace/registry.hpp"

namespace rtec {

void Gateway::export_metrics(trace::MetricsRegistry& reg,
                             const std::string& prefix) const {
  const Counters c = counters();
  reg.set(prefix + ".forwarded_a_to_b", c.forwarded_a_to_b);
  reg.set(prefix + ".forwarded_b_to_a", c.forwarded_b_to_a);
  reg.set(prefix + ".forward_failures", c.forward_failures);
}

Expected<void, ChannelError> Gateway::bridge_srt(Subject subject,
                                                 Duration fwd_deadline,
                                                 Duration fwd_expiration,
                                                 bool forward_transit) {
  const AttributeList pub_attrs{attr::Deadline{fwd_deadline},
                                attr::Expiration{fwd_expiration}};
  // LocalOnly on the gateway's own subscription pins the subject to a
  // single hop: remote-origin traffic (events another gateway forwarded
  // into this segment) is ignored, which keeps the design loop-free for
  // any topology. Transit mode drops the filter so a chain of gateways
  // can relay the subject hop by hop — the near segment's own forwards
  // cannot echo back regardless, because a CAN sender never receives its
  // own frames; only a *cycle* of bridges could loop, and callers enable
  // transit only on statically verified (acyclic, RTEC-T002) topologies.
  AttributeList sub_attrs;
  if (!forward_transit) sub_attrs.add(attr::LocalOnly{});
  const auto ab = make_half(a_, b_, *link_.a_to_b, subject, pub_attrs,
                            sub_attrs, dir_a_to_b_, srt_bridges_);
  if (!ab) return ab;
  return make_half(b_, a_, *link_.b_to_a, subject, pub_attrs, sub_attrs,
                   dir_b_to_a_, srt_bridges_);
}

Expected<void, ChannelError> Gateway::bridge_nrt(Subject subject,
                                                 bool fragmented,
                                                 Priority priority) {
  AttributeList pub_attrs{attr::FixedPriority{priority}};
  AttributeList sub_attrs{attr::LocalOnly{}};
  if (fragmented) {
    pub_attrs.add(attr::Fragmentation{true});
    sub_attrs.add(attr::Fragmentation{true});
  }
  const auto ab = make_half(a_, b_, *link_.a_to_b, subject, pub_attrs,
                            sub_attrs, dir_a_to_b_, nrt_bridges_);
  if (!ab) return ab;
  return make_half(b_, a_, *link_.b_to_a, subject, pub_attrs, sub_attrs,
                   dir_b_to_a_, nrt_bridges_);
}

template <typename Channel>
Expected<void, ChannelError> Gateway::make_half(
    Node& from, Node& to, HandoffChannel& chan, Subject subject,
    const AttributeList& pub_attrs, const AttributeList& sub_attrs,
    DirectionCounters& dir, Bridges<Channel>& bridges) {
  Bridge<Channel> bridge{std::make_unique<Channel>(from.middleware()),
                         std::make_unique<Channel>(to.middleware())};
  Channel* sub = bridge.sub.get();
  Channel* pub = bridge.pub.get();

  // The exception handler runs in the publish (destination) segment's
  // context — the same single-writer context as dir's success counter.
  const auto announced = pub->announce(
      subject, pub_attrs, [&dir](const ExceptionInfo&) { ++dir.failures; });
  if (!announced) return announced;

  Simulator* from_sim = &from.middleware().context().sim;
  // Draining the delivery queue in one pass keeps FIFO order: each event
  // gets the channel's next sequence number and the same deterministic
  // release stamp (delivery time + forward latency), so bursts delivered
  // in one slot are re-published on the far side in arrival order.
  const auto subscribed = sub->subscribe(
      subject, sub_attrs,
      [sub, pub, &chan, &dir, from_sim] {
        while (auto event = sub->getEvent()) {
          chan.post(from_sim->now(),
                    [pub, &dir, content = std::move(event->content)]() mutable {
                      Event fwd;
                      fwd.content = std::move(content);
                      // Fresh timing attributes on the destination
                      // segment's timeline come from the publish-side
                      // channel defaults.
                      if (pub->publish(std::move(fwd))) {
                        ++dir.forwarded;
                      } else {
                        ++dir.failures;
                      }
                    });
        }
      },
      nullptr);
  if (!subscribed) return subscribed;

  bridges.push_back(std::move(bridge));
  return {};
}

}  // namespace rtec
