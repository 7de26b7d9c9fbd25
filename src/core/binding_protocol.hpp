#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "core/binding.hpp"
#include "core/node_context.hpp"
#include "sched/id_codec.hpp"
#include "util/expected.hpp"

/// \file binding_protocol.hpp
/// Runtime subject→etag binding over the bus itself — the mechanism behind
/// the configuration phase of Kaiser & Mock [13] whose *outcome* the
/// offline BindingRegistry models. During commissioning, a node that wants
/// to announce or subscribe to a subject it has no binding for asks the
/// configuration node (binding agent) over a reserved channel; the agent
/// assigns (or repeats) the etag and broadcasts the reply, so every cached
/// copy in the system stays consistent.
///
/// Wire format (NRT band, priority kBindingPriority — configuration is
/// exactly what NRT channels are for, §2.2.3):
///   request  (etag kBindingRequestEtag, TxNode = requester):
///       data[0..7] = subject uid, LE64
///   reply    (etag kBindingReplyEtag, TxNode = agent):
///       data[0]    = requester TxNode
///       data[1..2] = assigned etag, LE16
///       data[3]    = status (0 = ok, 1 = etag space exhausted)
///       data[4..7] = subject uid low 32 bits (request match check)
///
/// Clients serialize their outstanding requests and retry on timeout
/// (auto-retransmission already masks bus errors; the timeout covers an
/// absent or restarting agent).

namespace rtec {

inline constexpr Priority kBindingPriority = kNrtPriorityMin;  // 251

/// The configuration node's side: owns the authoritative map.
class BindingAgent {
 public:
  BindingAgent(const NodeContext& ctx, BindingRegistry& registry);

  [[nodiscard]] std::uint64_t requests_served() const { return served_; }

 private:
  void on_frame(const CanFrame& frame, TimePoint now);

  NodeContext ctx_;
  BindingRegistry& registry_;
  std::uint64_t served_ = 0;
};

/// Any node's side: resolves subjects on demand and caches the results.
class BindingClient {
 public:
  using Callback = std::function<void(Expected<Etag, ChannelError>)>;

  /// A request unanswered for kTimeout is resent, up to kMaxAttempts
  /// requests in total.
  static constexpr Duration kTimeout = Duration::milliseconds(50);
  static constexpr int kMaxAttempts = 3;

  explicit BindingClient(const NodeContext& ctx);

  /// Resolves `subject`, invoking `cb` with the etag (from cache
  /// immediately, or after the request/reply exchange). Concurrent
  /// resolves are queued and served one at a time.
  void resolve(Subject subject, Callback cb);

  /// Cache lookup without network traffic.
  [[nodiscard]] std::optional<Etag> cached(Subject subject) const;

  [[nodiscard]] std::uint64_t requests_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }

 private:
  struct PendingRequest {
    Subject subject;
    Callback cb;
    int attempts = 0;
  };

  void on_frame(const CanFrame& frame, TimePoint now);
  void pump();
  void send_request();
  void on_timeout();
  void finish(Expected<Etag, ChannelError> result);

  NodeContext ctx_;
  std::map<Subject, Etag> cache_;
  std::deque<PendingRequest> queue_;
  std::optional<PendingRequest> active_;
  Simulator::TimerHandle timeout_timer_;
  std::uint64_t sent_ = 0;
  std::uint64_t timeouts_ = 0;
};

}  // namespace rtec
