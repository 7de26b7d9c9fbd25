#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/time_types.hpp"

/// \file handoff.hpp
/// One-directional FIFO handoff channels between network segments — the
/// only way simulation state may cross a segment boundary (gateway
/// forwarding). Every handoff is stamped with a deterministic release
/// time, `send time + channel latency`, and a per-channel sequence
/// number; the destination kernel orders it by (release, channel, seq)
/// through the injected lane (Simulator::schedule_injected), so delivery
/// order is a pure function of the handoff's identity.
///
/// A channel runs in one of two modes, chosen by the topology partitioner:
///  * unbuffered — source and destination segments share one kernel; the
///    handoff is injected immediately (the release time is in that
///    kernel's future by construction since latency >= 0).
///  * batched — the segments live on different shards; the handoff is
///    appended to the *direction batch* shared by every channel flowing
///    from the source shard into the destination shard. At the next epoch
///    barrier the engine seals the batch, and the destination's owner
///    thread injects it before that shard runs again. The channel latency
///    is then the per-link lookahead that makes the barrier placement
///    safe: a handoff sent at t cannot release before t + latency, so it
///    is always injected before the destination could possibly reach it.
///
/// Batching per *direction* instead of per channel means the barrier cost
/// scales with the number of coupled shard pairs that carried traffic,
/// not with the number of bridged subjects, and the injection writes each
/// destination kernel's heap in one contiguous burst. Mixing channels
/// inside one batch cannot perturb results: the injected lane orders
/// delivered handoffs by their (channel, seq) identity, never by injection
/// order.
///
/// Threading contract (TSan-verified): push() is called only from the
/// source shard's execution context, seal() only from the coordinator
/// between epochs, inject() only from the destination shard's execution
/// context. Each batch has two buffers: the source fills the outbox while
/// the destination injects the inbox sealed at the previous barrier, and
/// the barrier that swaps them orders every access on both sides.

namespace rtec {

/// The batched buffer for one cross-shard direction (ordered shard pair).
/// Owned by the engine; every HandoffChannel for that direction appends
/// into it. Both buffers keep their storage across swaps, so steady-state
/// posting never allocates.
class HandoffBatch {
 public:
  /// `dest_shard` is the destination's shard index (the engine's key for
  /// its next-event time and inbox). `dirty`, when set, is the source
  /// shard's list of batches with traffic: the first push after a seal
  /// appends this batch to it, so a barrier visits only those batches.
  explicit HandoffBatch(Simulator& dest, std::size_t dest_shard = 0,
                        std::vector<HandoffBatch*>* dirty = nullptr)
      : dest_{dest}, dest_shard_{dest_shard}, dirty_{dirty} {}

  HandoffBatch(const HandoffBatch&) = delete;
  HandoffBatch& operator=(const HandoffBatch&) = delete;

  /// Appends one handoff (source shard context only).
  void push(TimePoint release, std::uint32_t channel, std::uint64_t seq,
            std::function<void()> cb) {
    if (outbox_.empty()) {
      earliest_ = release;
      if (dirty_ != nullptr) dirty_->push_back(this);
    } else {
      earliest_ = std::min(earliest_, release);
    }
    outbox_.push_back(Pending{release, channel, seq, std::move(cb)});
  }

  /// Handoffs pushed since the last seal.
  [[nodiscard]] std::size_t pending() const { return outbox_.size(); }
  /// Earliest release among them (valid while pending() > 0): the
  /// destination's next-event time once they are injected is the minimum
  /// of this and its own queue's front.
  [[nodiscard]] TimePoint earliest() const { return earliest_; }

  /// Moves the pushed handoffs into the inbox and returns how many it
  /// holds (coordinator-only, between epochs, after the previous inbox
  /// was injected).
  std::size_t seal() {
    assert(inbox_.empty() && "sealing over an inbox not yet injected");
    outbox_.swap(inbox_);
    return inbox_.size();
  }

  /// Injects the sealed handoffs into the destination kernel
  /// (destination shard context).
  void inject() {
    for (Pending& p : inbox_)
      dest_.schedule_injected(p.release, p.channel, p.seq, std::move(p.cb));
    inbox_.clear();
  }

  [[nodiscard]] Simulator& dest() const { return dest_; }
  [[nodiscard]] std::size_t dest_shard() const { return dest_shard_; }
  /// Bytes one buffered handoff occupies (engine barrier-traffic stats).
  [[nodiscard]] static constexpr std::size_t pending_bytes() {
    return sizeof(Pending);
  }

 private:
  struct Pending {
    TimePoint release;
    std::uint32_t channel;
    std::uint64_t seq;
    std::function<void()> cb;
  };

  Simulator& dest_;
  std::size_t dest_shard_;
  std::vector<HandoffBatch*>* dirty_;
  std::vector<Pending> outbox_;
  TimePoint earliest_ = TimePoint::max();
  /// On its own cache line: the destination's thread drains it while the
  /// source's thread appends to the outbox.
  alignas(64) std::vector<Pending> inbox_;
};

class HandoffChannel {
 public:
  /// `batch == nullptr` means source and destination share a kernel
  /// (unbuffered immediate injection); otherwise every post lands in the
  /// direction batch and is injected after the next epoch barrier.
  HandoffChannel(Simulator& dest, std::uint32_t id, Duration latency,
                 HandoffBatch* batch)
      : dest_{dest}, batch_{batch}, id_{id}, latency_{latency} {
    assert(latency >= Duration::zero());
    // A cross-shard channel's latency is the per-link lookahead between
    // its endpoint shards; zero lookahead would stall the conservative
    // coordinator.
    assert((batch == nullptr || latency > Duration::zero()) &&
           "cross-shard handoff channels need a positive latency");
    assert((batch == nullptr || &batch->dest() == &dest) &&
           "direction batch must target the channel's destination kernel");
  }

  HandoffChannel(const HandoffChannel&) = delete;
  HandoffChannel& operator=(const HandoffChannel&) = delete;

  /// Observes every post() in the SOURCE segment's execution context,
  /// before the handoff is batched — i.e. in the source's deterministic
  /// event order, which is what lets an RTEB recorder log handoffs
  /// byte-identically across shard/thread counts (trace/binary.hpp).
  using PostObserver = std::function<void(
      TimePoint send, TimePoint release, std::uint32_t channel,
      std::uint64_t seq)>;
  void set_post_observer(PostObserver o) { post_observer_ = std::move(o); }

  /// Commits one handoff sent at `send_time` (the source segment's current
  /// simulation time). `cb` runs in the destination segment's context at
  /// `send_time + latency()`.
  template <typename F>
  void post(TimePoint send_time, F&& cb) {
    const TimePoint release = send_time + latency_;
    const std::uint64_t seq = next_seq_++;
    if (post_observer_) post_observer_(send_time, release, id_, seq);
    if (batch_ != nullptr) {
      batch_->push(release, id_, seq,
                   std::function<void()>{std::forward<F>(cb)});
    } else {
      dest_.schedule_injected(release, id_, seq, std::forward<F>(cb));
    }
  }

  [[nodiscard]] Duration latency() const { return latency_; }
  [[nodiscard]] bool buffered() const { return batch_ != nullptr; }
  [[nodiscard]] std::uint32_t id() const { return id_; }
  /// Handoffs committed over the channel's lifetime.
  [[nodiscard]] std::uint64_t posted() const { return next_seq_; }

 private:
  Simulator& dest_;
  HandoffBatch* batch_;
  std::uint32_t id_;
  Duration latency_;
  std::uint64_t next_seq_ = 0;
  PostObserver post_observer_;
};

}  // namespace rtec
