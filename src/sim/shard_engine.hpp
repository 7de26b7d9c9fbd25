#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/handoff.hpp"
#include "sim/simulator.hpp"
#include "util/profile.hpp"
#include "util/time_types.hpp"

/// \file shard_engine.hpp
/// Conservative parallel discrete-event engine over sharded kernels.
///
/// A multi-segment scenario partitions its CAN segments into shards, one
/// `Simulator` per shard, coupled only through `HandoffChannel`s (gateway
/// forwarding). The engine advances all shards in lockstep epochs using
/// null-message/YAWNS-style lookahead synchronization with **per-link
/// lookahead**: each shard's safe horizon is computed from only the links
/// that can actually feed it, so weakly-coupled shards advance far past
/// the global minimum and epoch counts collapse on heterogeneous
/// topologies.
///
///   1. barrier: drain every direction batch into its destination kernel;
///      record N_j = each shard j's next pending event time
///   2. compute every shard's *earliest output time* — the lower bound on
///      when it could execute anything from now on, including events it
///      has not received yet — as the least fixpoint of
///        ET_j = min(N_j, min over incoming links (k -> j) of ET_k + L_kj)
///      (label-correcting relaxation over the positive-latency link
///      graph from ET = N: sweep every direction until nothing lowers,
///      at most S sweeps for S shards), then
///        H_i = min over incoming links (j -> i) of  ET_j + L_ji
///      where L_ji is the minimum latency over that direction's channels
///      (no incoming links, or every feeder drained: H_i = run bound)
///   3. every shard with N_i < H_i executes its events with timestamp
///      < H_i, in parallel on the thread that owns it; the rest idle this
///      epoch
///
/// Safety: any event shard j ever executes from this barrier on — its own
/// pending events (t >= N_j) or relays of handoffs it has yet to receive
/// (which arrive no earlier than ET_k + L_kj from some feeder k) — has
/// timestamp >= ET_j by induction over relay chains, so any handoff it
/// commits toward shard i releases at >= ET_j + L_ji >= H_i: beyond what
/// shard i executes before the next barrier, where it is injected. The
/// transitive closure matters — bounding H_i by the feeders' *pending*
/// events alone (N_j + L_ji) is unsound, because a feeder can receive and
/// relay an event below its own N_j. Handoffs are the only cross-shard
/// influence, hence no shard can ever receive an event in its executed
/// past (asserted by the kernel's injected lane). Progress: every
/// cross-shard latency is > 0 (asserted), so the shard holding the global
/// minimum N has ET = N and every bound on it exceeds N — it always
/// executes at least one event per epoch.
///
/// Per-link horizons are never narrower than one global horizon
/// (N + min latency over *all* links): each H_i is >= it, so they never
/// need more epochs (docs/performance.md §4).
///
/// Determinism: results are bit-identical for every shard/thread count.
/// Within an epoch shards share no mutable state (direction batches are
/// written only by their source shard and drained only at barriers),
/// and the injected lane orders handoffs by
/// their (channel, seq) identity rather than by injection time, so
/// neither barrier placement nor batch drain order can perturb delivery
/// order — see simulator.hpp and docs/performance.md §4.
/// tests/test_multiseg.cpp verifies bit-identity across shard counts
/// {1, 2, N} × worker counts, seeds and topology shapes; the epoch
/// barriers are the only cross-thread synchronization, verified under
/// TSan.

namespace rtec {

class EpochPool;

class ShardEngine {
 public:
  ShardEngine();
  ~ShardEngine();
  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  /// Registers the next shard (configuration time). Shard indices follow
  /// registration order.
  void add_shard(Simulator& sim) { shards_.push_back(&sim); }

  /// Creates the handoff channel for segment traffic flowing from shard
  /// `from` into shard `to` (same shard allowed: the channel is then
  /// unbuffered and bypasses the barrier machinery). Cross-shard channels
  /// require `latency > 0` and share one direction batch per ordered
  /// (from, to) pair; the direction's lookahead is the minimum latency of
  /// its channels.
  HandoffChannel& link(std::size_t from, std::size_t to, Duration latency);

  /// Threads that execute shards in parallel epochs, *including* the
  /// calling thread: n runs the caller plus n - 1 helper threads (clamped
  /// to the shard count). <= 1 executes shards in index order on the
  /// calling thread, which yields byte-identical results. The helpers
  /// live as long as the engine; they are started by the first epoch with
  /// more than one active shard and restarted only after this changes.
  void set_threads(unsigned n) { threads_ = n == 0 ? 1 : n; }
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Runs every shard up to and including `t` and leaves all kernels with
  /// now() == t. Callable repeatedly; handoffs committed at exactly `t`
  /// stay buffered and are injected by the next call.
  void run_until(TimePoint t);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Minimum latency over the links *into* `shard` — the per-link bound
  /// on how far it may trail its slowest feeder; Duration::max() when
  /// nothing feeds it.
  [[nodiscard]] Duration incoming_lookahead(std::size_t shard) const;

  /// Engine activity counters. CUMULATIVE across run_until() calls for
  /// the engine's lifetime (a scenario typically calls run_until many
  /// times while draining streams); call reset_stats() to start a fresh
  /// measurement window, e.g. after warm-up.
  ///
  /// Everything here except the two barrier counters is a pure function
  /// of the scenario (bit-identical across thread counts). barrier_spins
  /// and barrier_parks measure *host* scheduling — how often an epoch
  /// barrier wait (caller or helper side) was satisfied by spinning vs
  /// falling back to the parked condvar — and legitimately vary run to
  /// run; they exist to attribute parallel overhead, not to be diffed.
  /// They are taken from the helper pool at the end of every run_until.
  struct Stats {
    std::uint64_t epochs = 0;      ///< lockstep windows executed
    std::uint64_t handoffs = 0;    ///< cross-shard handoffs injected
    std::uint64_t shard_runs = 0;  ///< shard executions summed over epochs
    std::uint64_t shard_skips = 0;  ///< shard-epochs idled (no safe work)
    std::uint64_t handoff_batches = 0;  ///< non-empty direction drains
    std::uint64_t handoff_bytes = 0;    ///< payload bytes those drains moved
    std::uint64_t barrier_spins = 0;  ///< barrier waits resolved by spinning
    std::uint64_t barrier_parks = 0;  ///< barrier waits that parked (condvar)
    /// log2 histogram of per-shard epoch advances: bucket b counts active
    /// shard-epochs whose horizon lay [2^b, 2^(b+1)) ns past the shard's
    /// next event — the distribution behind the mean lookahead quality.
    std::array<std::uint64_t, 64> horizon_advance_log2{};
    std::vector<std::uint64_t> per_shard_runs;   ///< indexed by shard
    std::vector<std::uint64_t> per_shard_skips;  ///< indexed by shard
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Zeroes every counter (the per-shard vectors keep their size).
  void reset_stats();

  /// Enables simulated-time span profiling (nullptr disables; disabled
  /// hooks cost one branch). Records "engine.epoch_advance": how far the
  /// global minimum next-event time moved per epoch.
  void set_profiler(SpanProfiler* p);

 private:
  /// One ordered cross-shard pair with at least one channel. The batch
  /// address is stable (channels keep pointers into it).
  struct Direction {
    std::size_t from;
    std::size_t to;
    Duration min_latency;
    std::unique_ptr<HandoffBatch> batch;
  };

  /// Barrier work: drains every direction batch and refreshes `next_` for
  /// the destinations that received handoffs (every shard when
  /// `peek_all`); returns the global minimum next-event time
  /// (TimePoint::max() when all kernels drained). Shards that ran this
  /// epoch refreshed their own entry; a shard that neither ran nor
  /// received a handoff cannot have changed its queue.
  TimePoint drain_and_peek(bool peek_all);
  /// Fills `horizon_` and `active_` for one epoch given the exclusive
  /// run bound.
  void compute_horizons(TimePoint end_excl);

  std::vector<Simulator*> shards_;
  std::vector<std::unique_ptr<HandoffChannel>> channels_;
  std::vector<Direction> directions_;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> direction_index_;
  std::vector<TimePoint> next_;     ///< per-shard next event after barrier
  std::vector<TimePoint> et_;       ///< per-shard earliest output time
  std::vector<TimePoint> horizon_;  ///< per-shard epoch horizon (exclusive)
  /// Shards with work this epoch, ascending (EpochPool relies on it).
  std::vector<std::uint32_t> active_;
  unsigned threads_ = 1;
  Stats stats_;
  SpanStats* epoch_span_ = nullptr;  ///< nullptr: profiling disabled
  /// Helper threads for parallel epochs; declared last so it is joined
  /// before the vectors it reads are destroyed.
  std::unique_ptr<EpochPool> pool_;
};

}  // namespace rtec
