#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/handoff.hpp"
#include "sim/simulator.hpp"
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
/// When links change (the first run_until after link()), the engine builds
/// the reach table R[i][k]: the least latency of any path of one or more
/// links from shard k to shard i (infinite when there is none): row i by
/// one shortest-path pass backwards from i, on the thread that owns i,
/// in the first epoch. An epoch is then:
///
///   1. barrier (caller): each thread has handed over the least
///      next-event time among its shards and the direction batches its
///      shards filled. For each batch, fold its earliest release into the
///      destination's next-event time N_i and seal its buffer into the
///      destination's inbox. When min_k N_k lies beyond the run bound,
///      inject the sealed inboxes and stop.
///   2. every thread, for each shard i it owns: inject i's inbox, then
///        H_i = min(run bound, min over k of N_k + R[i][k])
///      (a branch-free row minimum over the N the barrier left), and when
///      N_i < H_i execute i's events with timestamp < H_i. It records each
///      shard's new N in a second buffer, which becomes the next epoch's N.
///
/// Safety: every event any shard executes from this barrier on descends,
/// through zero or more handoffs, from an event pending at the barrier on
/// some shard k, at t >= N_k, and each handoff adds at least its link's
/// latency. So anything shard i receives from now on releases at
/// >= N_k + R[i][k] for some k, hence >= H_i: beyond what it executes
/// before the next barrier, where it is injected. H_i is also the least
/// fixpoint of the label-correcting recurrence
///   ET_j = min(N_j, min over links (k -> j) of ET_k + L_kj),
///   H_i  = min over links (j -> i) of ET_j + L_ji,
/// because ET_j + L_ji unrolls into N_k plus a path of >= 1 links; the
/// closure matters, since bounding H_i by the feeders' *pending* events
/// alone (N_j + L_ji) is unsound when a feeder can relay something it has
/// not yet received. Handoffs are the only cross-shard influence, hence
/// no shard can ever receive an event in its executed past (asserted by
/// the kernel's injected lane). Progress: every cross-shard latency is
/// > 0 (asserted), so the shard holding the global minimum N has every
/// term of its row above N and always executes at least one event.
///
/// The caller's serial work per epoch is O(threads + dirty batches); the
/// horizons, injections and next-event minima run on the threads that
/// own the shards.
/// Per-link horizons are never narrower than one global horizon
/// (N + min latency over *all* links): each H_i is >= it, so they never
/// need more epochs (docs/performance.md §4).
///
/// Determinism: results are bit-identical for every shard/thread count.
/// Within an epoch shards share no mutable state (a batch's outbox is
/// written only by its source shard, its inbox read only by its
/// destination, and the two swap only at barriers), and the injected lane
/// orders handoffs by their (channel, seq) identity rather than by
/// injection time, so neither barrier placement nor injection order can
/// perturb delivery order — see simulator.hpp and docs/performance.md §4.
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
  void add_shard(Simulator& sim);

  /// Creates the handoff channel for segment traffic flowing from shard
  /// `from` into shard `to` (same shard allowed: the channel is then
  /// unbuffered and bypasses the barrier machinery). Cross-shard channels
  /// require `latency > 0` and share one direction batch per ordered
  /// (from, to) pair; the direction's lookahead is the minimum latency of
  /// its channels. The next run_until rebuilds the reach table.
  HandoffChannel& link(std::size_t from, std::size_t to, Duration latency);

  /// Threads that execute shards in parallel epochs, *including* the
  /// calling thread: n runs the caller plus n - 1 helper threads (clamped
  /// to the shard count). <= 1 executes shards in index order on the
  /// calling thread, which yields byte-identical results. The helpers
  /// live as long as the engine; they are started by the first epoch and
  /// restarted only after this changes.
  void set_threads(unsigned n) { threads_ = n == 0 ? 1 : n; }
  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Runs every shard up to and including `t` and leaves all kernels with
  /// now() == t. Callable repeatedly; handoffs committed at or before `t`
  /// that release after it are in their destination kernels on return
  /// and fire in a later call.
  void run_until(TimePoint t);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// R[to][from]: the least latency of any path of one or more links from
  /// shard `from` to shard `to`, Duration::max() when there is none. Every
  /// horizon is a row minimum over this table; the first call after
  /// link() rebuilds it.
  [[nodiscard]] Duration reach(std::size_t to, std::size_t from);
  /// Minimum latency over the links *into* `shard` — the per-link bound
  /// on how far it may trail its slowest feeder; Duration::max() when
  /// nothing feeds it.
  [[nodiscard]] Duration incoming_lookahead(std::size_t shard) const;

  /// Engine activity counters. CUMULATIVE across run_until() calls for
  /// the engine's lifetime (a scenario typically calls run_until many
  /// times while draining streams).
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
    std::uint64_t handoff_batches = 0;  ///< non-empty direction seals
    std::uint64_t handoff_bytes = 0;    ///< payload bytes those seals moved
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

 private:
  friend class EpochPool;

  /// One ordered cross-shard pair with at least one channel. The batch
  /// address is stable (channels keep pointers into it).
  struct Direction {
    std::size_t from;
    std::size_t to;
    Duration min_latency;
    std::unique_ptr<HandoffBatch> batch;
  };

  /// What one thread hands the caller at the barrier, on its own cache
  /// lines: the least next-event time among its shards, the batches its
  /// shards filled, and its share of the deterministic counters (summed
  /// into stats_ when run_until returns).
  struct alignas(64) Worker {
    TimePoint next_min = TimePoint::max();
    std::vector<HandoffBatch*> dirty;
    std::uint64_t shard_runs = 0;
    std::uint64_t shard_skips = 0;
    std::array<std::uint64_t, 64> horizon_advance_log2{};
  };

  /// R[i][k] with no path from k to i.
  static constexpr std::uint64_t kNoPath = static_cast<std::uint64_t>(
      Duration::max().ns());

  /// Sizes reach_ and indexes the incoming directions for build_rows
  /// (caller, before the first epoch after link()).
  void prepare_reach();
  /// Fills rows [begin, end) of reach_, one shortest-path pass per row
  /// over the incoming directions. Rows are independent: in the first
  /// epoch after link() each owner builds the rows of its own shards.
  void build_rows(std::size_t begin, std::size_t end);
  /// Barrier work: seals every batch the workers handed over into its
  /// destination's inbox, folds its earliest release into next_, and
  /// returns the global minimum next-event time (TimePoint::max() when
  /// all kernels drained).
  TimePoint barrier();
  /// Injects the batches sealed into `shard`'s inbox.
  void inject_inbox(std::size_t shard);
  /// Moves `shard`'s dirty list onto the worker's.
  void hand_over_dirty(std::size_t shard, Worker& w);
  /// One epoch for the shards thread `self` of `threads` owns: inject,
  /// horizon, run.
  void run_owned(std::size_t self, std::size_t threads);

  std::vector<Simulator*> shards_;
  /// Per source shard, the batches it filled since its owner last handed
  /// them over. A deque: each batch keeps a pointer to its source's list,
  /// which must survive later add_shard calls.
  std::deque<std::vector<HandoffBatch*>> dirty_;
  /// Per destination shard, the batches sealed at the last barrier.
  std::vector<std::vector<HandoffBatch*>> inbox_;
  std::vector<std::unique_ptr<HandoffChannel>> channels_;
  std::vector<Direction> directions_;
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> direction_index_;
  /// Row-major S x S: reach_[i * S + k] = R[i][k] in ns.
  std::vector<std::uint64_t> reach_;
  bool reach_stale_ = true;  ///< links changed; rows not yet rebuilt
  /// Incoming directions as (from, latency), grouped by destination:
  /// those of shard i are in_[in_first_[i] .. in_first_[i + 1]).
  std::vector<std::size_t> in_first_;
  std::vector<std::pair<std::size_t, std::uint64_t>> in_;
  /// Per-shard next-event time as of the last barrier: every row minimum
  /// of the epoch reads it. Owners write the times their shards leave
  /// into next_out_, and the two swap after the epoch.
  std::vector<TimePoint> next_;
  std::vector<TimePoint> next_out_;
  TimePoint end_excl_ = TimePoint::max();  ///< this run_until's bound
  TimePoint epoch_min_ = TimePoint::max();  ///< the epoch's min N
  std::vector<Worker> workers_;  ///< one per thread, the caller's first
  unsigned threads_ = 1;
  Stats stats_;
  /// Helper threads for parallel epochs; declared last so it is joined
  /// before the vectors it reads are destroyed.
  std::unique_ptr<EpochPool> pool_;
};

}  // namespace rtec
