#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/callable.hpp"
#include "util/time_types.hpp"

/// \file simulator.hpp
/// Deterministic single-threaded discrete-event simulation kernel. All bus,
/// clock and middleware activity is expressed as timers on this kernel.
///
/// Determinism rules:
///  * time is integer nanoseconds (no float accumulation),
///  * events at equal timestamps run in scheduling order (FIFO tie-break via
///    a monotonically increasing sequence number),
///  * the kernel is single-threaded — there is no hidden concurrency, so a
///    given scenario + seed always produces bit-identical traces.
///
/// Injected lane (multi-segment sharding, see docs/performance.md §5): an
/// event arriving from *another* kernel (a gateway handoff) is scheduled
/// through schedule_injected() with an explicit (channel, sequence)
/// identity. Injected events order after every locally scheduled event at
/// the same timestamp, then by (channel, sequence) — a total order that
/// depends only on the event's identity, never on *when* the handoff was
/// materialized into this kernel. That independence is what makes the
/// sharded parallel engine (sim/shard_engine.hpp) bit-identical to a
/// sequential single-kernel run: the conservative coordinator may inject a
/// handoff at any barrier preceding its release time without perturbing
/// the delivery order.
///
/// Implementation (see docs/performance.md): a 4-ary min-heap ordered by
/// (time, seq) whose entries reference slab-recycled slots carrying the
/// callback inline (small-buffer optimisation, no allocation on the hot
/// path), fronted by a one-entry register that holds the earliest pending
/// entry whenever a push beat the heap's top. Handles are generation-tagged
/// for O(1) lazy cancellation; the queue compacts itself when cancelled
/// entries outnumber live ones.

namespace rtec {

/// Cache-line aligned: under the sharded engine (sim/shard_engine.hpp)
/// each worker thread hammers its shard's kernel header (now_, heap_,
/// free-list heads) every event, so adjacent kernels must not share a
/// line.
class alignas(64) Simulator {
 public:
  /// Opaque handle for cancelling a scheduled event. Default-constructed
  /// handles are inert. A handle carries its event's packed (seq, slot)
  /// identity; sequence numbers never repeat, so a handle left over from a
  /// fired or cancelled event never aliases a newer one.
  class TimerHandle {
   public:
    TimerHandle() = default;
    [[nodiscard]] bool valid() const { return seqslot_ != 0; }

   private:
    friend class Simulator;
    explicit TimerHandle(std::uint64_t seqslot) : seqslot_{seqslot} {}
    std::uint64_t seqslot_ = 0;
  };

  /// Kernel activity counters, cumulative over the simulator's lifetime.
  /// Plain increments on paths that already touch the same cache lines —
  /// the cost is unmeasurable against heap traffic (bench_kernel).
  struct Stats {
    std::uint64_t scheduled = 0;    ///< local events scheduled
    std::uint64_t injected = 0;     ///< cross-kernel handoffs injected
    std::uint64_t cancelled = 0;    ///< successful cancels (not no-ops)
    std::uint64_t fired = 0;        ///< events executed
    std::uint64_t compactions = 0;  ///< lazy-cancel heap compactions
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Schedules `cb` to run at absolute time `t` (>= now, asserted).
  template <typename F>
  TimerHandle schedule_at(TimePoint t, F&& cb) {
    static_assert(std::is_invocable_v<std::decay_t<F>&>,
                  "callback must be invocable with no arguments");
    assert(t >= now_ && "cannot schedule into the past");
    if constexpr (std::is_constructible_v<bool, const std::decay_t<F>&>)
      assert(static_cast<bool>(cb) && "null callback");
    const std::uint32_t idx = acquire_slot();
    slot(idx).emplace(std::forward<F>(cb), slab_);
    assert(next_seq_ < (std::uint64_t{1} << kSeqBits) &&
           "sequence space exhausted");
    const std::uint64_t seqslot = next_seq_++ << kSlotBits | idx;
    slot_seq_[idx] = seqslot;
    push(Entry{t, seqslot});
    ++live_;
    ++stats_.scheduled;
    return TimerHandle{seqslot};
  }

  /// Schedules `cb` to run `d` from now (d >= 0, asserted).
  template <typename F>
  TimerHandle schedule_after(Duration d, F&& cb) {
    assert(d >= Duration::zero());
    return schedule_at(now_ + d, std::forward<F>(cb));
  }

  /// Schedules a cross-kernel handoff at absolute time `t` (>= now,
  /// asserted). `channel` identifies the handoff channel (unique per
  /// destination kernel) and `seq` the event's position in that channel's
  /// FIFO; together they form the event's identity in the injected
  /// tie-break band: at equal timestamps injected events run after all
  /// locally scheduled ones, ordered by (channel, seq). Handoffs are not
  /// cancellable — the source segment has already committed them.
  template <typename F>
  void schedule_injected(TimePoint t, std::uint32_t channel, std::uint64_t seq,
                         F&& cb) {
    static_assert(std::is_invocable_v<std::decay_t<F>&>,
                  "callback must be invocable with no arguments");
    assert(t >= now_ && "cannot inject into the past");
    assert(channel < (std::uint32_t{1} << kChannelBits) &&
           "handoff channel id space exhausted");
    assert(seq < (std::uint64_t{1} << kChanSeqBits) &&
           "handoff channel sequence space exhausted");
    const std::uint32_t idx = acquire_slot();
    slot(idx).emplace(std::forward<F>(cb), slab_);
    const std::uint64_t seqslot =
        kInjectedBit | std::uint64_t{channel} << (kSlotBits + kChanSeqBits) |
        seq << kSlotBits | idx;
    slot_seq_[idx] = seqslot;
    push(Entry{t, seqslot});
    ++live_;
    ++stats_.injected;
  }

  /// Cancels a scheduled event in O(1) (the heap entry is removed lazily).
  /// Idempotent; harmless on fired/invalid handles. The handle is
  /// invalidated.
  void cancel(TimerHandle& h);

  /// Executes the next pending event (advancing `now`). Returns false when
  /// the queue is empty.
  bool step();

  /// Runs every event with timestamp <= `t`, then sets now = t.
  void run_until(TimePoint t);

  /// Runs every event with timestamp strictly < `h` and leaves `now` at the
  /// last executed event (it does NOT advance to `h`). The conservative
  /// shard coordinator uses this to execute one epoch: handoffs released at
  /// or after the horizon can still be injected afterwards because `now`
  /// never passes them.
  void run_before(TimePoint h);

  /// Timestamp of the next live event, or TimePoint::max() when the queue
  /// is empty. Prunes lazily-cancelled entries from the heap front.
  [[nodiscard]] TimePoint peek_next_time();

  /// Runs until the event queue drains. Scenario code with periodic
  /// re-arming timers must use run_until instead.
  void run();

  /// Number of scheduled (non-cancelled) events.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Raw queue entries (heap plus register), including lazily-cancelled
  /// ones awaiting compaction (diagnostics and bounded-memory tests; always
  /// >= pending()).
  [[nodiscard]] std::size_t heap_entries() const {
    return heap_.size() + (front_.seqslot != 0 ? 1 : 0);
  }

 private:
  /// Heap entries are 16 bytes: the event's identity is one packed word,
  /// `seq << kSlotBits | slot`. The sequence number lives in the high bits
  /// so that comparing packed words at equal timestamps is exactly the FIFO
  /// seq comparison. Halving the entry from the naive 24-byte layout is a
  /// measured win — sift memory traffic dominates pop cost at realistic
  /// queue depths.
  struct Entry {
    TimePoint at;
    std::uint64_t seqslot;
  };

  /// Bit budget for the packed word: 2^39 locally scheduled events per
  /// simulation and 2^24 concurrently live slots (a slot is only reused
  /// after it frees, so slot count tracks the *peak* pending events, which
  /// at 64+ bytes per slot exhausts memory long before the index space).
  /// Both are asserted. The top bit selects the injected lane, whose
  /// identity word is (channel, channel-seq) instead of a local seq:
  ///
  ///   bit 63     | bits 53..62 | bits 24..52  | bits 0..23
  ///   lane (0/1) | channel     | channel seq  | slot index
  ///
  /// With the lane bit in the MSB and seq/channel above the slot index,
  /// comparing packed words at equal timestamps yields exactly the required
  /// order: all local events (FIFO by seq), then all injected events by
  /// (channel, channel seq) — independent of insertion time.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSeqBits = 39;
  static constexpr std::uint64_t kChanSeqBits = 29;
  static constexpr std::uint32_t kChannelBits = 10;
  static_assert(1 + kChannelBits + kChanSeqBits + kSlotBits == 64);
  static constexpr std::uint64_t kInjectedBit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;

  static constexpr std::uint32_t slot_of(std::uint64_t seqslot) {
    return static_cast<std::uint32_t>(seqslot & kSlotMask);
  }

  /// Timer slots are one InlineCallable each (a single cache line). They
  /// live in fixed-size chunks (stable addresses, one allocation per 256
  /// slots) and are recycled through a free list. Each slot's *current*
  /// packed identity is mirrored in a separate dense array (`slot_seq_`):
  /// stale-entry checks in the heap paths touch 8 bytes per probe instead
  /// of a whole slot line, and because sequence numbers never repeat, a
  /// stale heap entry or handle can never resurrect a reused slot (the
  /// classic generation-tag scheme with the tag folded into the seq).
  static constexpr std::uint32_t kSlotChunkShift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kSlotChunkMask = (1u << kSlotChunkShift) - 1;

  [[nodiscard]] detail::InlineCallable& slot(std::uint32_t i) {
    return slot_chunks_[i >> kSlotChunkShift][i & kSlotChunkMask];
  }

  /// Strict (time, seq) ordering — the FIFO tie-break at equal timestamps
  /// (seq occupies the packed word's high bits, so comparing the words
  /// compares seqs).
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seqslot < b.seqslot;
  }

  [[nodiscard]] bool stale(const Entry& e) const {
    return slot_seq_[slot_of(e.seqslot)] != e.seqslot;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Queues an entry: into the register when it is earlier than both the
  /// register's occupant (which then moves into the heap) and the heap's
  /// top, else into the heap.
  void push(Entry e);
  /// The earliest queued entry, stale or not (register first); nullptr
  /// when the queue is empty.
  [[nodiscard]] const Entry* front() const {
    if (front_.seqslot != 0) return &front_;
    return heap_.empty() ? nullptr : &heap_.front();
  }
  /// Removes the entry front() returned.
  void pop_front() {
    if (front_.seqslot != 0)
      front_.seqslot = 0;
    else
      heap_pop_front();
  }
  void heap_pop_front();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Drops all stale entries and re-heapifies; called when cancelled
  /// entries exceed the live ones (so amortised O(1) per cancel).
  void compact();

  static constexpr std::size_t kArity = 4;

  /// The earliest-event register: when occupied (seqslot != 0, which no
  /// event carries) it orders before every heap entry. It spares the heap
  /// a sift up and a sift down for each event that is the next to fire
  /// when it is scheduled.
  Entry front_{TimePoint::origin(), 0};
  std::vector<Entry> heap_;
  // slab_ must outlive slot_chunks_: slot destructors return their slab
  // blocks (members are destroyed in reverse declaration order).
  detail::CallableSlab slab_;
  std::vector<std::unique_ptr<detail::InlineCallable[]>> slot_chunks_;
  std::uint32_t slot_count_ = 0;  ///< slots constructed across all chunks
  /// Packed identity of each slot's current occupant (0 when free).
  std::vector<std::uint64_t> slot_seq_;
  std::vector<std::uint32_t> free_slots_;
  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  Stats stats_;
};

}  // namespace rtec
