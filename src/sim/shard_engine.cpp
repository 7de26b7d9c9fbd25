#include "sim/shard_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

namespace rtec {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// min(bound, min over k of next[k] + row[k]) in uint64: every next[k] is
/// a non-negative int64 and every row entry at most INT64_MAX, so no sum
/// wraps. Four independent lanes keep the min chains short.
inline std::uint64_t row_min(const TimePoint* next, const std::uint64_t* row,
                             std::size_t n, std::uint64_t bound) {
  const auto at = [&](std::size_t k) {
    return static_cast<std::uint64_t>(next[k].ns()) + row[k];
  };
  std::uint64_t h0 = bound;
  std::uint64_t h1 = bound;
  std::uint64_t h2 = bound;
  std::uint64_t h3 = bound;
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    h0 = std::min(h0, at(k));
    h1 = std::min(h1, at(k + 1));
    h2 = std::min(h2, at(k + 2));
    h3 = std::min(h3, at(k + 3));
  }
  for (; k < n; ++k) h0 = std::min(h0, at(k));
  return std::min(std::min(h0, h1), std::min(h2, h3));
}

}  // namespace

/// Scatter/gather pool that lives as long as its engine. The calling
/// thread (thread 0) and `helpers` helper threads (1..helpers) each own a
/// fixed block of shards for the pool's lifetime: with T threads and S
/// shards, shard s belongs to thread floor(s*T/S), the contiguous rule
/// Scenario::shard_of uses for segments, so a kernel stays in one core's
/// cache and neighbouring segments share it. Each epoch every thread runs
/// ShardEngine::run_owned over its shards (shards are independent within
/// an epoch, so which thread runs which shard cannot affect results).
///
/// The barrier is spin-then-park: city-scale runs have epochs of tens of
/// microseconds, where a condvar round-trip per epoch costs more than the
/// epoch itself. Both sides first spin on an atomic for a fixed,
/// clock-free iteration count and only then take the mutex; parking is
/// the fallback for oversubscribed hosts and for the time between
/// run_until calls. Happens-before edges (TSan-verified): release/acquire
/// on `epoch_` publishes the caller's barrier work (sealed batches, inbox
/// lists, the folded next_, the reach index) to helpers; release/acquire
/// on `remaining_` publishes every helper's kernel mutations, reach rows,
/// next_out_ entries, Worker blocks and dirty lists back to the caller. The parked paths re-check
/// their predicate under the mutex, so a notify can never slip between
/// check and sleep.
class EpochPool {
 public:
  EpochPool(unsigned helpers, ShardEngine& engine) : engine_{engine} {
    threads_.reserve(helpers);
    for (unsigned i = 1; i <= helpers; ++i)
      threads_.emplace_back([this, i] { helper(i); });
  }

  EpochPool(const EpochPool&) = delete;
  EpochPool& operator=(const EpochPool&) = delete;

  ~EpochPool() {
    {
      const std::lock_guard<std::mutex> lk{m_};
      stop_.store(true, std::memory_order_release);
    }
    cv_start_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Threads that execute shards, the caller included.
  [[nodiscard]] std::size_t threads() const { return threads_.size() + 1; }

  /// Runs ShardEngine::run_owned on every thread; returns when all are
  /// done.
  void run_epoch() {
    remaining_.store(threads_.size(), std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    if (parked_.load(std::memory_order_seq_cst) != 0) {
      const std::lock_guard<std::mutex> lk{m_};
      cv_start_.notify_all();
    }
    engine_.run_owned(0, threads());
    for (int spins = kSpin; remaining_.load(std::memory_order_acquire) != 0;
         --spins) {
      if (spins <= 0) {
        std::unique_lock<std::mutex> lk{m_};
        caller_waiting_ = true;
        cv_done_.wait(lk, [this] {
          return remaining_.load(std::memory_order_acquire) == 0;
        });
        caller_waiting_ = false;
        park_waits_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      cpu_relax();
    }
    spin_waits_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Barrier waits resolved without parking (caller + helpers) since the
  /// last call, which resets the count. Exact between epochs: helper
  /// increments happen-before the remaining_ decrement the caller waits on.
  [[nodiscard]] std::uint64_t take_spin_waits() {
    return spin_waits_.exchange(0, std::memory_order_acq_rel);
  }
  /// Barrier waits that fell back to the parked condvar path, likewise.
  [[nodiscard]] std::uint64_t take_park_waits() {
    return park_waits_.exchange(0, std::memory_order_acq_rel);
  }

 private:
  // Iteration-count spin budget (never wall-clock: src/sim is
  // deterministic-source linted). ~kSpin pause iterations outlasts a
  // typical epoch; beyond that parking is cheaper.
  static constexpr int kSpin = 1 << 14;

  void helper(std::size_t self) {
    std::uint64_t seen = 0;
    for (;;) {
      bool parked = false;
      for (int spins = kSpin; epoch_.load(std::memory_order_acquire) == seen;
           --spins) {
        if (stop_.load(std::memory_order_acquire)) return;
        if (spins <= 0) {
          std::unique_lock<std::mutex> lk{m_};
          parked_.fetch_add(1, std::memory_order_seq_cst);
          cv_start_.wait(lk, [&] {
            return stop_.load(std::memory_order_acquire) ||
                   epoch_.load(std::memory_order_acquire) != seen;
          });
          parked_.fetch_sub(1, std::memory_order_relaxed);
          parked = true;
          break;
        }
        cpu_relax();
      }
      if (stop_.load(std::memory_order_acquire)) return;
      // Wait accounting (relaxed: the remaining_ handshake below publishes
      // it); destruction-time waits never reach here.
      (parked ? park_waits_ : spin_waits_)
          .fetch_add(1, std::memory_order_relaxed);
      // The caller waits for remaining_ == 0 before starting the next
      // epoch, so at most one bump is outstanding here.
      seen = epoch_.load(std::memory_order_acquire);
      engine_.run_owned(self, threads());
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::lock_guard<std::mutex> lk{m_};
        if (caller_waiting_) cv_done_.notify_one();
      }
    }
  }

  ShardEngine& engine_;
  std::vector<std::thread> threads_;
  std::mutex m_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> remaining_{0};
  std::atomic<unsigned> parked_{0};
  std::atomic<std::uint64_t> spin_waits_{0};
  std::atomic<std::uint64_t> park_waits_{0};
  bool caller_waiting_ = false;  ///< guarded by m_
  std::atomic<bool> stop_{false};
};

ShardEngine::ShardEngine() = default;
ShardEngine::~ShardEngine() = default;

void ShardEngine::add_shard(Simulator& sim) {
  shards_.push_back(&sim);
  dirty_.emplace_back();
  reach_stale_ = true;
}

HandoffChannel& ShardEngine::link(std::size_t from, std::size_t to,
                                  Duration latency) {
  assert(from < shards_.size() && to < shards_.size());
  HandoffBatch* batch = nullptr;
  if (from != to) {
    const auto [it, inserted] =
        direction_index_.try_emplace(std::pair{from, to}, directions_.size());
    if (inserted) {
      directions_.push_back(
          Direction{from, to, latency,
                    std::make_unique<HandoffBatch>(*shards_[to], to,
                                                   &dirty_[from])});
    } else {
      Direction& d = directions_[it->second];
      d.min_latency = std::min(d.min_latency, latency);
    }
    batch = directions_[it->second].batch.get();
    reach_stale_ = true;
  }
  assert(channels_.size() < (std::size_t{1} << 10) &&
         "handoff channel id space exhausted (Simulator::kChannelBits)");
  channels_.push_back(std::make_unique<HandoffChannel>(
      *shards_[to], static_cast<std::uint32_t>(channels_.size()), latency,
      batch));
  return *channels_.back();
}

Duration ShardEngine::incoming_lookahead(std::size_t shard) const {
  Duration l = Duration::max();
  for (const Direction& d : directions_)
    if (d.to == shard) l = std::min(l, d.min_latency);
  return l;
}

Duration ShardEngine::reach(std::size_t to, std::size_t from) {
  assert(to < shards_.size() && from < shards_.size());
  if (reach_stale_) {
    prepare_reach();
    build_rows(0, shards_.size());
    reach_stale_ = false;
  }
  return Duration::nanoseconds(
      static_cast<std::int64_t>(reach_[to * shards_.size() + from]));
}

void ShardEngine::prepare_reach() {
  const std::size_t n = shards_.size();
  // Incoming directions of each shard, in CSR form.
  in_first_.assign(n + 1, 0);
  for (const Direction& d : directions_) ++in_first_[d.to + 1];
  for (std::size_t i = 0; i < n; ++i) in_first_[i + 1] += in_first_[i];
  in_.resize(directions_.size());
  std::vector<std::size_t> fill(in_first_.begin(), in_first_.end() - 1);
  std::vector<std::size_t> out_degree(n, 0);
  for (const Direction& d : directions_) {
    in_[fill[d.to]++] = {d.from, static_cast<std::uint64_t>(d.min_latency.ns())};
    ++out_degree[d.from];
  }
  // Room for every outgoing direction: posting never allocates.
  for (std::size_t i = 0; i < n; ++i) dirty_[i].reserve(out_degree[i]);
  reach_.resize(n * n);
}

void ShardEngine::build_rows(std::size_t begin, std::size_t end) {
  const std::size_t n = shards_.size();
  // Row i by label-correcting backwards from i over incoming links, with
  // a FIFO of shards whose label dropped. A shard is queued at most once
  // at a time, so n slots suffice, and with every latency positive the
  // labels end at the least path lengths. On the 64-shard grid a row
  // costs about a third of a binary-heap Dijkstra.
  std::vector<std::size_t> fifo(n);
  std::vector<char> queued(n, 0);
  for (std::size_t i = begin; i < end; ++i) {
    std::uint64_t* const dist = &reach_[i * n];
    std::fill(dist, dist + n, kNoPath);
    std::size_t head = 0;
    std::size_t tail = 0;
    std::size_t count = 0;
    // Lowers every shard with a link into `via` to `at` + that link.
    const auto relax = [&](std::size_t via, std::uint64_t at) {
      for (std::size_t e = in_first_[via]; e < in_first_[via + 1]; ++e) {
        const auto [from, latency] = in_[e];
        // Saturate at kNoPath: a path that long constrains nothing.
        const std::uint64_t d = std::min(at + latency, kNoPath);
        if (d >= dist[from]) continue;
        dist[from] = d;
        if (queued[from] != 0) continue;
        queued[from] = 1;
        fifo[tail] = from;
        tail = tail + 1 == n ? 0 : tail + 1;
        ++count;
      }
    };
    // Paths of one or more links: i starts unreached and is labelled only
    // by a cycle back into it.
    relax(i, 0);
    while (count > 0) {
      const std::size_t j = fifo[head];
      head = head + 1 == n ? 0 : head + 1;
      --count;
      queued[j] = 0;
      relax(j, dist[j]);
    }
  }
}

TimePoint ShardEngine::barrier() {
  TimePoint next_min = TimePoint::max();
  for (Worker& w : workers_) {
    next_min = std::min(next_min, w.next_min);
    for (HandoffBatch* b : w.dirty) {
      const std::size_t to = b->dest_shard();
      next_[to] = std::min(next_[to], b->earliest());
      next_min = std::min(next_min, b->earliest());
      const std::size_t n = b->seal();
      inbox_[to].push_back(b);
      stats_.handoffs += n;
      ++stats_.handoff_batches;
      stats_.handoff_bytes += n * HandoffBatch::pending_bytes();
    }
    w.dirty.clear();
  }
  return next_min;
}

void ShardEngine::inject_inbox(std::size_t shard) {
  for (HandoffBatch* b : inbox_[shard]) b->inject();
  inbox_[shard].clear();
}

void ShardEngine::hand_over_dirty(std::size_t shard, Worker& w) {
  for (HandoffBatch* b : dirty_[shard]) w.dirty.push_back(b);
  dirty_[shard].clear();
}

void ShardEngine::run_owned(std::size_t self, std::size_t threads) {
  const std::size_t n = shards_.size();
  const auto end = static_cast<std::uint64_t>(end_excl_.ns());
  Worker& w = workers_[self];
  TimePoint local_min = TimePoint::max();
  // floor(s*T/S) == self holds exactly for s in [ceil(self*S/T),
  // ceil((self+1)*S/T)).
  const std::size_t first = (self * n + threads - 1) / threads;
  const std::size_t last = ((self + 1) * n + threads - 1) / threads;
  // The first epoch after link(): each owner builds the rows it reads.
  if (reach_stale_) build_rows(first, last);
  for (std::size_t i = first; i < last; ++i) {
    inject_inbox(i);
    TimePoint next = next_[i];
    // A shard whose next event lies at or beyond the run bound cannot run
    // this epoch, whatever its horizon.
    const TimePoint horizon =
        next < end_excl_
            ? TimePoint::from_ns(static_cast<std::int64_t>(
                  row_min(next_.data(), &reach_[i * n], n, end)))
            : end_excl_;
    // Progress: every term of the earliest shard's row lies above its N.
    assert(next != epoch_min_ || next < horizon);
    if (next < horizon) {
      shards_[i]->run_before(horizon);
      ++w.shard_runs;
      ++stats_.per_shard_runs[i];
      // The advance is a positive int64; log2 bucket = position of its
      // highest set bit.
      const auto advance = static_cast<std::uint64_t>((horizon - next).ns());
      ++w.horizon_advance_log2[static_cast<std::size_t>(
          std::bit_width(advance) - 1)];
      next = shards_[i]->peek_next_time();
      hand_over_dirty(i, w);
    } else if (next < TimePoint::max()) {
      // Pending work but no safe horizon this epoch: the idle time the
      // speedup investigation wants attributed.
      ++w.shard_skips;
      ++stats_.per_shard_skips[i];
    }
    next_out_[i] = next;
    local_min = std::min(local_min, next);
  }
  w.next_min = local_min;
}

void ShardEngine::run_until(TimePoint t) {
  assert(t < TimePoint::max());
  const std::size_t n = shards_.size();
  const auto threads = std::min<std::size_t>(threads_, n);
  // The horizon bound is exclusive; run_before(t + 1ns) executes every
  // event with timestamp <= t, i.e. run_until(t) semantics.
  end_excl_ = t + Duration::nanoseconds(1);

  if (reach_stale_) prepare_reach();
  inbox_.resize(n);
  next_.resize(n);
  next_out_.resize(n);
  workers_.resize(std::max<std::size_t>(threads, 1));
  if (stats_.per_shard_runs.size() != n) {
    stats_.per_shard_runs.resize(n, 0);
    stats_.per_shard_skips.resize(n, 0);
  }
  if (pool_ && pool_->threads() != threads) pool_.reset();

  // Events may have been scheduled or cancelled, and handoffs posted,
  // from outside since the last call: peek every shard and collect every
  // dirty list once. Epochs then hand both over per thread.
  TimePoint entry_min = TimePoint::max();
  for (std::size_t i = 0; i < n; ++i) {
    next_[i] = shards_[i]->peek_next_time();
    assert(next_[i].ns() >= 0 && "events precede the origin");
    entry_min = std::min(entry_min, next_[i]);
    hand_over_dirty(i, workers_.front());
  }
  for (Worker& w : workers_) w.next_min = TimePoint::max();
  workers_.front().next_min = entry_min;

  for (;;) {
    const TimePoint next_min = barrier();
    if (next_min > t) break;
    epoch_min_ = next_min;
    ++stats_.epochs;
    if (threads > 1) {
      if (!pool_)
        pool_ = std::make_unique<EpochPool>(
            static_cast<unsigned>(threads - 1), *this);
      pool_->run_epoch();
    } else {
      run_owned(0, 1);
    }
    reach_stale_ = false;
    // The owners wrote every shard's next-event time into next_out_; it
    // is what the next barrier folds into and the next epoch reads.
    next_.swap(next_out_);
  }
  // The final barrier sealed what the last epoch posted; everything else
  // was injected by its destination's owner. Every pending handoff is now
  // in its kernel, as after any earlier barrier.
  for (std::size_t i = 0; i < n; ++i) inject_inbox(i);
  for (Worker& w : workers_) {
    stats_.shard_runs += std::exchange(w.shard_runs, 0);
    stats_.shard_skips += std::exchange(w.shard_skips, 0);
    for (std::size_t b = 0; b < w.horizon_advance_log2.size(); ++b)
      stats_.horizon_advance_log2[b] +=
          std::exchange(w.horizon_advance_log2[b], 0);
  }
  if (pool_) {
    stats_.barrier_spins += pool_->take_spin_waits();
    stats_.barrier_parks += pool_->take_park_waits();
  }
  // All events <= t have executed; park each kernel at t.
  for (Simulator* s : shards_) s->run_until(t);
}

}  // namespace rtec
