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

/// Saturating horizon arithmetic: a drained shard reports
/// TimePoint::max(), and max() + latency must stay "no constraint", not
/// wrap negative.
inline TimePoint saturating_add(TimePoint t, Duration d) {
  if (t > TimePoint::max() - d) return TimePoint::max();
  return t + d;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Executes one active shard's epoch and records its next pending time,
/// while the kernel is still hot in this thread's cache.
inline void run_shard(Simulator& sim, TimePoint horizon, TimePoint& next) {
  sim.run_before(horizon);
  next = sim.peek_next_time();
}

}  // namespace

/// Scatter/gather pool that lives as long as its engine. The calling
/// thread (thread 0) and `helpers` helper threads (1..helpers) each own a
/// fixed block of shards for the pool's lifetime: with T threads and S
/// shards, shard s belongs to thread floor(s*T/S), the contiguous rule
/// Scenario::shard_of uses for segments, so a kernel stays in one core's
/// cache and neighbouring segments share it. Each epoch every thread runs
/// the active shards it owns (active shards are independent within an
/// epoch, so which thread runs which shard cannot affect results).
///
/// The barrier is spin-then-park: city-scale runs have epochs of tens of
/// microseconds, where a condvar round-trip per epoch costs more than the
/// epoch itself. Both sides first spin on an atomic for a fixed,
/// clock-free iteration count and only then take the mutex; parking is
/// the fallback for oversubscribed hosts and for the time between
/// run_until calls. Happens-before edges (TSan-verified): release/acquire
/// on `epoch_` publishes the caller's barrier work (batch drains, kernel
/// mutations, horizon/active arrays) to helpers; release/acquire on
/// `remaining_` publishes every helper's kernel mutations and `next_`
/// entries back to the caller. The parked paths re-check their predicate
/// under the mutex, so a notify can never slip between check and sleep.
class EpochPool {
 public:
  EpochPool(unsigned helpers, const std::vector<Simulator*>& shards,
            const std::vector<TimePoint>& horizon,
            const std::vector<std::uint32_t>& active,
            std::vector<TimePoint>& next)
      : shards_{shards}, horizon_{horizon}, active_{active}, next_{next} {
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

  /// Executes run_before(horizon[s]) for every s in the active list, each
  /// on its owner thread; returns when all are done.
  void run_epoch() {
    remaining_.store(threads_.size(), std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    if (parked_.load(std::memory_order_seq_cst) != 0) {
      const std::lock_guard<std::mutex> lk{m_};
      cv_start_.notify_all();
    }
    work(0);
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

  /// Runs the active shards thread `self` owns: floor(s*T/S) == self
  /// holds exactly for s in [ceil(self*S/T), ceil((self+1)*S/T)), a run of
  /// the (ascending) active list.
  void work(std::size_t self) {
    const std::size_t n = shards_.size();
    const std::size_t t = threads();
    const std::size_t end = ((self + 1) * n + t - 1) / t;
    for (auto it = std::lower_bound(active_.begin(), active_.end(),
                                    (self * n + t - 1) / t);
         it != active_.end() && *it < end; ++it)
      run_shard(*shards_[*it], horizon_[*it], next_[*it]);
  }

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
      work(self);
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::lock_guard<std::mutex> lk{m_};
        if (caller_waiting_) cv_done_.notify_one();
      }
    }
  }

  const std::vector<Simulator*>& shards_;
  const std::vector<TimePoint>& horizon_;
  const std::vector<std::uint32_t>& active_;
  std::vector<TimePoint>& next_;
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

HandoffChannel& ShardEngine::link(std::size_t from, std::size_t to,
                                  Duration latency) {
  assert(from < shards_.size() && to < shards_.size());
  HandoffBatch* batch = nullptr;
  if (from != to) {
    const auto [it, inserted] =
        direction_index_.try_emplace(std::pair{from, to}, directions_.size());
    if (inserted) {
      directions_.push_back(Direction{
          from, to, latency, std::make_unique<HandoffBatch>(*shards_[to])});
    } else {
      Direction& d = directions_[it->second];
      d.min_latency = std::min(d.min_latency, latency);
    }
    batch = directions_[it->second].batch.get();
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

TimePoint ShardEngine::drain_and_peek(bool peek_all) {
  for (Direction& d : directions_) {
    const std::size_t n = d.batch->drain();
    stats_.handoffs += n;
    if (n > 0) {
      ++stats_.handoff_batches;
      stats_.handoff_bytes += n * HandoffBatch::pending_bytes();
      if (!peek_all) next_[d.to] = shards_[d.to]->peek_next_time();
    }
  }
  if (peek_all)
    for (std::size_t i = 0; i < shards_.size(); ++i)
      next_[i] = shards_[i]->peek_next_time();
  TimePoint next_min = TimePoint::max();
  for (const TimePoint n : next_) next_min = std::min(next_min, n);
  return next_min;
}

void ShardEngine::compute_horizons(TimePoint end_excl) {
  active_.clear();
  horizon_.assign(shards_.size(), end_excl);
  if (!directions_.empty()) {
    // Earliest output time of each shard: the least fixpoint of
    //   ET_j = min(N_j, min over incoming (k -> j) of ET_k + L_kj),
    // found by label-correcting relaxation from ET = N: sweep every
    // direction until a sweep lowers nothing. A shard's pending queue
    // alone (N_j) is NOT a sound bound on what it may yet execute: it can
    // receive a handoff below N_j and relay it, so transitive chains must
    // be closed over. Every latency is positive, so the fixpoint is unique
    // and a shortest path crosses at most S - 1 links: the loop ends
    // within S sweeps. Saturated sources (drained shards, N == max) relax
    // nothing and receive whatever reaches them through links.
    et_ = next_;
    for (bool lowered = true; lowered;) {
      lowered = false;
      for (const Direction& d : directions_) {
        const TimePoint reach = saturating_add(et_[d.from], d.min_latency);
        if (reach < et_[d.to]) {
          et_[d.to] = reach;
          lowered = true;
        }
      }
    }
    // H_i = min over incoming links (j -> i) of ET_j + L_ji. A feeder
    // nothing can ever reach (ET_j == max) imposes no constraint.
    for (const Direction& d : directions_)
      horizon_[d.to] = std::min(horizon_[d.to],
                                saturating_add(et_[d.from], d.min_latency));
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const TimePoint h = horizon_[i];
    if (next_[i] < h) {
      active_.push_back(static_cast<std::uint32_t>(i));
      ++stats_.per_shard_runs[i];
      // h <= end_excl < max and next_[i] < h, so the advance is a positive
      // int64; log2 bucket = position of its highest set bit.
      const auto advance = static_cast<std::uint64_t>((h - next_[i]).ns());
      ++stats_.horizon_advance_log2[static_cast<std::size_t>(
          std::bit_width(advance) - 1)];
    } else if (next_[i] < TimePoint::max()) {
      // Pending work but no safe horizon this epoch: the idle time the
      // speedup investigation wants attributed.
      ++stats_.shard_skips;
      ++stats_.per_shard_skips[i];
    }
  }
  // Progress: the shard holding next_min has ET == next_min (positive
  // latencies cannot lower it further), so every bound on it is at least
  // next_min + L > next_min and it is always active.
  assert(!active_.empty());
}

void ShardEngine::run_until(TimePoint t) {
  assert(t < TimePoint::max());
  const auto threads = std::min<std::size_t>(threads_, shards_.size());
  // The horizon bound is exclusive; run_before(t + 1ns) executes every
  // event with timestamp <= t, i.e. run_until(t) semantics.
  const TimePoint end_excl = t + Duration::nanoseconds(1);

  next_.resize(shards_.size(), TimePoint::max());
  active_.reserve(shards_.size());
  if (stats_.per_shard_runs.size() != shards_.size()) {
    stats_.per_shard_runs.resize(shards_.size(), 0);
    stats_.per_shard_skips.resize(shards_.size(), 0);
  }
  if (pool_ && pool_->threads() != threads) pool_.reset();

  TimePoint prev_min = TimePoint::max();  // sentinel: no epoch yet
  // The first barrier peeks every shard: events may have been scheduled
  // or cancelled from outside since the last call.
  for (bool first = true;; first = false) {
    const TimePoint next_min = drain_and_peek(first);
    if (next_min > t) break;
    if (epoch_span_ != nullptr && prev_min != TimePoint::max())
      epoch_span_->record((next_min - prev_min).ns());
    prev_min = next_min;
    compute_horizons(end_excl);
    ++stats_.epochs;
    stats_.shard_runs += active_.size();
    if (threads > 1 && active_.size() > 1) {
      if (!pool_)
        pool_ = std::make_unique<EpochPool>(
            static_cast<unsigned>(threads - 1), shards_, horizon_, active_,
            next_);
      pool_->run_epoch();
    } else {
      // Serial path (and single-active-shard epochs, where the barrier
      // round-trip would cost more than it buys): index order, which is
      // irrelevant to results — active shards are independent within an
      // epoch.
      for (const std::uint32_t s : active_)
        run_shard(*shards_[s], horizon_[s], next_[s]);
    }
  }
  if (pool_) {
    stats_.barrier_spins += pool_->take_spin_waits();
    stats_.barrier_parks += pool_->take_park_waits();
  }
  // All events <= t have executed and every pending handoff releasing
  // <= t has been injected (loop invariant); park each kernel at t.
  for (Simulator* s : shards_) s->run_until(t);
}

void ShardEngine::reset_stats() {
  stats_ = Stats{};
  stats_.per_shard_runs.assign(shards_.size(), 0);
  stats_.per_shard_skips.assign(shards_.size(), 0);
}

void ShardEngine::set_profiler(SpanProfiler* p) {
  epoch_span_ = p != nullptr ? p->slot("engine.epoch_advance") : nullptr;
}

}  // namespace rtec
