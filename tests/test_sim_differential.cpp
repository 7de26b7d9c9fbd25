// Differential / property tests for the event kernel: randomized
// schedule/cancel/run_until/step scripts are replayed against a naive
// reference model (unsorted vector, linear min-scan by (time, seq)) and the
// execution order, timestamps and now() trajectory must match bit-exactly.
// This is the behaviour-preservation proof for the d-ary-heap kernel
// rewrite (see docs/performance.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace rtec {
namespace {

using literals::operator""_us;

/// Naive but obviously-correct kernel: events in an unsorted vector; the
/// next event is the linear-scan minimum by (time, seq) — the documented
/// FIFO-at-equal-times semantics by construction.
class ReferenceKernel {
 public:
  using Handle = std::uint64_t;  // 0 = inert

  [[nodiscard]] TimePoint now() const { return now_; }

  Handle schedule_at(TimePoint t, std::function<void()> cb) {
    events_.push_back({t, next_seq_++, next_id_, std::move(cb)});
    return next_id_++;
  }

  void cancel(Handle& h) {
    const Handle target = h;
    if (target != 0)
      std::erase_if(events_, [&](const Ev& e) { return e.id == target; });
    h = 0;
  }

  bool step() {
    if (events_.empty()) return false;
    std::size_t best = 0;
    for (std::size_t i = 1; i < events_.size(); ++i) {
      const bool is_earlier =
          events_[i].at != events_[best].at
              ? events_[i].at < events_[best].at
              : events_[i].seq < events_[best].seq;
      if (is_earlier) best = i;
    }
    Ev ev = std::move(events_[best]);
    events_.erase(events_.begin() + static_cast<std::ptrdiff_t>(best));
    now_ = ev.at;
    ev.cb();
    return true;
  }

  void run_until(TimePoint t) {
    for (;;) {
      const Ev* next = nullptr;
      for (const Ev& e : events_)
        if (next == nullptr || e.at < next->at ||
            (e.at == next->at && e.seq < next->seq))
          next = &e;
      if (next == nullptr || next->at > t) break;
      step();
    }
    now_ = t;
  }

  [[nodiscard]] std::size_t pending() const { return events_.size(); }

 private:
  struct Ev {
    TimePoint at;
    std::uint64_t seq;
    std::uint64_t id;
    std::function<void()> cb;
  };
  std::vector<Ev> events_;
  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
};

/// One fired event as observed from the outside: which logical event fired
/// and what the kernel clock read at that instant.
struct Fired {
  int label;
  std::int64_t at_ns;
  bool operator==(const Fired&) const = default;
};

/// Replays an identical randomized script against kernel type K. Callbacks
/// log (label, now) and occasionally schedule children / cancel other
/// timers from inside the callback — exercising reentrancy the same way
/// the bus/middleware stack does. Script decisions depend only on the seed
/// and on state that must evolve identically across kernels, so any
/// divergence in the logs is a behavioural difference in the kernel.
template <typename K, typename Handle>
std::pair<std::vector<Fired>, std::vector<std::int64_t>> replay(
    std::uint64_t seed, int ops) {
  K k;
  Rng rng{seed};
  std::vector<Fired> log;
  std::vector<std::int64_t> now_trajectory;
  std::map<int, Handle> outstanding;
  int next_label = 0;

  std::function<std::function<void()>(int, int)> make_cb =
      [&](int label, int depth) -> std::function<void()> {
    return [&, label, depth] {
      log.push_back({label, k.now().ns()});
      // Every third event schedules a child (depth-limited), every fifth
      // cancels the oldest outstanding timer — from inside the callback.
      if (label % 3 == 0 && depth < 2) {
        const int child = 1'000'000 * (depth + 1) + label;
        outstanding[child] =
            k.schedule_at(k.now() + Duration::microseconds(label % 7),
                          make_cb(child, depth + 1));
      }
      if (label % 5 == 0 && !outstanding.empty()) {
        auto it = outstanding.begin();
        k.cancel(it->second);
        outstanding.erase(it);
      }
    };
  };

  for (int op = 0; op < ops; ++op) {
    const int kind = static_cast<int>(rng.uniform_int(0, 9));
    if (kind < 5) {  // schedule
      const int label = next_label++;
      const TimePoint at =
          k.now() + Duration::nanoseconds(rng.uniform_int(0, 50'000));
      outstanding[label] = k.schedule_at(at, make_cb(label, 0));
    } else if (kind < 7) {  // cancel a random outstanding handle
      if (!outstanding.empty()) {
        auto it = outstanding.begin();
        std::advance(
            it, static_cast<long>(rng.uniform_int(
                    0, static_cast<std::int64_t>(outstanding.size()) - 1)));
        k.cancel(it->second);
        outstanding.erase(it);
      }
    } else if (kind < 9) {  // step
      (void)k.step();
      now_trajectory.push_back(k.now().ns());
    } else {  // run_until a short horizon
      k.run_until(k.now() + Duration::nanoseconds(rng.uniform_int(0, 30'000)));
      now_trajectory.push_back(k.now().ns());
    }
  }
  // Drain.
  while (k.step()) now_trajectory.push_back(k.now().ns());
  return {log, now_trajectory};
}

TEST(SimulatorDifferential, RandomizedScriptsMatchReferenceKernel) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL, 987654321ULL}) {
    const auto [ref_log, ref_now] =
        replay<ReferenceKernel, ReferenceKernel::Handle>(seed, 600);
    const auto [sim_log, sim_now] =
        replay<Simulator, Simulator::TimerHandle>(seed, 600);
    EXPECT_EQ(ref_log, sim_log) << "event order diverged, seed " << seed;
    EXPECT_EQ(ref_now, sim_now) << "now() trajectory diverged, seed " << seed;
    EXPECT_FALSE(sim_log.empty());
  }
}

/// Many events at few distinct timestamps: the regime where a broken
/// tie-break would reorder.
template <typename K>
std::vector<Fired> equal_timestamp_batch(std::uint64_t seed) {
  K k;
  Rng rng{seed};
  std::vector<Fired> log;
  for (int i = 0; i < 500; ++i) {
    const TimePoint at =
        TimePoint::origin() + Duration::microseconds(rng.uniform_int(0, 4));
    (void)k.schedule_at(at,
                        [&log, i, &k] { log.push_back({i, k.now().ns()}); });
  }
  while (k.step()) {
  }
  return log;
}

TEST(SimulatorDifferential, HeavyEqualTimestampBatchesKeepFifoOrder) {
  for (std::uint64_t seed : {3ULL, 99ULL}) {
    EXPECT_EQ(equal_timestamp_batch<ReferenceKernel>(seed),
              equal_timestamp_batch<Simulator>(seed));
  }
}

TEST(SimulatorDifferential, RegisterEntryCancelledAndDisplacedAtEqualTimestamps) {
  // The earliest-event register beside the heap: equal-timestamp pushes
  // that order earlier (the local band before the injected one, a lower
  // channel before a higher) displace its occupant; a cancelled occupant
  // stays counted until it is pruned, exactly as a heap entry would.
  Simulator sim;
  std::vector<std::string> log;
  const auto tag = [&](const char* name) {
    return [&log, &sim, name] {
      log.push_back(std::string{name} + "@" + std::to_string(sim.now().ns()));
    };
  };
  const TimePoint t = TimePoint::from_ns(100);
  sim.schedule_injected(t, /*channel=*/2, /*seq=*/0, tag("inj2"));
  sim.schedule_injected(t, /*channel=*/1, /*seq=*/0, tag("inj1"));
  Simulator::TimerHandle h = sim.schedule_at(t, tag("cancelled"));
  EXPECT_EQ(sim.heap_entries(), 3u);
  sim.cancel(h);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.heap_entries(), 3u);
  // Same timestamp, later sequence than the cancelled occupant: the heap.
  sim.schedule_at(t, tag("local"));
  // An earlier timestamp displaces the cancelled occupant into the heap.
  sim.schedule_at(TimePoint::from_ns(50), tag("early"));
  EXPECT_EQ(sim.heap_entries(), 5u);
  EXPECT_EQ(sim.peek_next_time().ns(), 50);
  // Firing "early" leaves the cancelled entry in front; looking for the
  // next event prunes it, as it would at the heap's top.
  sim.run_until(TimePoint::from_ns(60));
  EXPECT_EQ(sim.heap_entries(), 3u);
  EXPECT_EQ(sim.peek_next_time(), t);
  // A local event at the register's timestamp, scheduled from inside a
  // firing callback, runs before the injected band.
  sim.schedule_at(t, [&] {
    tag("local2")();
    sim.schedule_at(t, tag("nested"));
  });
  sim.run_until(t);
  EXPECT_EQ(log, (std::vector<std::string>{"early@50", "local@100",
                                           "local2@100", "nested@100",
                                           "inj1@100", "inj2@100"}));
  EXPECT_EQ(sim.heap_entries(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
}

/// Local and injected events at a handful of timestamps, with cancels,
/// against a linear-scan model of the documented total order: time, then
/// every local event by sequence, then injected events by (channel, seq).
TEST(SimulatorDifferential, MixedLanesAtFewTimestampsMatchModel) {
  struct Model {
    TimePoint at;
    std::uint64_t key;
    int label;
  };
  for (const std::uint64_t seed : {5ULL, 17ULL, 2024ULL}) {
    Simulator sim;
    Rng rng{seed};
    std::vector<Model> model;
    std::vector<int> got;
    std::vector<int> want;
    std::map<int, Simulator::TimerHandle> handles;
    std::array<std::uint64_t, 4> chan_seq{};
    std::uint64_t local_seq = 0;
    int label = 0;
    const auto model_step = [&](TimePoint bound) {
      for (;;) {
        auto best = model.end();
        for (auto it = model.begin(); it != model.end(); ++it)
          if (best == model.end() || it->at < best->at ||
              (it->at == best->at && it->key < best->key))
            best = it;
        if (best == model.end() || best->at > bound) return;
        want.push_back(best->label);
        model.erase(best);
      }
    };
    for (int op = 0; op < 2000; ++op) {
      const auto kind = rng.uniform_int(0, 9);
      const TimePoint at =
          sim.now() + Duration::nanoseconds(rng.uniform_int(0, 3) * 1'000);
      const int l = label++;
      if (kind < 4) {
        handles[l] = sim.schedule_at(at, [&got, l] { got.push_back(l); });
        model.push_back({at, local_seq++, l});
      } else if (kind < 7) {
        const auto chan = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
        const std::uint64_t seq = chan_seq[chan]++;
        sim.schedule_injected(at, chan, seq, [&got, l] { got.push_back(l); });
        model.push_back(
            {at, (std::uint64_t{1} << 62) | std::uint64_t{chan} << 32 | seq, l});
      } else if (kind < 8 && !handles.empty()) {
        auto it = handles.begin();
        std::advance(it, static_cast<long>(rng.uniform_int(
                             0, static_cast<std::int64_t>(handles.size()) - 1)));
        const int victim = it->first;
        sim.cancel(it->second);
        handles.erase(it);
        std::erase_if(model, [victim](const Model& m) { return m.label == victim; });
      } else {
        const TimePoint bound = sim.now() + Duration::nanoseconds(1'500);
        sim.run_until(bound);
        model_step(bound);
        // Fired handles are inert now; forget them so cancels stay live.
        std::erase_if(handles, [&](const auto& kv) {
          return std::find(got.begin(), got.end(), kv.first) != got.end();
        });
      }
      ASSERT_EQ(got, want) << "seed " << seed << " op " << op;
      ASSERT_EQ(sim.pending(), model.size()) << "seed " << seed << " op " << op;
    }
    sim.run();
    model_step(TimePoint::max());
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(SimulatorRegression, CancelHeavyWorkloadStaysBounded) {
  // Schedule/cancel churn with no firing: lazy deletion plus compaction
  // must keep both pending() and the raw heap bounded across rounds — no
  // unbounded growth of heap entries or slots.
  Simulator sim;
  constexpr int kBatch = 10'000;
  constexpr int kRounds = 50;
  std::vector<Simulator::TimerHandle> handles;
  for (int r = 0; r < kRounds; ++r) {
    handles.clear();
    for (int i = 0; i < kBatch; ++i)
      handles.push_back(
          sim.schedule_after(Duration::microseconds(100 + i), [] {}));
    for (auto& h : handles) sim.cancel(h);
    EXPECT_EQ(sim.pending(), 0u);
    // All entries are stale; compaction must have culled the heap well
    // below the kBatch * kRounds total ever scheduled.
    EXPECT_LE(sim.heap_entries(), static_cast<std::size_t>(kBatch));
  }
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.heap_entries(), 0u);
}

TEST(SimulatorRegression, MixedCancelFireDrainsCompletely) {
  Simulator sim;
  std::vector<Simulator::TimerHandle> handles;
  for (int r = 0; r < 20; ++r) {
    handles.clear();
    int fired = 0;
    for (int i = 0; i < 5'000; ++i)
      handles.push_back(
          sim.schedule_after(Duration::microseconds(i + 1), [&] { ++fired; }));
    // Cancel 90%, fire the rest.
    for (std::size_t i = 0; i < handles.size(); ++i)
      if (i % 10 != 0) sim.cancel(handles[i]);
    sim.run();
    EXPECT_EQ(fired, 500);
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.heap_entries(), 0u);
  }
}

TEST(SimulatorRegression, GenerationTagsPreventStaleHandleAliasing) {
  // A cancelled slot is recycled by later schedules; a stale copy of the
  // old handle must stay inert instead of cancelling the new occupant.
  Simulator sim;
  int fired = 0;
  auto h = sim.schedule_after(1_us, [&] { fired += 100; });
  auto h_copy = h;  // copy taken BEFORE the cancel invalidates `h`
  sim.cancel(h);
  auto fresh = sim.schedule_after(2_us, [&] { ++fired; });  // reuses the slot
  sim.cancel(h_copy);  // stale generation: must NOT hit `fresh`
  sim.run();
  EXPECT_EQ(fired, 1);
  (void)fresh;
}

TEST(SimulatorRegression, SlabSizedCapturesFireCorrectly) {
  // Captures between the inline buffer (32 B) and the slab block (128 B)
  // take the slab path; verify content integrity across slot recycling.
  Simulator sim;
  std::array<std::uint64_t, 12> payload{};  // 96 bytes
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i + 1;
  std::uint64_t sum = 0;
  for (int round = 0; round < 3; ++round) {
    sim.schedule_after(Duration::microseconds(round + 1), [payload, &sum] {
      for (std::uint64_t v : payload) sum += v;
    });
  }
  sim.run();
  EXPECT_EQ(sum, 3u * (12u * 13u / 2u));
}

TEST(SimulatorRegression, LargeCapturesFireCorrectly) {
  // Captures above the slab block go through the heap fallback; verify
  // content integrity and destruction (ASan/LSan cover leaks).
  Simulator sim;
  std::vector<std::uint64_t> big(64);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * i;
  std::array<std::uint64_t, 24> payload{};  // 192 bytes of direct capture
  payload.fill(0xa5a5a5a5ULL);
  std::uint64_t sum = 0;
  sim.schedule_after(1_us, [big, payload, &sum] {
    for (std::uint64_t v : big) sum += v;
    sum += payload[23];
  });
  sim.run();
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 64; ++i) expect += i * i;
  EXPECT_EQ(sum, expect + 0xa5a5a5a5ULL);
}

}  // namespace
}  // namespace rtec
