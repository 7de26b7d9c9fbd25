// Microbenchmarks (google-benchmark) of the simulation substrate itself:
// event-queue throughput (schedule / cancel / fire isolated and combined),
// exact frame-length computation, frame-accurate bus throughput,
// middleware publish-path cost, and RTEB trace decoding. These bound how
// much simulated traffic the experiment harnesses can afford and guard
// against performance regressions in the kernel.
//
// Results are mirrored to BENCH_simcore.json (items/s per benchmark) so the
// perf trajectory is trackable PR-over-PR.

#include <benchmark/benchmark.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/sweep.hpp"
#include "canbus/bus.hpp"
#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "sim/simulator.hpp"
#include "trace/binary.hpp"
#include "util/random.hpp"

using namespace rtec;
using namespace rtec::literals;

namespace {

// ------------------------------------------------------------ event kernel

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    const auto n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i)
      sim.schedule_at(TimePoint::origin() + Duration::microseconds(i),
                      [&fired] { ++fired; });
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1024)->Arg(16384);

// Schedule throughput in isolation: fill a fresh kernel, never fire.
void BM_SimulatorScheduleOnly(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < n; ++i)
      sim.schedule_at(TimePoint::origin() + Duration::microseconds(i), [] {});
    benchmark::DoNotOptimize(sim.pending());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorScheduleOnly)->Arg(4096);

// Cancel throughput in isolation: O(1) lazy cancellation of live timers.
void BM_SimulatorCancelOnly(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::vector<Simulator::TimerHandle> handles(static_cast<std::size_t>(n));
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    for (int i = 0; i < n; ++i)
      handles[static_cast<std::size_t>(i)] = sim.schedule_at(
          TimePoint::origin() + Duration::microseconds(i), [] {});
    state.ResumeTiming();
    for (auto& h : handles) sim.cancel(h);
    benchmark::DoNotOptimize(sim.pending());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorCancelOnly)->Arg(4096);

// Fire throughput in isolation: a pre-filled queue is drained with trivial
// callbacks, timing only pop + dispatch + slot release.
void BM_SimulatorFireOnly(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::optional<Simulator> sim;
  int fired = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim.emplace();
    fired = 0;
    for (int i = 0; i < n; ++i)
      sim->schedule_at(TimePoint::origin() + Duration::microseconds(i),
                       [&fired] { ++fired; });
    state.ResumeTiming();
    sim->run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorFireOnly)->Arg(4096);

// Fire + re-arm round trip: one self-re-arming timer via the TaskPool
// idiom (periodic re-arm from inside the callback). The std::function hop
// in the middle is part of the measured pattern.
void BM_SimulatorFireChain(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    int remaining = n;
    // Re-arm via reference capture — the TaskPool idiom scenario scripts
    // use (util/task_pool.hpp), so the fire path is measured without a
    // std::function copy per event.
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.schedule_after(1_us, [&tick] { tick(); });
    };
    sim.schedule_after(1_us, [&tick] { tick(); });
    sim.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorFireChain)->Arg(4096);

void BM_SimulatorTimerCancel(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    const auto n = static_cast<int>(state.range(0));
    std::vector<Simulator::TimerHandle> handles;
    handles.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      handles.push_back(sim.schedule_at(
          TimePoint::origin() + Duration::microseconds(i), [] {}));
    for (auto& h : handles) sim.cancel(h);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorTimerCancel)->Arg(4096);

// ------------------------------------------------------------ frame length

// Exact stuffed length of one frame: serialization + CRC-15 + stuff
// counting, as the bus computes it for every attempt. A seeded corpus of
// 4096 frames (both formats, dlc 0..8, random ids and payloads) is cycled so
// the branch predictor cannot learn one frame's bit pattern.
void BM_FrameWireBitsUncached(benchmark::State& state) {
  std::vector<CanFrame> corpus(4096);
  Rng r{1};
  for (CanFrame& f : corpus) {
    f.extended = r.bernoulli(0.5);
    f.id = static_cast<std::uint32_t>(
        r.uniform_int(0, f.extended ? kMaxExtendedId : kMaxBaseId));
    f.dlc = static_cast<std::uint8_t>(r.uniform_int(0, 8));
    for (auto& b : f.data) b = static_cast<std::uint8_t>(r.uniform_int(0, 255));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame_wire_bits(corpus[i]));
    i = (i + 1) % corpus.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameWireBitsUncached);

// ------------------------------------------------------------ full stack

// Two controllers saturate the bus with ids 0x100 and 0x200; the second
// argument fills the bus up to that many controllers. Every extra one has a
// listener and one filter that misses both ids, except one promiscuous
// controller, so the row reads the canbus layer's cost per frame as the
// bus grows while each frame's audience stays the same.
void BM_BusSaturatedFrames(benchmark::State& state) {
  const auto controllers = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    Simulator sim;
    CanBus bus{sim, BusConfig{}};
    CanController a{sim, 1};
    CanController b{sim, 2};
    bus.attach(a);
    bus.attach(b);
    std::vector<std::unique_ptr<CanController>> extra;
    std::uint64_t heard = 0;
    for (std::size_t i = 2; i < controllers; ++i) {
      extra.push_back(
          std::make_unique<CanController>(sim, static_cast<NodeId>(i + 1)));
      CanController& c = *extra.back();
      c.add_rx_listener([&heard](const CanFrame&, TimePoint) { ++heard; });
      if (i > 2)
        c.add_acceptance_filter(
            {0x300u + static_cast<std::uint32_t>(i), kMaxExtendedId});
      bus.attach(c);
    }
    // Keep both mailboxes full: back-to-back arbitration + transmission.
    std::uint64_t sent = 0;
    const std::uint64_t target = static_cast<std::uint64_t>(state.range(0));
    std::function<void(CanController&, std::uint32_t)> feed =
        [&](CanController& c, std::uint32_t id) {
          CanFrame f;
          f.id = id;
          f.dlc = 8;
          (void)c.submit(f, TxMode::kAutoRetransmit,
                         [&, id](auto, const CanFrame&, bool, TimePoint) {
                           if (++sent < target) feed(c, id);
                         });
        };
    feed(a, 0x100);
    feed(b, 0x200);
    sim.run();
    benchmark::DoNotOptimize(sent);
    benchmark::DoNotOptimize(heard);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel("frames");
}
BENCHMARK(BM_BusSaturatedFrames)
    ->ArgNames({"frames", "controllers"})
    ->Args({10000, 2})
    ->Args({10000, 32})
    ->Args({10000, 64});

void BM_SrtPublishPath(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Scenario scn;
    Node::ClockParams perfect;
    perfect.granularity = 1_ns;
    Node& n1 = scn.add_node(1, perfect);
    scn.add_node(2, perfect);
    Srtec pub{n1.middleware()};
    (void)pub.announce(subject_of("bm/srt"), {}, nullptr);
    state.ResumeTiming();

    for (int i = 0; i < 1000; ++i) {
      Event e;
      e.content = {1, 2, 3, 4};
      benchmark::DoNotOptimize(pub.publish(std::move(e)).has_value());
      scn.run_for(200_us);  // drain so the queue stays shallow
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.SetLabel("publish+tx+deliver");
}
BENCHMARK(BM_SrtPublishPath)->Unit(benchmark::kMillisecond);

// The overload regime of E5 and E10, which BM_SrtPublishPath (depth 1)
// never reaches: one node publishes a backlog of 1,000 events at one
// instant, with seeded deadlines on a 100 us grid (so many are equal) and
// the channel's default expiration, then runs until its queue drains.
// Newcomers preempt the staged message, and most of the backlog expires
// while queued.
void BM_SrtDeepQueue(benchmark::State& state) {
  constexpr int kEvents = 1000;
  for (auto _ : state) {
    state.PauseTiming();
    Scenario scn;
    Node::ClockParams perfect;
    perfect.granularity = 1_ns;
    Node& n1 = scn.add_node(1, perfect);
    scn.add_node(2, perfect);
    Srtec pub{n1.middleware()};
    (void)pub.announce(subject_of("bm/srt"), {}, nullptr);
    Rng rng{7};
    state.ResumeTiming();

    for (int i = 0; i < kEvents; ++i) {
      Event e;
      e.content = {1, 2, 3, 4};
      // Up to the default expiration (20 ms), which must not precede it.
      e.attributes.deadline =
          scn.sim().now() +
          Duration::microseconds(100 * rng.uniform_int(10, 200));
      benchmark::DoNotOptimize(pub.publish(std::move(e)).has_value());
    }
    while (n1.middleware().srt().queue_length() > 0) scn.run_for(1_ms);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
  state.SetLabel("backlog publish+preempt+expire");
}
BENCHMARK(BM_SrtDeepQueue)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ trace decode

// One fixed, seeded RTEB stream shaped like a recorded attack run: 16
// periodic ids with jittered periods and a payload that changes on every
// fourth frame, then a last quarter where a fuzzer adds a new identifier to
// one frame in ten, and each fuzzed frame raises an alarm.
const std::string& rteb_stream() {
  static const std::string bytes = [] {
    trace::RtebWriter w{0};
    Rng rng{1};
    CanBus::FrameEvent ev;
    ev.frame.dlc = 8;
    ev.success = true;
    ev.wire_bits = 130;
    ev.attempt = 1;
    constexpr int kFrames = 1 << 16;
    std::int64_t t_ns = 0;
    for (int i = 0; i < kFrames; ++i) {
      t_ns += 130'000 + rng.uniform_int(0, 2'000);
      ev.end = TimePoint::from_ns(t_ns);
      const bool fuzzed = i >= kFrames * 3 / 4 && rng.bernoulli(0.1);
      if (fuzzed) {
        ev.frame.id = static_cast<std::uint32_t>(
            rng.uniform_int(0x1000, kMaxExtendedId));
        ev.sender = 9;
        ev.frame.data[1] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      } else {
        ev.frame.id = 0x100u + static_cast<std::uint32_t>(i % 16);
        ev.sender = static_cast<NodeId>(1 + i % 16);
        ev.frame.data[0] = static_cast<std::uint8_t>(i / 64);
      }
      w.add_frame(ev);
      if (fuzzed) w.add_alarm("iat_gate", ev.end, ev.frame.id, 0.0, true);
    }
    return w.bytes();
  }();
  return bytes;
}

/// Records read_all decodes from rteb_stream().
std::size_t rteb_stream_records() {
  auto reader = trace::RtebReader::open(rteb_stream());
  return reader->read_all()->size();
}

void BM_RtebReadAll(benchmark::State& state) {
  const std::string& bytes = rteb_stream();
  for (auto _ : state) {
    auto reader = trace::RtebReader::open(bytes);
    auto records = reader->read_all();
    benchmark::DoNotOptimize(records->data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rteb_stream_records()));
  state.SetLabel("records");
}
BENCHMARK(BM_RtebReadAll)->Unit(benchmark::kMillisecond);

void BM_RtebToCandump(benchmark::State& state) {
  const std::string& bytes = rteb_stream();
  for (auto _ : state) {
    auto text = trace::rteb_to_candump(bytes, "can0");
    benchmark::DoNotOptimize(text->data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rteb_stream_records()));
  state.SetLabel("records");
}
BENCHMARK(BM_RtebToCandump)->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------- JSON mirror

/// Console output as usual, plus one BENCH_simcore.json row per benchmark.
class JsonMirrorReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      rows.emplace_back(run.benchmark_name(),
                        run.counters.find("items_per_second") !=
                                run.counters.end()
                            ? static_cast<double>(
                                  run.counters.at("items_per_second"))
                            : 0.0,
                        run.GetAdjustedRealTime());
    }
  }

  struct Result {
    Result(std::string n, double ips, double t)
        : name{std::move(n)}, items_per_second{ips}, real_time_ns{t} {}
    std::string name;
    double items_per_second;
    double real_time_ns;
  };
  std::vector<Result> rows;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonMirrorReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  rtec::bench::BenchJson bj{"simcore"};
  bj.meta("generated_by", "bench_simcore");
  for (std::size_t i = 0; i < reporter.rows.size(); ++i) {
    // Benchmark names become meta-free rows: {"bench": index} + metrics;
    // the name itself is carried in meta to keep row cells numeric.
    bj.meta("bench_" + std::to_string(i), reporter.rows[i].name);
    bj.row({{"bench", static_cast<double>(i)},
            {"items_per_second", reporter.rows[i].items_per_second},
            {"real_time_ns", reporter.rows[i].real_time_ns}});
  }
  if (!bj.write()) std::fprintf(stderr, "could not write BENCH_simcore.json\n");
  return 0;
}
