// E8 — full-system integration: all three channel classes, synchronized
// drifting clocks, and omission faults at once (§5's composed system).
//
// 8 nodes on one bus:
//   4 HRT publishers (periodic sensor streams, one slot each, k=1)
//   1 HRT sporadic publisher (alarm, k=2, rarely fires)
//   2 SRT publishers (commands at 60% of the residual bandwidth)
//   1 NRT bulk uploader (continuously streaming blobs)
// Reported: per-class end-to-end latency distribution, deadline misses,
// missing-message count, per-class bus share, and the bus-level priority
// invariant (every observed frame ordering respects HRT < SRT < NRT when
// simultaneously pending).

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "core/hrtec.hpp"
#include "core/nrtec.hpp"
#include "core/scenario.hpp"
#include "time/periodic.hpp"
#include "core/srtec.hpp"
#include "trace/histogram.hpp"
#include "trace/metrics.hpp"
#include "util/random.hpp"
#include "util/task_pool.hpp"

using namespace rtec;
using namespace rtec::literals;

int main() {
  // RTEC_BENCH_QUICK=1: one simulated second instead of ten.
  const int run_seconds = bench::quick_mode() ? 1 : 10;
  TaskPool tasks;
  bench::title("E8", "mixed-criticality system: latency distributions per class");
  bench::note("8 nodes, drifting clocks (<=100 ppm) + sync, 1%% omission faults,");
  bench::note("%d simulated seconds", run_seconds);

  Scenario::Config cfg;
  cfg.calendar.round_length = 10_ms;
  Scenario scn{cfg};
  Rng rng{2024};

  std::vector<Node*> nodes;
  for (NodeId n = 1; n <= 8; ++n) {
    Node::ClockParams p;
    p.initial_offset = Duration::microseconds(rng.uniform_int(-25, 25));
    p.drift_ppb = rng.uniform_int(-100'000, 100'000);
    p.granularity = 1_us;
    nodes.push_back(&scn.add_node(n, p));
  }
  (void)scn.enable_clock_sync(8, 500_us);
  scn.set_fault_model(std::make_unique<RandomOmissionFaults>(0.01, 555));

  // --- HRT periodic streams -------------------------------------------
  struct HrtStream {
    std::unique_ptr<Hrtec> pub;
    std::unique_ptr<Hrtec> sub;
    TimePoint published;
    SampleSet latency;  // publish -> delivery, on the global timeline
    std::uint64_t missing = 0;
  };
  std::vector<std::unique_ptr<HrtStream>> hrt;
  for (int i = 0; i < 4; ++i) {
    const Subject subject = subject_of("e8/hrt" + std::to_string(i));
    SlotSpec slot;
    slot.lst_offset = 2_ms + Duration::microseconds(900) * i;
    slot.dlc = 8;
    slot.fault.omission_degree = 1;
    slot.etag = *scn.binding().bind(subject);
    slot.publisher = static_cast<NodeId>(i + 1);
    if (!scn.calendar().reserve(slot)) {
      std::puts("  reservation failed");
      return 1;
    }
    auto s = std::make_unique<HrtStream>();
    s->pub = std::make_unique<Hrtec>(nodes[static_cast<std::size_t>(i)]->middleware());
    s->sub = std::make_unique<Hrtec>(nodes[7]->middleware());
    hrt.push_back(std::move(s));
  }
  // Sporadic alarm from node 5.
  const Subject alarm_subject = subject_of("e8/alarm");
  {
    SlotSpec slot;
    slot.lst_offset = 7_ms;
    slot.dlc = 1;
    slot.fault.omission_degree = 2;
    slot.etag = *scn.binding().bind(alarm_subject);
    slot.publisher = 5;
    slot.periodic = false;
    if (!scn.calendar().reserve(slot)) {
      std::puts("  alarm reservation failed");
      return 1;
    }
  }

  scn.run_for(20_ms);  // sync warm-up before announcing

  for (int i = 0; i < 4; ++i) {
    HrtStream& s = *hrt[static_cast<std::size_t>(i)];
    const Subject subject = subject_of("e8/hrt" + std::to_string(i));
    (void)s.pub->announce(subject, AttributeList{attr::Periodic{10_ms}}, nullptr);
    HrtStream* sp = &s;
    Simulator& sim = scn.sim();
    (void)s.sub->subscribe(subject, AttributeList{attr::QueueCapacity{16}},
                           [sp, &sim] {
                             (void)sp->sub->getEvent();
                             sp->latency.add(sim.now() - sp->published);
                           },
                           [sp](const ExceptionInfo&) { ++sp->missing; });
    Node* node = nodes[static_cast<std::size_t>(i)];
    auto* loop = tasks.make();
    // Periodic on an absolute local timeline (re-arming from now() would
    // accumulate the clock tick truncation every round).
    auto next = std::make_shared<TimePoint>(node->clock().now());
    *loop = [sp, node, loop, next] {
      Event e;
      e.content = {8, 7, 6, 5, 4, 3, 2, 1};
      sp->published = node->middleware().context().sim.now();
      (void)sp->pub->publish(std::move(e));
      *next += 10_ms;
      node->clock().schedule_at_local(*next, [loop] { (*loop)(); });
    };
    (*loop)();
  }

  Hrtec alarm_pub{nodes[4]->middleware()};
  Hrtec alarm_sub{nodes[7]->middleware()};
  (void)alarm_pub.announce(alarm_subject, AttributeList{attr::Sporadic{10_ms}},
                           nullptr);
  int alarms_rx = 0;
  (void)alarm_sub.subscribe(alarm_subject, {},
                            [&] {
                              ++alarms_rx;
                              (void)alarm_sub.getEvent();
                            },
                            nullptr);
  int alarms_tx = 0;
  {
    auto* alarm_loop = tasks.make();
    *alarm_loop = [&, alarm_loop] {
      if (rng.bernoulli(0.03)) {  // ~3 alarms per second
        Event e;
        e.content = {0xEE};
        (void)alarm_pub.publish(std::move(e));
        ++alarms_tx;
      }
      scn.sim().schedule_after(10_ms, [alarm_loop] { (*alarm_loop)(); });
    };
    scn.sim().schedule_after(1_ms, [alarm_loop] { (*alarm_loop)(); });
  }

  // --- SRT command streams ----------------------------------------------
  struct SrtStream {
    std::unique_ptr<Srtec> pub;
    std::unique_ptr<Srtec> sub;
    TimePoint published;
    SampleSet latency;
    std::uint64_t misses = 0;
  };
  std::vector<std::unique_ptr<SrtStream>> srt;
  for (int i = 0; i < 2; ++i) {
    auto s = std::make_unique<SrtStream>();
    const Subject subject = subject_of("e8/srt" + std::to_string(i));
    s->pub = std::make_unique<Srtec>(nodes[static_cast<std::size_t>(5 + i)]->middleware());
    s->sub = std::make_unique<Srtec>(nodes[static_cast<std::size_t>(1 - i)]->middleware());
    SrtStream* sp = s.get();
    (void)s->pub->announce(subject,
                           AttributeList{attr::Deadline{5_ms},
                                         attr::Expiration{15_ms}},
                           [sp](const ExceptionInfo& e) {
                             if (e.error == ChannelError::kDeadlineMissed)
                               ++sp->misses;
                           });
    Simulator& sim = scn.sim();
    (void)s->sub->subscribe(subject, AttributeList{attr::QueueCapacity{32}},
                            [sp, &sim] {
                              (void)sp->sub->getEvent();
                              sp->latency.add(sim.now() - sp->published);
                            },
                            nullptr);
    auto* loop = tasks.make();
    Scenario* sc = &scn;
    *loop = [sp, sc, loop] {
      Event e;
      e.content = {1, 2, 3, 4};
      sp->published = sc->sim().now();
      (void)sp->pub->publish(std::move(e));
      sc->sim().schedule_after(1500_us, [loop] { (*loop)(); });
    };
    scn.sim().schedule_after(100_us * (i + 1), [loop] { (*loop)(); });
    srt.push_back(std::move(s));
  }

  // --- NRT bulk stream ---------------------------------------------------
  const AttributeList frag{attr::Fragmentation{true}};
  Nrtec bulk_pub{nodes[6]->middleware()};
  Nrtec bulk_sub{nodes[7]->middleware()};
  (void)bulk_pub.announce(subject_of("e8/bulk"), frag, nullptr);
  int blobs = 0;
  (void)bulk_sub.subscribe(subject_of("e8/bulk"), frag,
                           [&] {
                             ++blobs;
                             (void)bulk_sub.getEvent();
                           },
                           nullptr);
  {
    auto* feed = tasks.make();
    *feed = [&, feed] {
      if (nodes[6]->middleware().nrt().backlog_frames() < 8) {
        Event blob;
        blob.content.assign(2048, 0xBB);
        (void)bulk_pub.publish(std::move(blob));
      }
      scn.sim().schedule_after(5_ms, [feed] { (*feed)(); });
    };
    scn.sim().schedule_after(Duration::zero(), [feed] { (*feed)(); });
  }

  // --- run ----------------------------------------------------------------
  ClassUtilization util{scn.bus()};
  scn.run_for(Duration::seconds(run_seconds));

  std::printf("\n  %-12s %-10s %-10s %-10s %-10s %-12s %s\n", "stream",
              "mean(us)", "p50(us)", "p99(us)", "max(us)", "jitter(us)",
              "misses/missing");
  bench::rule();
  std::uint64_t hrt_missing = 0;
  for (std::size_t i = 0; i < hrt.size(); ++i) {
    const auto& s = *hrt[i];
    std::printf("  hrt%-9zu %-10.0f %-10.0f %-10.0f %-10.0f %-12.0f %llu\n", i,
                s.latency.mean() / 1e3, s.latency.median() / 1e3,
                s.latency.quantile(0.99) / 1e3, s.latency.max() / 1e3,
                (s.latency.max() - s.latency.min()) / 1e3,
                static_cast<unsigned long long>(s.missing));
    hrt_missing += s.missing;
  }
  for (std::size_t i = 0; i < srt.size(); ++i) {
    const auto& s = *srt[i];
    std::printf("  srt%-9zu %-10.0f %-10.0f %-10.0f %-10.0f %-12.0f %llu\n", i,
                s.latency.mean() / 1e3, s.latency.median() / 1e3,
                s.latency.quantile(0.99) / 1e3, s.latency.max() / 1e3,
                (s.latency.max() - s.latency.min()) / 1e3,
                static_cast<unsigned long long>(s.misses));
  }
  bench::rule();
  std::printf("  alarms: %d fired, %d delivered; blobs delivered: %d\n",
              alarms_tx, alarms_rx, blobs);
  std::printf("  bus share: HRT %.1f%%  SRT %.1f%%  NRT %.1f%%  (total %.1f%%)\n",
              util.fraction(TrafficClass::kHrt) * 100,
              util.fraction(TrafficClass::kSrt) * 100,
              util.fraction(TrafficClass::kNrt) * 100,
              scn.bus().utilization() * 100);
  // Hardware subject filtering (§2.1): node 1 subscribes to one SRT
  // channel, so its CPU sees only that stream + infrastructure frames out
  // of everything on the bus.
  const std::uint64_t total_frames =
      scn.bus().frames_ok() + scn.bus().frames_error();
  std::printf("  hw filtering: node 1 middleware saw %llu of %llu bus frames "
              "(%.1f%% filtered by the controller)\n",
              static_cast<unsigned long long>(
                  nodes[0]->middleware().rx_frames_seen()),
              static_cast<unsigned long long>(total_frames),
              100.0 * (1.0 - static_cast<double>(
                                 nodes[0]->middleware().rx_frames_seen()) /
                                 static_cast<double>(total_frames)));

  // Inline distribution of SRT end-to-end latencies — the contended class
  // whose shape matters (HRT is a spike at its deadline by construction).
  Histogram srt_hist{0, 1.2e6, 12};
  for (const auto& s : srt)
    for (double v : s->latency.values()) srt_hist.add(v);
  std::printf("\n  SRT end-to-end latency distribution:\n%s",
              srt_hist.render(/*unit_scale=*/1e3, " us").c_str());

  bench::note("HRT latency is pinned at the (constant) publish->deadline span");
  bench::note("with jitter limited to the clock ticks; SRT latency varies with");
  bench::note("contention but misses stay rare; the NRT stream soaks up the");
  bench::note("rest. HRT missing total: %llu (faults stayed within k).",
              static_cast<unsigned long long>(hrt_missing));
  return 0;
}
