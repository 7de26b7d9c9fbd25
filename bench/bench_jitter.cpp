// E3 — latency and period jitter: middleware delivery-hold vs network-level
// delivery (§2.2 properties 2-3, §3.2).
//
// A periodic HRT stream runs under random omission faults (masked by time
// redundancy, k=3). Three delivery disciplines are compared over the same
// fault process:
//   net      — event handed to the application at end-of-frame (where in
//              the slot the successful attempt landed): jittery.
//   mw       — the paper's scheme: held until the delivery deadline: the
//              application-visible jitter collapses to the clock tick.
//   ttcan    — TTCAN-style baseline: k+1 copies always transmitted in the
//              exclusive window, receiver takes the FIRST successful copy
//              at its end-of-frame.
//
// Series: fault probability sweep; per scheme: mean latency (from slot
// ready), latency jitter (peak-to-peak), period jitter (peak-to-peak).

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>

#include "baselines/ttcan.hpp"
#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "core/hrtec.hpp"
#include "core/scenario.hpp"
#include "util/stats.hpp"

using namespace rtec;
using namespace rtec::literals;

namespace {

struct JitterStats {
  double mean_latency_us = 0;
  double latency_jitter_us = 0;  // peak-to-peak
  double period_jitter_us = 0;   // peak-to-peak of inter-delivery times
  double bits_per_round = 0;     // channel's bus usage
  std::size_t delivered = 0;
};

/// One scheme's figures from its latencies and its inter-delivery gaps,
/// both in ns: each jitter is the peak-to-peak spread.
JitterStats summarize(const SampleSet& latency, const OnlineStats& gaps,
                      double bits_per_round) {
  JitterStats s;
  s.mean_latency_us = latency.mean() / 1e3;
  s.latency_jitter_us = (latency.max() - latency.min()) / 1e3;
  s.period_jitter_us = gaps.span() / 1e3;
  s.bits_per_round = bits_per_round;
  s.delivered = latency.count();
  return s;
}

/// Adds the gap since the previous delivery, if any, and remembers `t`.
void add_gap(OnlineStats& gaps, std::optional<TimePoint>& last, TimePoint t) {
  if (last) gaps.add(static_cast<double>((t - *last).ns()));
  last = t;
}

Node::ClockParams perfect() {
  Node::ClockParams p;
  p.granularity = 1_ns;
  return p;
}

/// Our scheme. Returns stats for both the network-level arrival instant
/// and the middleware delivery instant of the same run.
void run_ours(double p, int rounds, JitterStats& net, JitterStats& mw) {
  Scenario::Config cfg;
  cfg.calendar.round_length = 5_ms;
  Scenario scn{cfg};
  Node& pub_node = scn.add_node(1, perfect());
  Node& sub_node = scn.add_node(2, perfect());

  const Subject subject = subject_of("e3/stream");
  SlotSpec slot;
  slot.lst_offset = 1_ms;
  slot.dlc = 8;
  slot.fault.omission_degree = 3;
  slot.etag = *scn.binding().bind(subject);
  slot.publisher = pub_node.id();
  const std::size_t slot_index = *scn.calendar().reserve(slot);
  scn.set_fault_model(std::make_unique<RandomOmissionFaults>(p, 99));

  Hrtec pub{pub_node.middleware()};
  Hrtec sub{sub_node.middleware()};
  (void)pub.announce(subject, {}, nullptr);

  SampleSet net_latency;
  SampleSet mw_latency;
  OnlineStats net_gaps;
  OnlineStats mw_gaps;
  std::optional<TimePoint> net_last;
  std::optional<TimePoint> mw_last;
  std::int64_t hrt_bits = 0;

  TimePoint cur_ready;
  scn.bus().add_observer([&](const CanBus::FrameEvent& ev) {
    if (id_priority(ev.frame.id) != kHrtPriority) return;
    hrt_bits += ev.wire_bits;
    if (ev.success) {
      net_latency.add(ev.end - cur_ready);
      add_gap(net_gaps, net_last, ev.end);
    }
  });
  (void)sub.subscribe(subject, AttributeList{attr::QueueCapacity{8}},
                      [&] {
                        (void)sub.getEvent();
                        const TimePoint now = sub_node.clock().now();
                        mw_latency.add(now - cur_ready);
                        add_gap(mw_gaps, mw_last, now);
                      },
                      nullptr);

  for (int r = 0; r < rounds; ++r) {
    const auto inst = scn.calendar().instance_at_or_after(
        slot_index, TimePoint::origin() + cfg.calendar.round_length * r);
    if (r == 0) cur_ready = inst.ready;
    scn.sim().schedule_at(inst.ready - 10_us, [&, inst] {
      cur_ready = inst.ready;
      Event e;
      e.content = {1, 2, 3, 4, 5, 6, 7, 8};
      (void)pub.publish(std::move(e));
    });
  }
  scn.run_for(cfg.calendar.round_length * rounds + 2_ms);

  const double bits_per_round = static_cast<double>(hrt_bits) / rounds;
  net = summarize(net_latency, net_gaps, bits_per_round);
  mw = summarize(mw_latency, mw_gaps, bits_per_round);
}

JitterStats run_ttcan(double p, int rounds) {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController::Config ctl_cfg;
  ctl_cfg.auto_recovery_delay = bus.config().bit_time() * (128 * 11);
  CanController owner{sim, 1, ctl_cfg};
  CanController receiver{sim, 2, ctl_cfg};
  bus.attach(owner);
  bus.attach(receiver);
  RandomOmissionFaults faults{p, 99};
  bus.set_fault_model(&faults);

  TtcanSchedule schedule;
  schedule.basic_cycle = 5_ms;
  schedule.bus = bus.config();
  // Exclusive window sized like our k=3 slot; 4 copies always sent.
  schedule.windows.push_back(
      {TtcanWindow::Kind::kExclusive, 1_ms, hrt_slot_window(8, {3}, bus.config()),
       1, 4});

  TtcanDriver driver{sim, owner, schedule};
  driver.set_exclusive_source([](std::size_t, std::uint64_t) {
    CanFrame f;
    f.id = 0x100;
    f.dlc = 8;
    f.data = {1, 2, 3, 4, 5, 6, 7, 8};
    return f;
  });

  SampleSet latency;
  OnlineStats gaps;
  std::optional<TimePoint> last;
  std::int64_t bits = 0;
  std::uint64_t seen_cycle = ~0ull;
  bus.add_observer([&](const CanBus::FrameEvent& ev) {
    bits += ev.wire_bits;
    if (!ev.success) return;
    const auto cycle = static_cast<std::uint64_t>(
        ev.end.ns() / schedule.basic_cycle.ns());
    if (cycle == seen_cycle) return;  // only the first good copy delivers
    seen_cycle = cycle;
    const TimePoint window_start =
        TimePoint::origin() +
        schedule.basic_cycle * static_cast<std::int64_t>(cycle) + 1_ms;
    latency.add(ev.end - window_start);
    add_gap(gaps, last, ev.end);
  });

  driver.start();
  sim.run_until(TimePoint::origin() + schedule.basic_cycle * rounds + 2_ms);

  return summarize(latency, gaps, static_cast<double>(bits) / rounds);
}

}  // namespace

int main() {
  // RTEC_BENCH_QUICK=1: two fault rates, 150 rounds a point.
  const bool quick = bench::quick_mode();
  const int rounds = quick ? 150 : 1500;
  bench::title("E3", "latency & period jitter: middleware hold vs network delivery");
  bench::note("periodic HRT stream, 5 ms period, slot k=3, %d rounds/point",
              rounds);

  std::printf("\n  %-6s %-8s %-15s %-17s %-19s %-11s %s\n", "p", "scheme",
              "mean lat (us)", "lat jitter (us)", "period jitter (us)",
              "bits/round", "delivered");
  bench::rule();
  for (double p : {0.0, 0.05, 0.15, 0.30}) {
    if (quick && p != 0.0 && p != 0.15) continue;
    JitterStats net;
    JitterStats mw;
    run_ours(p, rounds, net, mw);
    const JitterStats ttcan = run_ttcan(p, rounds);
    const auto row = [&](const char* name, const JitterStats& s) {
      std::printf("  %-6.2f %-8s %-15.1f %-17.1f %-19.1f %-11.0f %zu\n", p,
                  name, s.mean_latency_us, s.latency_jitter_us,
                  s.period_jitter_us, s.bits_per_round, s.delivered);
    };
    row("net", net);
    row("mw", mw);
    row("ttcan", ttcan);
    bench::rule();
  }
  bench::note("mw rows: latency jitter collapses to ~0 at every fault rate —");
  bench::note("jitter is removed in the middleware at the price of mean latency");
  bench::note("pinned to the WCTT deadline. ttcan rows: always ~4x the bandwidth");
  bench::note("(all copies always sent), and its first-good-copy delivery still");
  bench::note("jitters under faults. net rows: the raw arrival spread the");
  bench::note("middleware hides. Nonzero mw *period* jitter at high p comes only");
  bench::note("from whole instances lost beyond the k=3 assumption (see the");
  bench::note("delivered column), which double the inter-delivery gap.");
  return 0;
}
