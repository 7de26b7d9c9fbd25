// E11 — single point of failure: masterless event channels vs FTT-CAN
// (§4: "both protocols are based on a master-slave mechanism which we
// wanted to avoid in our system because the master constitutes a single
// point of failure").
//
// Identical periodic workload (one 10 ms stream) on both protocols. At
// t = 1 s the "most important" node dies:
//   * ours — the clock-sync master. Data flow needs no master: the
//     publisher keeps its reservation and the receivers keep their
//     windows; the clocks merely start to coast apart at their drift
//     rates, so deliveries continue and only degrade when accumulated
//     skew finally exceeds the slot tolerances.
//   * FTT-CAN — the scheduling master. Slaves transmit only when polled:
//     synchronous traffic stops with the next missing trigger message.
//
// Output: deliveries per 500 ms bucket over 5 s, per protocol and drift
// magnitude.

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "baselines/ftt_can.hpp"
#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "core/hrtec.hpp"
#include "core/scenario.hpp"
#include "time/periodic.hpp"

using namespace rtec;
using namespace rtec::literals;

namespace {

constexpr Duration kBucket = Duration::milliseconds(500);

std::vector<int> run_ours(std::int64_t drift_ppb, bool rate_servo,
                          Duration total) {
  Scenario::Config cfg;
  cfg.calendar.round_length = 10_ms;
  Scenario scn{cfg};
  Node& pub_node = scn.add_node(1, {Duration::microseconds(8), drift_ppb, 1_us});
  Node& sub_node = scn.add_node(2, {Duration::microseconds(-6), -drift_ppb, 1_us});
  Node& master = scn.add_node(3, {Duration::zero(), drift_ppb / 3, 1_us});
  (void)scn.enable_clock_sync(master.id(), 500_us, rate_servo);

  const Subject subject = subject_of("e11/stream");
  SlotSpec slot;
  slot.lst_offset = 2_ms;
  slot.dlc = 4;
  slot.fault.omission_degree = 1;
  slot.etag = *scn.binding().bind(subject);
  slot.publisher = pub_node.id();
  (void)*scn.calendar().reserve(slot);

  scn.run_for(20_ms);  // sync warm-up

  Hrtec pub{pub_node.middleware()};
  Hrtec sub{sub_node.middleware()};
  (void)pub.announce(subject, AttributeList{attr::Periodic{10_ms}}, nullptr);
  std::vector<int> buckets(static_cast<std::size_t>(total / kBucket), 0);
  (void)sub.subscribe(subject, AttributeList{attr::QueueCapacity{8}},
                      [&] {
                        (void)sub.getEvent();
                        const auto b = static_cast<std::size_t>(
                            scn.sim().now().ns() / kBucket.ns());
                        if (b < buckets.size())
                          ++buckets[b];
                      },
                      nullptr);
  PeriodicLocalTask feeder{pub_node.clock(), 10_ms, [&] {
                             Event e;
                             e.content = {1, 2, 3, 4};
                             (void)pub.publish(std::move(e));
                           }};
  feeder.start();

  // Kill the sync master (the only "special" node we have) at 1 s.
  scn.sim().schedule_at(TimePoint::origin() + Duration::seconds(1), [&] {
    master.controller().set_online(false);
    if (master.sync_master() != nullptr) master.sync_master()->stop();
  });

  scn.run_until(TimePoint::origin() + total);
  return buckets;
}

std::vector<int> run_ftt(Duration total) {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController master_ctl{sim, 1};
  CanController producer_ctl{sim, 2};
  CanController consumer_ctl{sim, 3};
  bus.attach(master_ctl);
  bus.attach(producer_ctl);
  bus.attach(consumer_ctl);

  FttConfig cfg;
  cfg.elementary_cycle = 10_ms;
  cfg.async_window_offset = 4_ms;
  cfg.bus = bus.config();

  FttMaster master{sim, master_ctl, cfg};
  master.add_stream({0, 2, 4, 10_ms});
  FttSlave producer{sim, producer_ctl, cfg};
  producer.produce(0, [](std::uint8_t) {
    CanFrame f;
    f.id = 0x100;
    f.dlc = 4;
    f.data = {1, 2, 3, 4, 0, 0, 0, 0};
    return f;
  });

  std::vector<int> buckets(static_cast<std::size_t>(total / kBucket), 0);
  consumer_ctl.add_rx_listener([&](const CanFrame& f, TimePoint now) {
    if (f.id != 0x100) return;
    const auto b = static_cast<std::size_t>(now.ns() / kBucket.ns());
    if (b < buckets.size()) ++buckets[b];
  });

  master.start();
  sim.schedule_at(TimePoint::origin() + Duration::seconds(1), [&] {
    master_ctl.set_online(false);
    master.stop();
  });
  sim.run_until(TimePoint::origin() + total);
  return buckets;
}

}  // namespace

int main() {
  bench::title("E11", "master failure: event channels (masterless data plane) vs FTT-CAN");
  bench::note("10 ms periodic stream; at t=1 s the sync master (ours) / the");
  bench::note("scheduling master (FTT-CAN) dies. Deliveries per 500 ms bucket:");

  // RTEC_BENCH_QUICK=1: 2 s, the master's death and one second after it.
  const Duration total = Duration::seconds(bench::quick_mode() ? 2 : 5);
  const auto ours_servo = run_ours(150'000, /*rate_servo=*/true, total);
  const auto ours_raw = run_ours(150'000, /*rate_servo=*/false, total);
  const auto ftt = run_ftt(total);

  std::printf("\n  %-16s %-16s %-17s %s\n", "bucket (ms)",
              "ours (servo)", "ours (no servo)", "ftt-can");
  bench::rule();
  for (int b = 0; b < static_cast<int>(ftt.size()); ++b) {
    const std::int64_t start = b * kBucket.ns() / 1'000'000;
    std::printf("  %5lld - %-8lld %-16d %-17d %d %s\n",
                static_cast<long long>(start),
                static_cast<long long>(start + 500),
                ours_servo[static_cast<std::size_t>(b)],
                ours_raw[static_cast<std::size_t>(b)],
                ftt[static_cast<std::size_t>(b)],
                start == 1000 ? "  <- master dies" : "");
  }
  bench::rule();
  bench::note("Both runs use ±150 ppm clocks. FTT-CAN stops dead at the first");
  bench::note("missing trigger message. Our data plane has no master: the");
  bench::note("stream continues at full rate; without the rate servo the");
  bench::note("unsynchronized clocks coast apart at their raw 300 ppm relative");
  bench::note("drift and deliveries die out after ~0.5 s of coasting, while the");
  bench::note("windowed servo has learned the rate error and keeps the stream");
  bench::note("alive for the remaining 4 s of the run.");
  return 0;
}
