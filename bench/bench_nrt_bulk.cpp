// E7 — NRT bulk transfer (§2.2.3): fragmentation throughput and
// non-interference.
//
// A maintenance node uploads ROM-image-sized payloads over a fragmented
// NRT channel while periodic HRT traffic and SRT traffic of increasing
// intensity run above it. Reported per (payload size, RT load):
//   * achieved bulk throughput (payload kbit/s),
//   * transfer completion time,
//   * HRT deadline misses (must stay 0 at any NRT/SRT load — the priority
//     relation P_HRT < P_SRT < P_NRT guarantees it).

#include <cstdio>
#include <functional>
#include <memory>

#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "core/hrtec.hpp"
#include "core/nrtec.hpp"
#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "util/task_pool.hpp"

using namespace rtec;
using namespace rtec::literals;

namespace {

Node::ClockParams perfect() {
  Node::ClockParams p;
  p.granularity = 1_ns;
  return p;
}

struct Row {
  double throughput_kbps = 0;
  double completion_ms = 0;
  std::uint64_t hrt_missing = 0;
  std::uint64_t srt_misses = 0;
};

Row run(std::size_t payload_bytes, double srt_load, std::uint64_t /*seed*/) {
  TaskPool tasks;
  Scenario::Config cfg;
  cfg.calendar.round_length = 10_ms;
  Scenario scn{cfg};
  Node& hrt_node = scn.add_node(1, perfect());
  Node& sink = scn.add_node(2, perfect());
  Node& srt_node = scn.add_node(3, perfect());
  Node& bulk_node = scn.add_node(4, perfect());

  // HRT stream: one slot per round.
  const Subject hrt_subject = subject_of("e7/hrt");
  SlotSpec slot;
  slot.lst_offset = 1_ms;
  slot.dlc = 8;
  slot.fault.omission_degree = 1;
  slot.etag = *scn.binding().bind(hrt_subject);
  slot.publisher = hrt_node.id();
  (void)*scn.calendar().reserve(slot);

  Row row;
  Hrtec hrt_pub{hrt_node.middleware()};
  Hrtec hrt_sub{sink.middleware()};
  (void)hrt_pub.announce(hrt_subject, {}, nullptr);
  (void)hrt_sub.subscribe(hrt_subject, AttributeList{attr::QueueCapacity{8}},
                          [&] { (void)hrt_sub.getEvent(); },
                          [&](const ExceptionInfo&) { ++row.hrt_missing; });
  auto* hrt_loop = tasks.make();
  *hrt_loop = [&, hrt_loop] {
    Event e;
    e.content = {1, 2, 3, 4, 5, 6, 7, 8};
    (void)hrt_pub.publish(std::move(e));
    scn.sim().schedule_after(10_ms, [hrt_loop] { (*hrt_loop)(); });
  };
  scn.sim().schedule_after(Duration::zero(), [hrt_loop] { (*hrt_loop)(); });

  // SRT background at the requested load (frames ~160 us each).
  Srtec srt_pub{srt_node.middleware()};
  (void)srt_pub.announce(subject_of("e7/srt"),
                         AttributeList{attr::Deadline{5_ms}},
                         [&](const ExceptionInfo& e) {
                           if (e.error == ChannelError::kDeadlineMissed)
                             ++row.srt_misses;
                         });
  if (srt_load > 0) {
    const auto gap = Duration::nanoseconds(
        static_cast<std::int64_t>(160e3 / srt_load));
    auto* srt_loop = tasks.make();
    *srt_loop = [&, gap, srt_loop] {
      Event e;
      e.content.assign(8, 0x55);
      (void)srt_pub.publish(std::move(e));
      scn.sim().schedule_after(gap, [srt_loop] { (*srt_loop)(); });
    };
    scn.sim().schedule_after(Duration::zero(), [srt_loop] { (*srt_loop)(); });
  }

  // The bulk transfer.
  const AttributeList frag{attr::Fragmentation{true}};
  Nrtec bulk_pub{bulk_node.middleware()};
  Nrtec bulk_sub{sink.middleware()};
  (void)bulk_pub.announce(subject_of("e7/bulk"), frag, nullptr);
  TimePoint done;
  (void)bulk_sub.subscribe(subject_of("e7/bulk"), frag,
                           [&] {
                             (void)bulk_sub.getEvent();
                             done = scn.sim().now();
                           },
                           nullptr);
  const TimePoint start = scn.sim().now();
  {
    Event blob;
    blob.content.assign(payload_bytes, 0xB0);
    (void)bulk_pub.publish(std::move(blob));
  }

  scn.run_for(Duration::seconds(30));
  if (done == TimePoint::origin()) {
    row.completion_ms = -1;  // did not finish (SRT load ~ saturation)
    row.throughput_kbps = 0;
  } else {
    const Duration took = done - start;
    row.completion_ms = took.ms();
    row.throughput_kbps =
        static_cast<double>(payload_bytes) * 8 / 1000.0 / took.sec() * 1000.0 /
        1000.0;
  }
  return row;
}

}  // namespace

int main() {
  // RTEC_BENCH_QUICK=1: the two smaller payloads at the extreme loads.
  const bool quick = bench::quick_mode();
  bench::title("E7", "NRT bulk transfer: throughput and non-interference");
  bench::note("fragmented channel: FIRST carries 4 payload bytes, MID/LAST 7;");
  bench::note("HRT stream (10 ms period) + SRT background above the transfer");

  std::printf("\n  %-10s %-10s %-18s %-16s %-12s %s\n", "payload", "SRT load",
              "goodput (kbit/s)", "completion (ms)", "HRT missing",
              "SRT misses");
  bench::rule();
  for (std::size_t payload : {1024u, 8192u, 65536u}) {
    if (quick && payload > 8192u) break;
    for (double load : {0.0, 0.3, 0.6, 0.9}) {
      if (quick && load != 0.0 && load != 0.9) continue;
      const Row r = run(payload, load, 1);
      std::printf("  %-10zu %-10.1f %-18.1f %-16.1f %-12llu %llu\n", payload,
                  load, r.throughput_kbps, r.completion_ms,
                  static_cast<unsigned long long>(r.hrt_missing),
                  static_cast<unsigned long long>(r.srt_misses));
    }
    bench::rule();
  }
  bench::note("bulk goodput is exactly the bandwidth HRT and SRT leave over —");
  bench::note("and the HRT-missing column stays 0 at every operating point:");
  bench::note("NRT traffic can never displace a pending real-time message.");
  return 0;
}
