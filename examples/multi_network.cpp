// Multi-network deployment — the paper's §2.2.1 scenario: "publishers and
// subscribers are connected by a channel which spans multiple networks",
// with subscriber-side LocalOnly filtering of remote events.
//
//   network 0 (machine cell bus): press sensor, cell display
//   network 1 (plant backbone):   plant logger, SCADA panel
//   gateway node: one stack per bus, bridging the "press/status" SRT
//   channel and the "press/logfile" NRT bulk channel in both directions.
//
// Run: ./build/examples/multi_network

#include <cstdio>
#include <memory>

#include "core/gateway.hpp"
#include "core/scenario.hpp"
#include "lint_check.hpp"
#include "time/periodic.hpp"

using namespace rtec;
using namespace rtec::literals;

int main() {
  Scenario::Config cfg;
  cfg.networks = 2;
  Scenario scn{cfg};

  Node& press = scn.add_node(1, {Duration::microseconds(5), 20'000, 1_us}, 0);
  Node& display = scn.add_node(2, {Duration::microseconds(-4), -15'000, 1_us}, 0);
  Node& logger = scn.add_node(11, {Duration::microseconds(7), 30'000, 1_us}, 1);
  Node& scada = scn.add_node(12, {Duration::microseconds(-2), -8'000, 1_us}, 1);
  Node& gw_cell = scn.add_node(20, {}, 0);
  Node& gw_plant = scn.add_node(21, {}, 1);

  // Store-and-forward delay of the bridging stack; with a sharded
  // scenario this would double as the parallel engine's lookahead.
  Gateway gateway{gw_cell, gw_plant, scn.link_gateway(gw_cell, gw_plant, 50_us)};
  const Subject status = subject_of("press/status");
  const Subject logfile = subject_of("press/logfile");
  if (!gateway.bridge_srt(status, /*fwd deadline*/ 10_ms, /*expiry*/ 30_ms) ||
      !gateway.bridge_nrt(logfile, /*fragmented*/ true, 253)) {
    std::puts("bridge setup failed");
    return 1;
  }

  // Each network has its own reservation calendar; verify both.
  for (int net = 0; net < scn.network_count(); ++net) {
    char what[24];
    std::snprintf(what, sizeof what, "network %d", net);
    if (!examples::lint_calendar_or_report(scn.calendar(net), what)) return 1;
  }

  // Press publishes its status on the cell bus.
  Srtec status_pub{press.middleware()};
  (void)status_pub.announce(status, AttributeList{attr::Deadline{5_ms}},
                            nullptr);
  int cycle = 0;
  PeriodicLocalTask status_loop{press.clock(), 25_ms, [&] {
                                  Event e;
                                  e.content = {static_cast<std::uint8_t>(cycle++ & 0xff),
                                               0x01 /*running*/};
                                  (void)status_pub.publish(std::move(e));
                                }};
  status_loop.start();

  // Cell display wants only LOCAL events (it sits next to the machine and
  // must not act on stale forwarded copies if topologies ever loop).
  Srtec display_sub{display.middleware()};
  int local_updates = 0;
  (void)display_sub.subscribe(status, AttributeList{attr::LocalOnly{}},
                              [&] {
                                ++local_updates;
                                (void)display_sub.getEvent();
                              },
                              nullptr);

  // SCADA on the backbone receives the forwarded copies.
  Srtec scada_sub{scada.middleware()};
  int remote_updates = 0;
  (void)scada_sub.subscribe(status, {},
                            [&] {
                              if (const auto e = scada_sub.getEvent()) {
                                ++remote_updates;
                                if (remote_updates == 1)
                                  std::printf(
                                      "  [scada] first press status via gateway "
                                      "(remote: %s) at %.3f ms\n",
                                      e->attributes.remote ? "yes" : "no",
                                      scada.clock().now().ms());
                              }
                            },
                            nullptr);

  // Plant logger requests the press log (bulk) — it travels backbone->cell?
  // No: the press publishes its logfile on the cell bus; the gateway
  // forwards it up to the backbone where the logger subscribes.
  const AttributeList frag{attr::Fragmentation{true}};
  Nrtec log_pub{press.middleware()};
  (void)log_pub.announce(logfile, frag, nullptr);
  Nrtec log_sub{logger.middleware()};
  (void)log_sub.subscribe(logfile, frag,
                          [&] {
                            if (const auto e = log_sub.getEvent())
                              std::printf(
                                  "  [logger] press log received over the "
                                  "gateway: %zu bytes at %.3f ms\n",
                                  e->content.size(), logger.clock().now().ms());
                          },
                          nullptr);
  scn.sim().schedule_at(TimePoint::origin() + 60_ms, [&] {
    Event log;
    log.content.assign(4096, 0x10);
    (void)log_pub.publish(std::move(log));
  });

  scn.run_for(500_ms);

  std::puts("\n--- summary -------------------------------------------------");
  std::printf("press status: %d local deliveries (cell), %d forwarded (plant)\n",
              local_updates, remote_updates);
  std::printf("gateway: %llu events A->B, %llu B->A, %llu failures\n",
              static_cast<unsigned long long>(gateway.counters().forwarded_a_to_b),
              static_cast<unsigned long long>(gateway.counters().forwarded_b_to_a),
              static_cast<unsigned long long>(gateway.counters().forward_failures));
  std::puts("the cell display (LocalOnly) never saw a forwarded copy; the");
  std::puts("backbone received every status event plus the bulk log file.");
  return 0;
}
