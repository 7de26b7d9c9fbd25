// Quickstart: the smallest complete rtec system.
//
// Three nodes on one simulated CAN bus:
//   node 1 — a temperature sensor publishing on a hard real-time channel
//   node 2 — a controller subscribing to it
//   node 3 — the clock-sync master
//
// Shows the paper's API (Fig. 1): announce / publish / subscribe /
// notification handler / getEvent, plus the offline slot reservation the
// HRT class requires.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/hrtec.hpp"
#include "core/scenario.hpp"
#include "lint_check.hpp"
#include "time/periodic.hpp"

using namespace rtec;
using namespace rtec::literals;

int main() {
  // --- configuration phase (offline) ---------------------------------
  Scenario::Config cfg;
  cfg.calendar.round_length = 10_ms;  // one TDMA round = 10 ms
  cfg.calendar.gap = 40_us;           // ΔG_min from the paper
  Scenario scn{cfg};

  Node& sensor = scn.add_node(1, {Duration::microseconds(12), 50'000, 1_us});
  Node& controller = scn.add_node(2, {Duration::microseconds(-8), -30'000, 1_us});
  Node& master = scn.add_node(3);

  // Global time: master-based sync in its own reserved slot.
  if (!scn.enable_clock_sync(master.id(), 500_us)) {
    std::puts("failed to reserve the sync slot");
    return 1;
  }

  // Reserve one slot per round for the temperature channel: publisher is
  // node 1, message size 2 bytes, tolerate 1 omission fault.
  const Subject subject = subject_of("room/temperature");
  SlotSpec slot;
  slot.lst_offset = 2_ms;
  slot.dlc = 2;
  slot.fault.omission_degree = 1;
  slot.etag = *scn.binding().bind(subject);
  slot.publisher = sensor.id();
  if (!scn.calendar().reserve(slot)) {
    std::puts("admission test rejected the reservation");
    return 1;
  }
  std::printf("calendar: %zu slots, %.1f%% of the round reserved\n",
              scn.calendar().size(), scn.calendar().reserved_fraction() * 100);
  if (!examples::lint_calendar_or_report(scn.calendar(), "quickstart"))
    return 1;

  // Let the clocks synchronize for two rounds before real-time operation.
  scn.run_for(20_ms);

  // --- publisher ------------------------------------------------------
  Hrtec temperature{sensor.middleware()};
  if (!temperature.announce(subject, AttributeList{attr::Periodic{10_ms}},
                            [](const ExceptionInfo& e) {
                              std::printf("  [sensor] exception: %s\n",
                                          to_string(e.error).data());
                            })) {
    std::puts("announce failed");
    return 1;
  }

  // --- subscriber -----------------------------------------------------
  Hrtec display{controller.middleware()};
  (void)display.subscribe(
      subject, {},
      [&] {
        // Notification handler: retrieve the event from the middleware's
        // queue, exactly as in the paper's programming model.
        if (const auto event = display.getEvent()) {
          const int centi = event->content[0] | (event->content[1] << 8);
          std::printf("  [controller] %7.3f ms: temperature %d.%02d C\n",
                      controller.clock().now().ms(), centi / 100, centi % 100);
        }
      },
      [](const ExceptionInfo& e) {
        std::printf("  [controller] exception: %s\n", to_string(e.error).data());
      });

  // --- run: publish one reading per round -----------------------------
  int reading = 2150;  // 21.50 C
  PeriodicLocalTask sampler{sensor.clock(), 10_ms, [&] {
                              Event e;
                              e.content = {static_cast<std::uint8_t>(reading & 0xff),
                                           static_cast<std::uint8_t>(reading >> 8)};
                              (void)temperature.publish(std::move(e));
                              reading += 7;  // the room warms up slowly
                            }};
  sampler.start();

  scn.run_for(80_ms);

  std::printf("done: %llu events published, %llu delivered, precision %.1f us\n",
              static_cast<unsigned long long>(
                  sensor.middleware().hrt().counters().published),
              static_cast<unsigned long long>(
                  controller.middleware().hrt().counters().delivered),
              scn.clock_precision().us());
  return 0;
}
