// Commissioning study — cost of the runtime binding protocol (§2.1, [13]).
//
// At boot, every node resolves its subjects through the binding agent over
// the bus (request/reply on the reserved NRT channels). Sweep system size:
// how long until the whole network is bound, how many frames the
// configuration phase costs, and how it degrades when application traffic
// is already running ("hot-plug" commissioning).
//
// The paper argues subject-based addressing can be "optimized to meet the
// requirements of restricted computational resources" — the numbers here
// show the network side of that cost is a few milliseconds per node.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "bench/sweep.hpp"
#include "core/binding_protocol.hpp"
#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "time/periodic.hpp"

using namespace rtec;
using namespace rtec::literals;

namespace {

struct Row {
  double total_ms = 0;       ///< boot start -> last binding resolved
  double per_subject_us = 0;
  std::uint64_t frames = 0;  ///< binding-channel frames on the bus
  std::uint64_t timeouts = 0;
};

Row run(int nodes, int subjects_per_node, bool with_background) {
  Scenario scn;
  Node::ClockParams perfect;
  perfect.granularity = 1_ns;
  Node& agent_node = scn.add_node(1, perfect);
  BindingAgent agent{agent_node.middleware().context(), scn.binding()};

  std::vector<Node*> members;
  std::vector<std::unique_ptr<BindingClient>> clients;
  for (int n = 0; n < nodes; ++n) {
    Node& node = scn.add_node(static_cast<NodeId>(n + 2), perfect);
    members.push_back(&node);
    clients.push_back(
        std::make_unique<BindingClient>(node.middleware().context()));
  }

  // Optional background: an already-running SRT stream at ~40% load.
  std::unique_ptr<Srtec> bg;
  std::unique_ptr<PeriodicLocalTask> bg_task;
  if (with_background) {
    Node& talker = scn.add_node(120, perfect);
    bg = std::make_unique<Srtec>(talker.middleware());
    (void)bg->announce(subject_of("bg/chatter"),
                       AttributeList{attr::Deadline{5_ms}}, nullptr);
    Srtec* chan = bg.get();
    bg_task = std::make_unique<PeriodicLocalTask>(talker.clock(), 400_us,
                                                  [chan] {
                                                    Event e;
                                                    e.content.assign(8, 0xAA);
                                                    (void)chan->publish(
                                                        std::move(e));
                                                  });
    bg_task->start();
    scn.run_for(5_ms);  // background established before boot storm
  }

  std::uint64_t binding_frames = 0;
  scn.bus().add_observer([&](const CanBus::FrameEvent& ev) {
    if (!ev.success) return;
    const Etag etag = decode_can_id(ev.frame.id).etag;
    if (etag == kBindingRequestEtag || etag == kBindingReplyEtag)
      ++binding_frames;
  });

  // Boot storm: every node resolves its subjects simultaneously.
  const TimePoint start = scn.sim().now();
  int outstanding = nodes * subjects_per_node;
  TimePoint last_done = start;
  for (int n = 0; n < nodes; ++n) {
    for (int s = 0; s < subjects_per_node; ++s) {
      const std::string name =
          "app/" + std::to_string(n) + "/" + std::to_string(s);
      clients[static_cast<std::size_t>(n)]->resolve(
          subject_of(name), [&outstanding, &last_done, &scn](auto r) {
            if (r.has_value()) {
              --outstanding;
              last_done = scn.sim().now();
            }
          });
    }
  }
  scn.run_for(Duration::seconds(5));

  Row row;
  row.total_ms = outstanding == 0 ? (last_done - start).ms() : -1;
  row.per_subject_us =
      outstanding == 0
          ? (last_done - start).us() / (nodes * subjects_per_node)
          : -1;
  row.frames = binding_frames;
  for (const auto& c : clients) row.timeouts += c->timeouts();
  return row;
}

}  // namespace

int main() {
  // RTEC_BENCH_QUICK=1: the two smaller node counts, four subjects each.
  const bool quick = bench::quick_mode();
  bench::title("commissioning", "runtime binding protocol: boot-storm cost");
  bench::note("every node resolves its subjects through the binding agent at");
  bench::note("boot; background = 40%% SRT load already on the bus");

  std::printf("\n  %-7s %-10s %-12s %-11s %-16s %-9s %s\n", "nodes",
              "subj/node", "background", "total (ms)", "per subject (us)",
              "frames", "timeouts");
  bench::rule();
  for (int nodes : {4, 16, 63}) {
    if (quick && nodes == 63) break;
    for (int subjects : {1, 4}) {
      if (quick && subjects == 1) continue;
      for (bool bg : {false, true}) {
        const Row r = run(nodes, subjects, bg);
        std::printf("  %-7d %-10d %-12s %-11.2f %-16.1f %-9llu %llu\n", nodes,
                    subjects, bg ? "40% SRT" : "idle", r.total_ms,
                    r.per_subject_us,
                    static_cast<unsigned long long>(r.frames),
                    static_cast<unsigned long long>(r.timeouts));
      }
    }
    bench::rule();
  }
  bench::note("cost is two frames (~200 us of bus) per subject, serialized at");
  bench::note("the agent; even a 63-node, 4-subject boot storm binds in well");
  bench::note("under a second, and background traffic only stretches it by its");
  bench::note("bandwidth share (binding runs in the NRT band: configuration");
  bench::note("never disturbs running real-time channels). Timeouts at the");
  bench::note("largest storms are clients whose 50 ms patience expired while");
  bench::note("the agent's reply backlog drained — their retries resolve, and");
  bench::note("overheard replies warm caches so duplicates never hit the bus.");
  return 0;
}
