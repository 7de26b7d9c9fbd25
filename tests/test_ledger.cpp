#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/gateway.hpp"
#include "core/hrtec.hpp"
#include "core/nrtec.hpp"
#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "time/periodic.hpp"
#include "util/random.hpp"

// Behaviour ledger: one fixed two-segment scenario with every channel
// class, clock sync, omission faults and a gateway, run for a fixed
// simulated time. Every kernel, bus, channel-engine and gateway counter is
// pinned by exact equality, so any change in what the simulator does shows
// up here. A change that moves them by design updates kGolden and says why
// in CHANGES.md.

namespace rtec {
namespace {

using namespace rtec::literals;

using Ledger = std::map<std::string, std::uint64_t>;

const Ledger kGolden = {
    {"exception.deadline_missed", 931},
    {"exception.event_overwritten", 45},
    {"exception.expired", 27},
    {"exception.missing_message", 9},
    {"exception.publish_missed", 9},
    {"exception.queue_overflow", 1565},
    {"gateway.forward_failures", 1},
    {"gateway.forwarded_a_to_b", 2702},
    {"gateway.forwarded_b_to_a", 184},
    {"hrt.delivered", 152},
    {"hrt.missing", 9},
    {"hrt.overwritten", 45},
    {"hrt.publish_missed", 9},
    {"hrt.published", 198},
    {"hrt.retries", 2},
    {"hrt.send_failed", 0},
    {"hrt.sent_ok", 152},
    {"hrt.stray_frames", 0},
    {"kernel000.events_cancelled", 24862},
    {"kernel000.events_fired", 62337},
    {"kernel000.events_injected", 2886},
    {"kernel000.events_scheduled", 84328},
    {"kernel000.heap_compactions", 167},
    {"net000.bus.busy_ns", 954055000},
    {"net000.bus.error_ns", 6972000},
    {"net000.bus.frames_error", 91},
    {"net000.bus.frames_ok", 8607},
    {"net001.bus.busy_ns", 492569000},
    {"net001.bus.error_ns", 3291000},
    {"net001.bus.frames_error", 39},
    {"net001.bus.frames_ok", 4398},
    {"nrt.delivered", 1003},
    {"nrt.frames_sent", 3469},
    {"nrt.messages_sent", 839},
    {"nrt.published", 879},
    {"nrt.reassembly_failed", 0},
    {"nrt.send_failed", 0},
    {"srt.deadline_missed", 932},
    {"srt.delivered", 15811},
    {"srt.expired", 27},
    {"srt.preemptions", 377},
    {"srt.promotion_blocked", 5711},
    {"srt.promotions", 3473},
    {"srt.published", 9011},
    {"srt.sent", 8984},
    {"srt.sent_by_deadline", 8085},
};

Node::ClockParams drifting(Rng& rng) {
  Node::ClockParams p;
  p.initial_offset = Duration::microseconds(rng.uniform_int(-20, 20));
  p.drift_ppb = rng.uniform_int(-80'000, 80'000);
  p.granularity = 1_us;
  return p;
}

/// Calls `body` at exponential gaps of mean `mean_ns` on `sim`.
struct PoissonSource {
  Simulator& sim;
  Rng rng;
  double mean_ns;
  std::function<void()> body;

  void arm() {
    sim.schedule_after(Duration::nanoseconds(static_cast<std::int64_t>(
                           rng.exponential(mean_ns))),
                       [this] {
                         body();
                         arm();
                       });
  }
};

/// Opens a channel of type `Channel` on `n`, owned by `list`.
template <typename Channel>
Channel* open(std::vector<std::unique_ptr<Channel>>& list, Node* n) {
  list.push_back(std::make_unique<Channel>(n->middleware()));
  return list.back().get();
}

/// Per-class sums of the engine counters of one node, added into `out`.
void add_engine_counters(const Node& n, Ledger& out) {
  const HrtEngine::Counters& h = n.middleware().hrt().counters();
  out["hrt.published"] += h.published;
  out["hrt.sent_ok"] += h.sent_ok;
  out["hrt.retries"] += h.retries;
  out["hrt.send_failed"] += h.send_failed;
  out["hrt.publish_missed"] += h.publish_missed;
  out["hrt.overwritten"] += h.overwritten;
  out["hrt.delivered"] += h.delivered;
  out["hrt.missing"] += h.missing;
  out["hrt.stray_frames"] += h.stray_frames;
  const SrtEngine::Counters& s = n.middleware().srt().counters();
  out["srt.published"] += s.published;
  out["srt.sent"] += s.sent;
  out["srt.sent_by_deadline"] += s.sent_by_deadline;
  out["srt.deadline_missed"] += s.deadline_missed;
  out["srt.expired"] += s.expired;
  out["srt.promotions"] += s.promotions;
  out["srt.promotion_blocked"] += s.promotion_blocked;
  out["srt.preemptions"] += s.preemptions;
  out["srt.delivered"] += s.delivered;
  const NrtEngine::Counters& r = n.middleware().nrt().counters();
  out["nrt.published"] += r.published;
  out["nrt.frames_sent"] += r.frames_sent;
  out["nrt.messages_sent"] += r.messages_sent;
  out["nrt.send_failed"] += r.send_failed;
  out["nrt.delivered"] += r.delivered;
  out["nrt.reassembly_failed"] += r.reassembly_failed;
}

Ledger run_ledger_scenario() {
  Scenario::Config cfg;
  cfg.networks = 2;
  cfg.calendar.round_length = 10_ms;
  Scenario scn{cfg};
  Simulator& sim = scn.sim();
  Rng rng{1};

  // Segment 0 holds the HRT, SRT and NRT traffic, sync master 7 and
  // gateway 20; segment 1 holds far publishers and subscribers, sync
  // master 13 and gateway 21.
  std::map<NodeId, Node*> node;
  const std::vector<std::vector<NodeId>> segments = {
      {1, 2, 3, 4, 5, 6, 7, 20}, {11, 12, 13, 21}};
  for (int net = 0; net < 2; ++net)
    for (const NodeId id : segments[static_cast<std::size_t>(net)])
      node[id] = &scn.add_node(id, drifting(rng), net);
  scn.set_fault_model(std::make_unique<RandomOmissionFaults>(0.01, 7), 0);
  scn.set_fault_model(std::make_unique<RandomOmissionFaults>(0.01, 8), 1);
  EXPECT_TRUE(scn.enable_clock_sync(7, 500_us).has_value());
  EXPECT_TRUE(scn.enable_clock_sync(13, 500_us).has_value());

  const Subject hrt = subject_of("ledger/hrt");
  const Subject alarm = subject_of("ledger/alarm");
  const Subject srt0 = subject_of("ledger/srt0");
  const Subject srt1 = subject_of("ledger/srt1");
  const Subject srt2 = subject_of("ledger/srt2");
  const Subject bulk = subject_of("ledger/bulk");
  const Subject plain = subject_of("ledger/plain");
  SlotSpec periodic;
  periodic.lst_offset = 1500_us;
  periodic.dlc = 8;
  periodic.fault.omission_degree = 1;
  periodic.etag = *scn.binding().bind(hrt);
  periodic.publisher = 1;
  EXPECT_TRUE(scn.calendar(0).reserve(periodic).has_value());
  SlotSpec sporadic;
  sporadic.lst_offset = 2300_us;
  sporadic.dlc = 1;
  sporadic.fault.omission_degree = 2;
  sporadic.etag = *scn.binding().bind(alarm);
  sporadic.publisher = 3;
  sporadic.periodic = false;
  EXPECT_TRUE(scn.calendar(0).reserve(sporadic).has_value());

  Gateway gw{*node[20], *node[21],
             scn.link_gateway(*node[20], *node[21], 50_us)};
  EXPECT_TRUE(gw.bridge_srt(srt0, 2_ms, 4_ms).has_value());
  EXPECT_TRUE(gw.bridge_nrt(bulk, /*fragmented=*/true, kNrtPriorityMax)
                  .has_value());

  scn.run_for(20_ms);  // clock sync settles before the channels open

  // Every exception the applications see, tallied by kind.
  Ledger raised;
  const ExceptionHandler tally = [&raised](const ExceptionInfo& x) {
    ++raised["exception." + std::string{to_string(x.error)}];
  };
  std::vector<std::unique_ptr<Hrtec>> hrtecs;
  std::vector<std::unique_ptr<Srtec>> srtecs;
  std::vector<std::unique_ptr<Nrtec>> nrtecs;
  const auto announce = [&](auto& list, NodeId id, Subject s,
                            const AttributeList& attrs) {
    auto* ch = open(list, node[id]);
    EXPECT_TRUE(ch->announce(s, attrs, tally).has_value());
    return ch;
  };
  // A subscriber with `drained` false never takes its events, so its
  // queue overflows.
  const auto subscribe = [&](auto& list, NodeId id, Subject s,
                             const AttributeList& attrs, bool drained = true) {
    auto* ch = open(list, node[id]);
    NotificationHandler drain;
    if (drained) drain = [ch] { (void)ch->getEvent(); };
    EXPECT_TRUE(ch->subscribe(s, attrs, drain, tally).has_value());
  };
  const AttributeList frag{attr::Fragmentation{true}};

  Hrtec* hrt_pub = announce(hrtecs, 1, hrt, {attr::Periodic{10_ms}});
  subscribe(hrtecs, 2, hrt, {});
  Hrtec* alarm_pub = announce(hrtecs, 3, alarm, {attr::Sporadic{10_ms}});
  subscribe(hrtecs, 4, alarm, {});

  Srtec* srt0_pub = announce(srtecs, 4, srt0,
                             {attr::Deadline{2_ms}, attr::Expiration{4_ms}});
  Srtec* srt1_pub = announce(
      srtecs, 4, srt1, {attr::Deadline{150_us}, attr::Expiration{250_us}});
  Srtec* srt2_pub = announce(
      srtecs, 5, srt2, {attr::Deadline{1_ms}, attr::Expiration{1200_us}});
  Srtec* srt0_far_pub = announce(srtecs, 12, srt0, {});
  for (const Subject s : {srt0, srt1, srt2})
    subscribe(srtecs, 6, s, {attr::QueueCapacity{8}});
  subscribe(srtecs, 7, srt0, {attr::LocalOnly{}});
  subscribe(srtecs, 3, srt1, {attr::QueueCapacity{2}}, /*drained=*/false);
  subscribe(srtecs, 11, srt0, {});

  Nrtec* bulk_pub = announce(nrtecs, 6, bulk, frag);
  subscribe(nrtecs, 2, bulk, frag);
  subscribe(nrtecs, 12, bulk, frag);
  Nrtec* plain_pub = announce(nrtecs, 5, plain, {attr::FixedPriority{252}});
  subscribe(nrtecs, 1, plain, {});

  // The periodic publisher skips every tenth round.
  int round = 0;
  PeriodicLocalTask hrt_task{node[1]->clock(), 10_ms, [hrt_pub, &round] {
                               if (++round % 10 == 0) return;
                               (void)hrt_pub->publish(
                                   Event{{}, {8, 7, 6, 5, 4, 3, 2, 1}});
                             }};
  hrt_task.start();
  const auto source = [&sim](std::uint64_t seed, double mean_ns, auto* ch,
                             std::size_t size) {
    return std::make_unique<PoissonSource>(PoissonSource{
        sim, Rng{seed}, mean_ns, [ch, size] {
          (void)ch->publish(Event{{}, std::vector<std::uint8_t>(size, 0x5A)});
        }});
  };
  std::unique_ptr<PoissonSource> sources[] = {
      source(2, 10e6, alarm_pub, 1),     source(3, 400e3, srt0_pub, 4),
      source(4, 600e3, srt1_pub, 2),     source(5, 500e3, srt2_pub, 8),
      source(6, 5e6, srt0_far_pub, 3),   source(7, 5e6, bulk_pub, 60),
      source(8, 2e6, plain_pub, 3)};
  for (const auto& src : sources) src->arm();

  scn.run_for(980_ms);

  Ledger out = raised;
  trace::MetricsRegistry reg;
  scn.export_metrics(reg);
  for (const auto& [name, value] : reg.values()) {
    const bool kernel = name.rfind("kernel", 0) == 0;
    const bool bus = name.find(".bus.") != std::string::npos &&
                     name.find("utilization") == std::string::npos;
    if (!kernel && !bus) continue;
    out[name] = std::visit(
        [](auto v) { return static_cast<std::uint64_t>(v); }, value);
  }
  for (const auto& [id, n] : node) add_engine_counters(*n, out);
  const Gateway::Counters g = gw.counters();
  out["gateway.forwarded_a_to_b"] = g.forwarded_a_to_b;
  out["gateway.forwarded_b_to_a"] = g.forwarded_b_to_a;
  out["gateway.forward_failures"] = g.forward_failures;
  return out;
}

TEST(BehaviourLedger, FixedScenarioCountersPinned) {
  const Ledger got = run_ledger_scenario();
  std::string moved;
  for (const auto& [name, value] : got) {
    const auto it = kGolden.find(name);
    if (it == kGolden.end() || it->second != value)
      moved += "  " + name + ": " +
               (it == kGolden.end() ? "new" : std::to_string(it->second)) +
               " -> " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : kGolden)
    if (!got.contains(name)) moved += "  " + name + ": gone\n";
  if (moved.empty()) return;
  std::string full;
  for (const auto& [name, value] : got)
    full += "    {\"" + name + "\", " + std::to_string(value) + "},\n";
  ADD_FAILURE() << "ledger moved:\n" << moved << "full observed set:\n" << full;
}

}  // namespace
}  // namespace rtec
