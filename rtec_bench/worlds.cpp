#include "rtec_bench/worlds.hpp"

#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "canbus/attack.hpp"
#include "rtec_bench/spans.hpp"
#include "sched/id_codec.hpp"
#include "sim/topology_gen.hpp"
#include "trace/detectors.hpp"
#include "trace/registry.hpp"

namespace rtec::bench {

using namespace rtec::literals;

namespace {

/// Clock sync needs a few rounds before HRT windows are meaningful; every
/// world runs this long before its channels open.
constexpr Duration kWarmup = 20_ms;
/// Topology seed of the city workload. The grid's link latencies set the
/// sharded engine's lookahead, so they stay fixed across workload seeds;
/// the seed varies clocks and traffic.
constexpr std::uint64_t kCityTopologySeed = 11;

void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

void warm_up(World& w) {
  const auto t0 = SteadyClock::now();
  w.scn->run_for(kWarmup);
  w.warmup_s = seconds_since(t0);
}

Rng* add_rng(World& w, std::uint64_t seed) {
  w.rngs.push_back(std::make_unique<Rng>(seed));
  return w.rngs.back().get();
}

Node::ClockParams drifting_clock(Rng& rng) {
  Node::ClockParams p;
  p.initial_offset = Duration::microseconds(rng.uniform_int(-20, 20));
  p.drift_ppb = rng.uniform_int(-80'000, 80'000);
  p.granularity = 1_us;
  return p;
}

template <typename Channel>
void publish(Channel* ch, Event e, Probes* probes) {
  if (probes == nullptr) {
    (void)ch->publish(std::move(e));
    return;
  }
  const auto t0 = SteadyClock::now();
  (void)ch->publish(std::move(e));
  probes->publish_ns.add(elapsed_ns(t0, SteadyClock::now()));
}

template <typename Channel>
NotificationHandler drain(Channel* ch, Probes* probes) {
  if (probes == nullptr) return [ch] { (void)ch->getEvent(); };
  return [ch, probes] {
    const auto t0 = SteadyClock::now();
    (void)ch->getEvent();
    probes->get_event_ns.add(elapsed_ns(t0, SteadyClock::now()));
  };
}

CanFrame raw_frame(Priority prio, NodeId node, Etag etag, std::uint8_t dlc) {
  CanFrame f;
  f.id = encode_can_id({prio, node, etag});
  f.dlc = dlc;
  return f;
}

/// Calls `body` at Poisson instants of mean gap `mean_gap_ns` on `sim`,
/// starting after a random offset in [0, 2 ms).
void poisson_loop(World& w, Simulator& sim, Rng* rng, double mean_gap_ns,
                  std::function<void()> body) {
  auto* loop = w.loops.make();
  *loop = [&sim, rng, mean_gap_ns, loop, body = std::move(body)] {
    body();
    sim.schedule_after(Duration::nanoseconds(static_cast<std::int64_t>(
                           rng->exponential(mean_gap_ns))),
                       [loop] { (*loop)(); });
  };
  sim.schedule_after(Duration::microseconds(rng->uniform_int(0, 2000)),
                     [loop] { (*loop)(); });
}

/// Calls `body` every `period` of simulated time, first after `first`.
void every(World& w, Simulator& sim, Duration first, Duration period,
           std::function<void()> body) {
  auto* loop = w.loops.make();
  *loop = [&sim, period, loop, body = std::move(body)] {
    body();
    sim.schedule_after(period, [loop] { (*loop)(); });
  };
  sim.schedule_after(first, [loop] { (*loop)(); });
}

/// Detector bank and recorder on every segment, per the world's layers.
/// Detectors train over the first half of the timed span.
void add_observers(Scenario& scn, Layers layers, TimePoint train_until) {
  for (int net = 0; net < scn.network_count(); ++net) {
    if (layers == Layers::kDetected) {
      trace::DetectorBank& bank = scn.detectors(net);
      trace::MeanIatGate::Config gate;
      gate.train_until = train_until;
      trace::CusumDetector::Config cusum;
      cusum.train_until = train_until;
      trace::WindowFrequencyDetector::Config win;
      win.train_until = train_until;
      bank.add(std::make_unique<trace::MeanIatGate>(gate));
      bank.add(std::make_unique<trace::CusumDetector>(cusum));
      bank.add(std::make_unique<trace::WindowFrequencyDetector>(win));
    }
    if (layers == Layers::kRecorded || layers == Layers::kDetected)
      (void)scn.record_rteb(net);
  }
}

}  // namespace

std::uint64_t World::frames() const {
  std::uint64_t n = 0;
  for (int net = 0; net < scn->network_count(); ++net)
    n += scn->bus(net).frames_ok() + scn->bus(net).frames_error();
  return n;
}

std::unique_ptr<World> build_mixed(const MixedSpec& spec, std::uint64_t seed,
                                   bool traced) {
  const auto t0 = SteadyClock::now();
  auto w = std::make_unique<World>();
  if (traced) w->probes.resize(1);
  Probes* probes = traced ? &w->probes.front() : nullptr;
  w->length = spec.length;
  Scenario::Config cfg;
  cfg.calendar.round_length = 10_ms;
  w->scn = std::make_unique<Scenario>(cfg);
  Scenario& scn = *w->scn;
  Simulator& sim = scn.sim();
  Rng* rng = add_rng(*w, seed);

  const int n = spec.nodes;
  const int n_hrt = n / 4;
  const int n_srt = n / 2;
  const int n_nrt = std::max(1, n / 16);
  const bool channels = spec.layers != Layers::kRaw;
  for (int i = 1; i <= n; ++i)
    w->nodes.push_back(&scn.add_node(static_cast<NodeId>(i), drifting_clock(*rng)));
  w->topology_s = seconds_since(t0);
  // Roles by node id: HRT publishers, the alarm, SRT publishers, NRT
  // uploaders; node n is the sync master. Each publisher's subscriber sits
  // half the id space away.
  const auto node = [&](int id) { return w->nodes[static_cast<std::size_t>(id - 1)]; };
  const auto peer = [n](int id) { return (id - 1 + n / 2) % n + 1; };
  const int alarm_node = n_hrt + 1;
  const int first_srt = n_hrt + 2;
  const int first_nrt = first_srt + n_srt;

  scn.set_fault_model(std::make_unique<RandomOmissionFaults>(0.01, seed * 7919 + 1));
  const auto bind = [&](const std::string& name) {
    const auto etag = scn.binding().bind(subject_of(name));
    require(etag.has_value(), "binding refused " + name);
    return *etag;
  };
  if (channels) {
    require(scn.enable_clock_sync(static_cast<NodeId>(n), 500_us).has_value(),
            "sync slot refused");
    for (int i = 0; i < n_hrt; ++i) {
      SlotSpec slot;
      slot.lst_offset = 1500_us + 800_us * i;
      slot.dlc = 8;
      slot.fault.omission_degree = 1;
      slot.etag = bind("mixed/hrt" + std::to_string(i));
      slot.publisher = static_cast<NodeId>(i + 1);
      require(scn.calendar().reserve(slot).has_value(), "HRT slot refused");
    }
    SlotSpec alarm;
    alarm.lst_offset = 1500_us + 800_us * n_hrt + 300_us;
    alarm.dlc = 1;
    alarm.fault.omission_degree = 2;
    alarm.etag = bind("mixed/alarm");
    alarm.publisher = static_cast<NodeId>(alarm_node);
    alarm.periodic = false;
    require(scn.calendar().reserve(alarm).has_value(), "alarm slot refused");
  }

  w->start = TimePoint::origin() + kWarmup;
  w->attack_from = TimePoint::max();
  add_observers(scn, spec.layers, w->start + spec.length / 2);
  if (spec.attacks) {
    w->attack_from = w->start + spec.length - spec.length / 10;
    SpoofingAttack::Config spoof;
    spoof.id = encode_can_id({kHrtPriority, 1, bind("mixed/hrt0")});
    spoof.from = w->attack_from;
    spoof.to = w->start + spec.length;
    spoof.period = 10_ms;
    spoof.jitter = 1_ms;
    w->spoofing = &scn.install_attack(std::make_unique<SpoofingAttack>(spoof),
                                      static_cast<NodeId>(n + 1), seed + 1);
    FuzzingAttack::Config fuzz;
    fuzz.from = w->attack_from;
    fuzz.to = spoof.to;
    fuzz.mean_gap = 2_ms;
    w->fuzzing = &scn.install_attack(std::make_unique<FuzzingAttack>(fuzz),
                                     static_cast<NodeId>(n + 2), seed + 2);
  }
  warm_up(*w);

  // HRT periodic streams, one per slot, published on the node's clock.
  for (int i = 0; i < n_hrt; ++i) {
    Node* pub_node = node(i + 1);
    std::function<void()> body;
    if (channels) {
      const Subject subj = subject_of("mixed/hrt" + std::to_string(i));
      w->hrt.push_back(std::make_unique<Hrtec>(pub_node->middleware()));
      Hrtec* pub = w->hrt.back().get();
      require(pub->announce(subj, AttributeList{attr::Periodic{10_ms}}, nullptr)
                  .has_value(), "HRT announce refused");
      w->hrt.push_back(std::make_unique<Hrtec>(node(peer(i + 1))->middleware()));
      Hrtec* sub = w->hrt.back().get();
      require(sub->subscribe(subj, AttributeList{attr::QueueCapacity{16}},
                             drain(sub, probes), nullptr).has_value(),
              "HRT subscribe refused");
      body = [pub, probes] {
        Event e;
        e.content = {8, 7, 6, 5, 4, 3, 2, 1};
        publish(pub, std::move(e), probes);
      };
    } else {
      const CanFrame f = raw_frame(kHrtPriority, pub_node->id(),
                                   static_cast<Etag>(100 + i), 8);
      body = [c = &pub_node->controller(), f] {
        (void)c->submit(f, TxMode::kAutoRetransmit);
      };
    }
    w->tasks.push_back(std::make_unique<PeriodicLocalTask>(pub_node->clock(),
                                                           10_ms, std::move(body)));
    w->tasks.back()->start();
  }

  // Sporadic alarm: a 3 % chance every round.
  {
    Node* pub_node = node(alarm_node);
    std::function<void()> send;
    if (channels) {
      const Subject subj = subject_of("mixed/alarm");
      w->hrt.push_back(std::make_unique<Hrtec>(pub_node->middleware()));
      Hrtec* pub = w->hrt.back().get();
      require(pub->announce(subj, AttributeList{attr::Sporadic{10_ms}}, nullptr)
                  .has_value(), "alarm announce refused");
      w->hrt.push_back(std::make_unique<Hrtec>(node(peer(alarm_node))->middleware()));
      Hrtec* sub = w->hrt.back().get();
      require(sub->subscribe(subj, {}, drain(sub, probes), nullptr).has_value(),
              "alarm subscribe refused");
      send = [pub, probes] {
        Event e;
        e.content = {0xEE};
        publish(pub, std::move(e), probes);
      };
    } else {
      const CanFrame f = raw_frame(kHrtPriority, pub_node->id(), 99, 1);
      send = [c = &pub_node->controller(), f] {
        (void)c->submit(f, TxMode::kAutoRetransmit);
      };
    }
    every(*w, sim, 1_ms, 10_ms, [rng, send = std::move(send)] {
      if (rng->bernoulli(0.03)) send();
    });
  }

  // SRT Poisson publishers: ~30 % of the bus between them.
  const double srt_gap_ns = 110e3 * n_srt / 0.30;
  for (int i = 0; i < n_srt; ++i) {
    Node* pub_node = node(first_srt + i);
    Rng* r = add_rng(*w, seed * 1000 + static_cast<std::uint64_t>(i) + 17);
    const Duration deadline = 5_ms * (1 + i % 4);
    std::function<void()> body;
    if (channels) {
      const Subject subj = subject_of("mixed/srt" + std::to_string(i));
      w->srt.push_back(std::make_unique<Srtec>(pub_node->middleware()));
      Srtec* pub = w->srt.back().get();
      require(pub->announce(subj,
                            AttributeList{attr::Deadline{deadline},
                                          attr::Expiration{deadline * 3}},
                            nullptr).has_value(), "SRT announce refused");
      w->srt.push_back(
          std::make_unique<Srtec>(node(peer(first_srt + i))->middleware()));
      Srtec* sub = w->srt.back().get();
      require(sub->subscribe(subj, AttributeList{attr::QueueCapacity{32}},
                             drain(sub, probes), nullptr).has_value(),
              "SRT subscribe refused");
      body = [pub, probes] {
        Event e;
        e.content = {1, 2, 3, 4};
        publish(pub, std::move(e), probes);
      };
    } else {
      const CanFrame f = raw_frame(static_cast<Priority>(10 + 20 * (i % 4)),
                                   pub_node->id(), static_cast<Etag>(200 + i), 4);
      body = [c = &pub_node->controller(), f] {
        (void)c->submit(f, TxMode::kAutoRetransmit);
      };
    }
    poisson_loop(*w, sim, r, srt_gap_ns, std::move(body));
  }

  // NRT bulk uploaders keep a backlog, so they soak up every idle bit.
  for (int i = 0; i < n_nrt; ++i) {
    Node* pub_node = node(first_nrt + i);
    if (channels) {
      const Subject subj = subject_of("mixed/bulk" + std::to_string(i));
      const AttributeList frag{attr::Fragmentation{true}};
      w->nrt.push_back(std::make_unique<Nrtec>(pub_node->middleware()));
      Nrtec* pub = w->nrt.back().get();
      require(pub->announce(subj, frag, nullptr).has_value(), "NRT announce refused");
      w->nrt.push_back(
          std::make_unique<Nrtec>(node(peer(first_nrt + i))->middleware()));
      Nrtec* sub = w->nrt.back().get();
      require(sub->subscribe(subj, frag, drain(sub, probes), nullptr).has_value(),
              "NRT subscribe refused");
      every(*w, sim, Duration::zero(), 5_ms, [pub, pub_node, probes] {
        if (pub_node->middleware().nrt().backlog_frames() < 8) {
          Event blob;
          blob.content.assign(2048, 0xBB);
          publish(pub, std::move(blob), probes);
        }
      });
    } else {
      const CanFrame f = raw_frame(kNrtPriorityMin, pub_node->id(),
                                   static_cast<Etag>(300 + i), 8);
      every(*w, sim, Duration::zero(), 250_us, [c = &pub_node->controller(), f] {
        while (c->has_free_mailbox()) (void)c->submit(f, TxMode::kAutoRetransmit);
      });
    }
  }
  return w;
}

std::unique_ptr<World> build_city(const CitySpec& spec, std::uint64_t seed,
                                  bool traced) {
  const auto t0 = SteadyClock::now();
  auto w = std::make_unique<World>();
  w->length = spec.length;
  const TopoSpec topo =
      make_topology(TopoShape::kCampusGrid, spec.segments, kCityTopologySeed);
  if (traced) w->probes.resize(static_cast<std::size_t>(topo.segments));
  const auto probes = [&w](int net) {
    return w->probes.empty() ? nullptr : &w->probes[static_cast<std::size_t>(net)];
  };
  Scenario::Config cfg;
  cfg.networks = topo.segments;
  cfg.shards = spec.shards;
  cfg.threads = spec.threads;
  cfg.calendar.round_length = 10_ms;
  w->scn = std::make_unique<Scenario>(cfg);
  Scenario& scn = *w->scn;
  Rng* rng = add_rng(*w, seed + 0xBE7Cu);
  const bool channels = spec.layers != Layers::kRaw;

  for (int net = 0; net < topo.segments; ++net)
    for (NodeId k : {NodeId{1}, NodeId{2}})
      w->nodes.push_back(&scn.add_node(k, drifting_clock(*rng), net));

  // One gateway pair per link (created before the first run: links are
  // part of the sharded engine's topology).
  std::vector<int> next_gw_id(static_cast<std::size_t>(topo.segments), 100);
  if (channels) {
    for (const TopoLink& link : topo.links) {
      Node& ga = scn.add_node(
          static_cast<NodeId>(next_gw_id[static_cast<std::size_t>(link.a)]++), {},
          link.a);
      Node& gb = scn.add_node(
          static_cast<NodeId>(next_gw_id[static_cast<std::size_t>(link.b)]++), {},
          link.b);
      w->nodes.push_back(&ga);
      w->nodes.push_back(&gb);
      w->gateways.push_back(std::make_unique<Gateway>(
          ga, gb, scn.link_gateway(ga, gb, link.latency)));
    }
  }
  w->topology_s = seconds_since(t0);
  if (channels) {
    for (int net = 0; net < topo.segments; ++net)
      require(scn.enable_clock_sync_on(net, NodeId{2}, 500_us).has_value(),
              "sync slot refused");
  }
  w->start = TimePoint::origin() + kWarmup;
  w->attack_from = TimePoint::max();
  add_observers(scn, spec.layers, w->start + spec.length / 2);
  warm_up(*w);

  const auto make_srt = [&](NodeId id, int net) {
    w->srt.push_back(std::make_unique<Srtec>(scn.node(id, net).middleware()));
    return w->srt.back().get();
  };
  // A bridged SRT subject per link, published every 5-9 ms on side a.
  for (std::size_t l = 0; l < topo.links.size(); ++l) {
    const TopoLink& link = topo.links[l];
    Node& pub_node = scn.node(NodeId{1}, link.a);
    const Duration period =
        5_ms + Duration::milliseconds(static_cast<std::int64_t>(l % 5));
    std::function<void()> body;
    if (channels) {
      const Subject subj = subject_of("city/x" + std::to_string(l));
      require(w->gateways[l]->bridge_srt(subj, 10_ms, 30_ms).has_value(),
              "bridge refused");
      Srtec* pub = make_srt(NodeId{1}, link.a);
      require(pub->announce(subj, AttributeList{attr::Deadline{10_ms}}, nullptr)
                  .has_value(), "SRT announce refused");
      Srtec* sub = make_srt(NodeId{2}, link.b);
      require(sub->subscribe(subj, {}, drain(sub, probes(link.b)), nullptr).has_value(),
              "SRT subscribe refused");
      body = [pub, p = probes(link.a), payload = static_cast<std::uint8_t>(l)]() mutable {
        Event e;
        e.content = {payload++, 0x42};
        publish(pub, std::move(e), p);
      };
    } else {
      const CanFrame f = raw_frame(20, pub_node.id(), static_cast<Etag>(100 + l % 1000), 2);
      body = [c = &pub_node.controller(), f] {
        (void)c->submit(f, TxMode::kAutoRetransmit);
      };
    }
    w->tasks.push_back(
        std::make_unique<PeriodicLocalTask>(pub_node.clock(), period, std::move(body)));
    w->tasks.back()->start();
  }

  // Poisson chatter on every fourth segment: the busy minority.
  for (int net = 0; net < topo.segments; net += 4) {
    Rng* r = add_rng(*w, seed * 1000 + static_cast<std::uint64_t>(net) + 1);
    Node& pub_node = scn.node(NodeId{1}, net);
    std::function<void()> body;
    if (channels) {
      const Subject subj = subject_of("city/c" + std::to_string(net));
      Srtec* pub = make_srt(NodeId{1}, net);
      require(pub->announce(subj, AttributeList{attr::Deadline{20_ms}}, nullptr)
                  .has_value(), "SRT announce refused");
      Srtec* sub = make_srt(NodeId{2}, net);
      require(sub->subscribe(subj, {}, drain(sub, probes(net)), nullptr).has_value(),
              "SRT subscribe refused");
      body = [pub, p = probes(net)] {
        Event e;
        e.content = {0x5A};
        publish(pub, std::move(e), p);
      };
    } else {
      const CanFrame f = raw_frame(40, pub_node.id(), 50, 1);
      body = [c = &pub_node.controller(), f] {
        (void)c->submit(f, TxMode::kAutoRetransmit);
      };
    }
    poisson_loop(*w, scn.segment_sim(net), r, 0.5e6, std::move(body));
  }
  return w;
}

Counters counters(const World& w) {
  trace::MetricsRegistry reg;
  w.scn->export_metrics(reg);
  Counters c;
  for (const auto& [name, value] : reg.values()) {
    const double v = std::visit([](auto x) { return static_cast<double>(x); }, value);
    if (name.rfind("engine.", 0) == 0) continue;  // partition-dependent
    if (name.rfind("kernel", 0) == 0) {
      // kernelNNN.<stat>: summed over shards.
      c["kernels" + name.substr(name.find('.'))] += v;
      continue;
    }
    c[name] = v;
  }
  for (const Node* n : w.nodes) {
    const Middleware& mw = n->middleware();
    const auto& h = mw.hrt().counters();
    c["core.hrt.published"] += static_cast<double>(h.published);
    c["core.hrt.sent_ok"] += static_cast<double>(h.sent_ok);
    c["core.hrt.retries"] += static_cast<double>(h.retries);
    c["core.hrt.send_failed"] += static_cast<double>(h.send_failed);
    c["core.hrt.delivered"] += static_cast<double>(h.delivered);
    c["core.hrt.missing"] += static_cast<double>(h.missing);
    const auto& s = mw.srt().counters();
    c["core.srt.published"] += static_cast<double>(s.published);
    c["core.srt.sent"] += static_cast<double>(s.sent);
    c["core.srt.deadline_missed"] += static_cast<double>(s.deadline_missed);
    c["core.srt.expired"] += static_cast<double>(s.expired);
    c["core.srt.promotions"] += static_cast<double>(s.promotions);
    c["core.srt.delivered"] += static_cast<double>(s.delivered);
    const auto& r = mw.nrt().counters();
    c["core.nrt.published"] += static_cast<double>(r.published);
    c["core.nrt.frames_sent"] += static_cast<double>(r.frames_sent);
    c["core.nrt.messages_sent"] += static_cast<double>(r.messages_sent);
    c["core.nrt.delivered"] += static_cast<double>(r.delivered);
  }
  for (const auto& g : w.gateways) {
    const Gateway::Counters gc = g->counters();
    c["core.gateway.forwarded"] +=
        static_cast<double>(gc.forwarded_a_to_b + gc.forwarded_b_to_a);
    c["core.gateway.failures"] += static_cast<double>(gc.forward_failures);
  }
  return c;
}

std::uint64_t digest(const Counters& c) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [name, v] : c) {
    mix(name.data(), name.size());
    mix(&v, sizeof v);
  }
  return h;
}

}  // namespace rtec::bench
