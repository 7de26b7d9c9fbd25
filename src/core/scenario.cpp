#include "core/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string>
#include <thread>

#include "core/gateway.hpp"
#include "sched/calendar_io.hpp"

namespace rtec {

namespace {
Calendar::Config with_bus(Calendar::Config cal, BusConfig bus) {
  cal.bus = bus;
  return cal;
}

/// Feeds a channel's handoff posts into a network's RTEB writer. Posts
/// happen in the source kernel's execution context (see HandoffChannel),
/// so the records interleave deterministically with that segment's frames.
void hook_channel(HandoffChannel& ch, trace::RtebWriter& w) {
  ch.set_post_observer([&w](TimePoint send, TimePoint release,
                            std::uint32_t channel, std::uint64_t seq) {
    w.add_handoff(send, release, channel, seq);
  });
}
}  // namespace

Scenario::Scenario(Config cfg) : cfg_{cfg} {
  assert(cfg.networks >= 1 && cfg.networks <= kMaxNetworks);
  const int shard_count = std::clamp(cfg.shards, 1, cfg.networks);
  for (int s = 0; s < shard_count; ++s) {
    sims_.push_back(std::make_unique<Simulator>());
    engine_.add_shard(*sims_.back());
  }
  unsigned threads = cfg.threads;
  if (threads == 0) {
    // Results do not depend on the thread count, only wall time does. The
    // CPU count is read once per process: the query reads /sys on Linux,
    // which would dominate the set-up of a small scenario.
    static const unsigned cpus =
        std::max(1u, std::thread::hardware_concurrency());
    threads = std::min(static_cast<unsigned>(shard_count), cpus);
  }
  engine_.set_threads(threads);
  for (int i = 0; i < cfg.networks; ++i)
    networks_.push_back(std::make_unique<Network>(
        segment_sim(i), cfg.bus, with_bus(cfg.calendar, cfg.bus)));
}

void Scenario::run_until(TimePoint t) {
  if (sims_.size() == 1) {
    // Unsharded fast path: gateway channels are unbuffered (they inject
    // straight into the shared kernel), so the plain kernel loop already
    // covers everything the engine would do.
    sims_.front()->run_until(t);
    return;
  }
  engine_.run_until(t);
}

GatewayLink Scenario::link_gateway(const Node& a, const Node& b,
                                   Duration forward_latency) {
  const int net_a = network_of(a);
  const int net_b = network_of(b);
  assert(net_a != net_b && "a gateway bridges two distinct segments");
  register_gateway(a.id(), net_a);
  register_gateway(b.id(), net_b);
  GatewayLink link;
  link.a_to_b = &engine_.link(static_cast<std::size_t>(shard_of(net_a)),
                              static_cast<std::size_t>(shard_of(net_b)),
                              forward_latency);
  link.b_to_a = &engine_.link(static_cast<std::size_t>(shard_of(net_b)),
                              static_cast<std::size_t>(shard_of(net_a)),
                              forward_latency);
  channel_sources_.emplace_back(net_a, link.a_to_b);
  channel_sources_.emplace_back(net_b, link.b_to_a);
  // A writer attached before this link still sees its handoffs.
  if (auto& w = networks_[static_cast<std::size_t>(net_a)]->rteb)
    hook_channel(*link.a_to_b, *w);
  if (auto& w = networks_[static_cast<std::size_t>(net_b)]->rteb)
    hook_channel(*link.b_to_a, *w);
  return link;
}

void Scenario::set_fault_model(std::unique_ptr<FaultModel> model, int network) {
  Network& net = *networks_.at(static_cast<std::size_t>(network));
  net.faults = std::move(model);
  net.bus.set_fault_model(net.faults.get());
}

AttackModel& Scenario::install_attack(std::unique_ptr<AttackModel> attack,
                                      NodeId attacker_id, std::uint64_t seed,
                                      int network) {
  assert(network >= 0 && network < cfg_.networks);
  assert(!nodes_.contains({network, attacker_id}) &&
         "attacker id collides with a legitimate node on this segment");
  Network& net = *networks_.at(static_cast<std::size_t>(network));

  CanController* attacker = nullptr;
  for (const auto& c : net.attackers)
    if (c->node() == attacker_id) attacker = c.get();
  if (attacker == nullptr) {
    net.attackers.push_back(
        std::make_unique<CanController>(segment_sim(network), attacker_id));
    attacker = net.attackers.back().get();
    net.bus.attach(*attacker);
  }

  AttackContext ctx;
  ctx.sim = &segment_sim(network);
  ctx.bus = &net.bus;
  ctx.attacker = attacker;
  ctx.seed = seed;
  ctx.victim_controller = [this, network](NodeId id) -> CanController* {
    const auto it = nodes_.find({network, id});
    return it == nodes_.end() ? nullptr : &it->second->controller();
  };

  net.attacks.push_back(std::move(attack));
  AttackModel& armed = *net.attacks.back();
  armed.arm(ctx);
  return armed;
}

trace::DetectorBank& Scenario::detectors(int network) {
  Network& net = *networks_.at(static_cast<std::size_t>(network));
  if (net.detector_bank == nullptr) {
    net.detector_bank = std::make_unique<trace::DetectorBank>();
    trace::DetectorBank* bank = net.detector_bank.get();
    net.bus.add_observer([bank](const CanBus::FrameEvent& ev) {
      if (ev.success) bank->on_frame(ev);
    });
  }
  return *net.detector_bank;
}

std::uint64_t Scenario::tapped_deliveries(int network) const {
  const Network& net = *networks_.at(static_cast<std::size_t>(network));
  return net.detector_bank ? net.detector_bank->deliveries() : 0;
}

void Scenario::flush_streams() {
  const TimePoint t = now();
  for (const auto& net : networks_)
    if (net->detector_bank) net->detector_bank->finish(t);
}

trace::RtebWriter& Scenario::record_rteb(int network) {
  Network& net = *networks_.at(static_cast<std::size_t>(network));
  assert(net.rteb == nullptr && "one RTEB writer per network");
  net.rteb =
      std::make_unique<trace::RtebWriter>(static_cast<std::uint16_t>(network));
  trace::RtebWriter& w = *net.rteb;
  net.bus.add_observer([&w](const CanBus::FrameEvent& ev) { w.add_frame(ev); });
  if (net.detector_bank != nullptr) {
    for (std::size_t i = 0; i < net.detector_bank->size(); ++i)
      net.detector_bank->at(i).set_alarm_sink([&w](const trace::Alarm& a) {
        w.add_alarm(a.detector, a.at, a.id, a.score, a.unknown_id);
      });
  }
  for (const auto& [source, channel] : channel_sources_)
    if (source == network) hook_channel(*channel, w);
  return w;
}

void Scenario::export_metrics(trace::MetricsRegistry& reg) const {
  char prefix[40];
  // %03zu padding keeps the registry's sorted iteration in instance order
  // for up to 1000 kernels / kMaxNetworks segments.
  for (std::size_t s = 0; s < sims_.size(); ++s) {
    std::snprintf(prefix, sizeof prefix, "kernel%03zu", s);
    trace::export_metrics(reg, prefix, sims_[s]->stats());
  }
  trace::export_metrics(reg, "engine", engine_);
  for (std::size_t i = 0; i < networks_.size(); ++i) {
    const Network& net = *networks_[i];
    std::snprintf(prefix, sizeof prefix, "net%03zu", i);
    const std::string base{prefix};
    trace::export_metrics(reg, base + ".bus", net.bus);
    if (net.detector_bank) {
      reg.set(base + ".tap.deliveries", net.detector_bank->deliveries());
      trace::export_metrics(reg, base + ".detector", *net.detector_bank);
    }
    if (net.rteb) trace::export_metrics(reg, base + ".rteb", *net.rteb);
  }
}

std::string Scenario::metrics_json() const {
  trace::MetricsRegistry reg;
  export_metrics(reg);
  return reg.to_json();
}

Expected<void, std::string> Scenario::load_calendar_image(
    const std::string& text, int network) {
  const auto parsed = calendar_from_text(text);
  if (!parsed)
    return Unexpected{"line " + std::to_string(parsed.error().line) + ": " +
                      parsed.error().message};
  Network& net = *networks_.at(static_cast<std::size_t>(network));
  if (parsed->config().round_length != net.calendar.config().round_length ||
      parsed->config().gap != net.calendar.config().gap ||
      parsed->config().bus.bitrate_bps !=
          net.calendar.config().bus.bitrate_bps)
    return Unexpected{std::string{
        "image round/gap/bitrate disagree with the scenario configuration"}};
  for (std::size_t i = 0; i < parsed->size(); ++i) {
    if (!net.calendar.reserve(parsed->slot(i)))
      return Unexpected{"slot " + std::to_string(i) +
                        " conflicts with existing reservations"};
  }
  return {};
}

Node& Scenario::add_node(NodeId id, Node::ClockParams clock_params,
                         int network) {
  assert(network >= 0 && network < cfg_.networks);
  assert(!nodes_.contains({network, id}) && "node id taken on this segment");
  Network& net = *networks_.at(static_cast<std::size_t>(network));
  Middleware::Config mw_cfg;
  mw_cfg.srt_map = cfg_.srt_map;
  auto node = std::make_unique<Node>(segment_sim(network), net.bus, binding_,
                                     &net.calendar, id, clock_params, mw_cfg);
  for (NodeId gw : net.gateways) node->middleware().add_gateway_node(gw);
  Node& ref = *node;
  nodes_.emplace(std::pair{network, id}, std::move(node));
  id_networks_[id].push_back(network);
  return ref;
}

Node& Scenario::node(NodeId id) { return node(id, network_of(id)); }

Node& Scenario::node(NodeId id, int network) {
  const auto it = nodes_.find({network, id});
  assert(it != nodes_.end());
  return *it->second;
}

int Scenario::network_of(NodeId id) const {
  const auto it = id_networks_.find(id);
  assert(it != id_networks_.end());
  assert(it->second.size() == 1 &&
         "node id is reused across segments — address it by (id, network)");
  return it->second.front();
}

int Scenario::network_of(const Node& n) const {
  const auto it = id_networks_.find(n.id());
  assert(it != id_networks_.end());
  for (const int net : it->second)
    if (nodes_.at({net, n.id()}).get() == &n) return net;
  assert(false && "node does not belong to this scenario");
  return -1;
}

Expected<void, AdmissionError> Scenario::enable_clock_sync(NodeId master,
                                                           Duration lst_offset,
                                                           bool rate_correction) {
  return enable_clock_sync_on(network_of(master), master, lst_offset,
                              rate_correction);
}

Expected<void, AdmissionError> Scenario::enable_clock_sync_on(
    int network, NodeId master, Duration lst_offset, bool rate_correction) {
  Network& net = *networks_.at(static_cast<std::size_t>(network));

  // One slot wide enough for the dlc-0 reference frame plus the dlc-8
  // follow-up: a dlc-8 window with omission degree 1 over-covers both.
  SlotSpec slot;
  slot.lst_offset = lst_offset;
  slot.dlc = 8;
  slot.fault.omission_degree = 1;
  slot.etag = kSyncRefEtag;
  slot.publisher = master;
  slot.periodic = true;
  const auto reserved = net.calendar.reserve(slot);
  if (!reserved) return Unexpected{reserved.error()};
  const std::size_t slot_index = *reserved;

  SyncConfig sync_cfg;
  sync_cfg.rate_correction = rate_correction;
  sync_cfg.period = net.calendar.config().round_length;
  sync_cfg.ref_frame_id = encode_can_id({kHrtPriority, master, kSyncRefEtag});
  sync_cfg.followup_frame_id =
      encode_can_id({kHrtPriority, master, kSyncFollowEtag});

  Node& master_node = node(master, network);
  SyncMaster& sm = master_node.make_sync_master(sync_cfg);
  for (auto& [key, n] : nodes_) {
    if (key.first == network && key.second != master)
      n->make_sync_slave(sync_cfg);
  }

  const Calendar::Instance first =
      net.calendar.instance_at_or_after(slot_index, master_node.clock().now());
  sm.start_at_local(first.ready);
  return {};
}

void Scenario::register_gateway(NodeId gateway_node, int network) {
  Network& net = *networks_.at(static_cast<std::size_t>(network));
  net.gateways.push_back(gateway_node);
  for (auto& [key, n] : nodes_) {
    if (key.first == network) n->middleware().add_gateway_node(gateway_node);
  }
}

Duration Scenario::clock_precision() const {
  Duration worst = Duration::zero();
  for (auto it_a = nodes_.begin(); it_a != nodes_.end(); ++it_a) {
    auto it_b = it_a;
    for (++it_b; it_b != nodes_.end(); ++it_b) {
      const TimePoint a = it_a->second->clock().now();
      const TimePoint b = it_b->second->clock().now();
      const Duration d = a > b ? a - b : b - a;
      if (d > worst) worst = d;
    }
  }
  return worst;
}

Duration Scenario::clock_precision(int network) const {
  Duration worst = Duration::zero();
  for (auto it_a = nodes_.lower_bound({network, NodeId{0}});
       it_a != nodes_.end() && it_a->first.first == network; ++it_a) {
    auto it_b = it_a;
    for (++it_b; it_b != nodes_.end() && it_b->first.first == network;
         ++it_b) {
      const TimePoint a = it_a->second->clock().now();
      const TimePoint b = it_b->second->clock().now();
      const Duration d = a > b ? a - b : b - a;
      if (d > worst) worst = d;
    }
  }
  return worst;
}

}  // namespace rtec
