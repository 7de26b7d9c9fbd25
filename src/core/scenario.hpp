#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "canbus/attack.hpp"
#include "canbus/bus.hpp"
#include "canbus/fault.hpp"
#include "core/node.hpp"
#include "sched/calendar.hpp"
#include "sim/shard_engine.hpp"
#include "trace/binary.hpp"
#include "trace/detectors.hpp"
#include "trace/registry.hpp"

/// \file scenario.hpp
/// Scenario — one simulated deployment: the kernel(s), one or more CAN
/// network segments (each with its own bus and reservation calendar), the
/// subject binding registry (global: subjects are system-wide names, as
/// in the paper's multi-network architecture [12]) and the set of nodes.
/// All examples, tests and benches build their worlds through this class.
///
/// Sharded execution (Config::shards > 1): the segments are partitioned
/// into contiguous groups, each driven by its own event kernel, and
/// run_for/run_until dispatch to the conservative parallel engine
/// (sim/shard_engine.hpp). Segments may then interact ONLY through
/// handoff channels (link_gateway) — direct cross-segment calls from
/// simulation callbacks would race and break determinism. Results are
/// bit-identical to the single-kernel run for any shard/thread count.

namespace rtec {

struct GatewayLink;

class Scenario {
 public:
  /// Middleware frames carry the segment in an 8-bit network id.
  static constexpr int kMaxNetworks = 256;

  struct Config {
    BusConfig bus{};
    /// Round length / ΔG_min used for every network's calendar; the
    /// BusConfig inside is overwritten with `bus` at construction.
    Calendar::Config calendar{};
    /// SRT deadline→priority map, identical on all nodes.
    DeadlinePriorityMap::Config srt_map{};
    /// Number of network segments (field buses). Nodes attach to exactly
    /// one; gateways attach to two via core/gateway.hpp.
    int networks = 1;
    /// Event-kernel shards the segments are partitioned into, clamped to
    /// [1, networks]. 1 = one shared kernel (the sequential reference);
    /// `networks` = one kernel per segment (maximum parallelism).
    int shards = 1;
    /// Threads executing shard epochs, the calling thread included (see
    /// ShardEngine::set_threads); 0 = min(shards, host CPUs). 1 runs the
    /// sharded scenario sequentially on the caller (identical results, no
    /// concurrency).
    unsigned threads = 0;
  };

  Scenario() : Scenario(Config{}) {}
  explicit Scenario(Config cfg);

  /// The shared event kernel. Only meaningful while the scenario is
  /// unsharded (asserted): with shards > 1 there is no single timeline —
  /// use segment_sim() for per-segment scheduling.
  [[nodiscard]] Simulator& sim() {
    assert(sims_.size() == 1);
    return *sims_.front();
  }
  /// The event kernel driving `network`'s shard.
  [[nodiscard]] Simulator& segment_sim(int network) {
    return *sims_[static_cast<std::size_t>(shard_of(network))];
  }
  /// Shard index a network segment is partitioned into.
  [[nodiscard]] int shard_of(int network) const {
    assert(network >= 0 && network < cfg_.networks);
    return network * static_cast<int>(sims_.size()) / cfg_.networks;
  }
  /// The conservative parallel engine (epoch/handoff statistics).
  [[nodiscard]] const ShardEngine& shard_engine() const { return engine_; }
  [[nodiscard]] int network_count() const { return static_cast<int>(networks_.size()); }
  [[nodiscard]] CanBus& bus(int network = 0) { return networks_.at(static_cast<std::size_t>(network))->bus; }
  [[nodiscard]] Calendar& calendar(int network = 0) { return networks_.at(static_cast<std::size_t>(network))->calendar; }
  [[nodiscard]] BindingRegistry& binding() { return binding_; }

  /// Installs a fault model on one network (owned by the scenario).
  void set_fault_model(std::unique_ptr<FaultModel> model, int network = 0);

  /// Installs an adversarial workload (canbus/attack.hpp) on one network
  /// and arms it. `attacker_id` is the adversary's own controller identity
  /// on that segment and must be unused there (the attacker is an extra
  /// tap on the wire; forged identifiers are per-frame). Attacks sharing
  /// an attacker_id share one controller. All attack timing comes from the
  /// segment's kernel and `seed`, so sharded runs stay bit-identical.
  /// Returns the installed attack for counter inspection.
  AttackModel& install_attack(std::unique_ptr<AttackModel> attack,
                              NodeId attacker_id, std::uint64_t seed,
                              int network = 0);

  /// The network's streaming detector bank (trace/detectors.hpp), created
  /// on first use together with the bus observer that feeds it the
  /// segment's successful deliveries. Add detectors to it before running;
  /// call flush_streams() when done.
  [[nodiscard]] trace::DetectorBank& detectors(int network = 0);
  /// Successful deliveries the network's detector bank has been fed
  /// (0 when detectors() was never called for that network).
  [[nodiscard]] std::uint64_t tapped_deliveries(int network = 0) const;

  /// Ends the detectors' input: flushes window state of every detector
  /// bank at the current time. Call once after the final run.
  void flush_streams();

  /// Records one network as a memory-backed RTEB stream (trace/binary.hpp):
  /// every bus occupancy of that segment, every alarm of detectors already
  /// in its bank, and every handoff posted on channels sourced from it
  /// (linked before or after this call) go to one writer, byte-identical
  /// across shard/thread counts. Call after adding the network's
  /// detectors — alarm sinks are wired at this point (and replace any sink
  /// already set on them). One writer per network.
  trace::RtebWriter& record_rteb(int network = 0);
  /// The network's writer, or nullptr when record_rteb was never called.
  [[nodiscard]] trace::RtebWriter* rteb(int network = 0) {
    return networks_.at(static_cast<std::size_t>(network))->rteb.get();
  }

  /// Snapshots every counter the scenario can see into `reg` (metric
  /// catalog: docs/observability.md): per-shard kernel stats
  /// ("kernelNNN."), the parallel engine ("engine.") and each network's
  /// bus / detector deliveries ("tap") / detectors / RTEB writer ("netNNN.").
  void export_metrics(trace::MetricsRegistry& reg) const;
  /// export_metrics into a fresh registry, rendered as canonical JSON.
  [[nodiscard]] std::string metrics_json() const;

  /// Loads a configuration image (sched/calendar_io.hpp) into a network's
  /// calendar: every slot is re-admitted; bus/round/gap settings of the
  /// image must match the scenario's (nodes must agree on them).
  Expected<void, std::string> load_calendar_image(const std::string& text,
                                                  int network = 0);

  /// Adds a node to a network segment. Node ids are unique *per segment*
  /// (CAN arbitration only sees one segment), so city-scale topologies
  /// reuse the same small id space on every segment. The id-only lookup
  /// overloads below remain valid for any id used on a single segment.
  Node& add_node(NodeId id, Node::ClockParams clock_params = {},
                 int network = 0);
  /// Looks up a node by system-wide-unique id (asserts the id is used on
  /// exactly one segment — the common single/few-segment case).
  [[nodiscard]] Node& node(NodeId id);
  /// Looks up a node by its (segment, id) address.
  [[nodiscard]] Node& node(NodeId id, int network);
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  /// Network segment a node lives on (id-unique overload, asserted).
  [[nodiscard]] int network_of(NodeId id) const;
  /// Network segment a node instance lives on.
  [[nodiscard]] int network_of(const Node& n) const;

  /// Reserves a calendar slot for the sync round on `network` (etag
  /// kSyncRefEtag, publisher `master`, sized to carry reference +
  /// follow-up with one retry margin), makes `master` the sync master and
  /// every other node *on that network* a slave, and starts rounds at the
  /// slot's ready time. Call after adding that network's nodes.
  /// `rate_correction` toggles the slaves' drift-compensation servo
  /// (kept on in deployments; E11 ablates it for coasting behaviour).
  Expected<void, AdmissionError> enable_clock_sync(NodeId master,
                                                   Duration lst_offset,
                                                   bool rate_correction = true);
  /// Same, addressing the master by (segment, id) — required when the
  /// master's id is reused on other segments (city-scale topologies).
  Expected<void, AdmissionError> enable_clock_sync_on(
      int network, NodeId master, Duration lst_offset,
      bool rate_correction = true);

  /// Marks `gateway_node` (already added to `network`) as a forwarding
  /// gateway: frames it sends are treated as remote-origin by every node
  /// of that network (drives the LocalOnly subscriber filter). Applies to
  /// nodes present now and added later.
  void register_gateway(NodeId gateway_node, int network);

  /// Creates the pair of handoff channels a Gateway between nodes `a` and
  /// `b` forwards through, registers both nodes as gateways on their
  /// segments, and wires the channels into the shard engine.
  /// `forward_latency` (> 0) is the gateway's store-and-forward delay: a
  /// forwarded event is re-published on the far segment exactly that long
  /// after its delivery to the gateway stack. Across shards it doubles as
  /// the conservative lookahead, so larger latencies mean coarser (and
  /// cheaper) synchronization epochs.
  [[nodiscard]] GatewayLink link_gateway(const Node& a, const Node& b,
                                         Duration forward_latency);

  /// Largest pairwise disagreement of all node clocks right now — the
  /// precision Π that ΔG_min must dominate.
  [[nodiscard]] Duration clock_precision() const;
  /// Same, restricted to the nodes of one network segment (per-segment
  /// sync masters keep per-segment precisions; there is no system-wide Π
  /// guarantee across gateways).
  [[nodiscard]] Duration clock_precision(int network) const;

  void run_for(Duration d) { run_until(now() + d); }
  void run_until(TimePoint t);
  /// Current simulation time (all shards agree between run calls).
  [[nodiscard]] TimePoint now() const { return sims_.front()->now(); }

 private:
  struct Network {
    Network(Simulator& sim, BusConfig bus_cfg, Calendar::Config cal_cfg)
        : bus{sim, bus_cfg}, calendar{cal_cfg} {}
    CanBus bus;
    Calendar calendar;
    std::unique_ptr<FaultModel> faults;
    std::vector<NodeId> gateways;
    /// Adversary controllers keyed by node id (see install_attack).
    std::vector<std::unique_ptr<CanController>> attackers;
    std::vector<std::unique_ptr<AttackModel>> attacks;
    /// Created lazily by detectors().
    std::unique_ptr<trace::DetectorBank> detector_bank;
    /// Binary trace capture, created by record_rteb().
    std::unique_ptr<trace::RtebWriter> rteb;
  };

  Config cfg_;
  /// One kernel per shard; every member below may reference them, so they
  /// are declared first (destroyed last).
  std::vector<std::unique_ptr<Simulator>> sims_;
  ShardEngine engine_;
  std::vector<std::unique_ptr<Network>> networks_;
  BindingRegistry binding_;
  /// Nodes keyed by (segment, id): ids are unique per segment only.
  /// Iteration order (segment-major, id-minor) is what keeps per-segment
  /// setup deterministic and independent of other segments.
  std::map<std::pair<int, NodeId>, std::unique_ptr<Node>> nodes_;
  /// Segments each id appears on — backs the id-unique compat lookups.
  std::map<NodeId, std::vector<int>> id_networks_;
  /// (source network, channel) for every gateway channel, so RTEB
  /// writers can hook handoff posts whichever of record_rteb /
  /// link_gateway runs first.
  std::vector<std::pair<int, HandoffChannel*>> channel_sources_;
};

}  // namespace rtec
