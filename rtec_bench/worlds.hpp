#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/gateway.hpp"
#include "core/hrtec.hpp"
#include "core/nrtec.hpp"
#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "rtec_bench/stats.hpp"
#include "time/periodic.hpp"
#include "util/random.hpp"
#include "util/task_pool.hpp"

/// \file worlds.hpp
/// The simulated worlds rtec_bench measures, built only through the
/// public API (Scenario, Node, the channel classes, Gateway). Every input
/// derives from the seed passed in, so one seed always builds the same
/// world and replays the same simulation.

namespace rtec::bench {

/// How much of the stack a world runs through — the ablation ladder of the
/// traced run. Each step adds one layer to the previous one.
enum class Layers {
  kRaw,       ///< sources submit frames to the controllers directly
  kFull,      ///< HRT/SRT/NRT channels, clock sync, gateways
  kRecorded,  ///< + an RTEB recorder on every segment
  kDetected,  ///< + a detector bank on every segment
};

/// Host-time probes around the high-rate calls into the core layer. A
/// traced world keeps one per segment: a segment runs on one thread at a
/// time, so its probes need no lock even under the sharded engine.
struct Probes {
  LogLinearHistogram publish_ns;
  LogLinearHistogram get_event_ns;
};

/// One segment, `nodes` nodes: nodes/4 periodic HRT slots (k=1) plus one
/// sporadic alarm slot (k=2) in a 10 ms round, nodes/2 Poisson SRT
/// publishers (deadline 5-20 ms, expiration 3x deadline), nodes/16
/// fragmenting NRT bulk uploaders (2 KiB blobs) that fill the bus, clock
/// sync and 1 % random omission faults.
struct MixedSpec {
  int nodes = 32;
  Duration length = Duration::seconds(1);  ///< timed span after set-up
  Layers layers = Layers::kFull;
  /// Spoofing of the first HRT stream plus identifier fuzzing over the
  /// last 10 % of `length`.
  bool attacks = false;
};

/// A generated campus grid (sim/topology_gen.hpp) carrying city traffic:
/// two nodes per segment, a gateway pair per link with a bridged SRT
/// subject, Poisson chatter on every fourth segment, per-segment sync.
struct CitySpec {
  int segments = 64;
  int shards = 1;
  unsigned threads = 1;
  Duration length = Duration::seconds(1);
  Layers layers = Layers::kFull;
};

/// A built scenario plus everything that drives it. Members are declared
/// so that the scenario is destroyed last.
struct World {
  std::unique_ptr<Scenario> scn;
  std::vector<Probes> probes;  ///< per segment; empty when untraced
  std::vector<Node*> nodes;  ///< every node, gateways included
  std::vector<std::unique_ptr<Gateway>> gateways;
  std::vector<std::unique_ptr<Hrtec>> hrt;
  std::vector<std::unique_ptr<Srtec>> srt;
  std::vector<std::unique_ptr<Nrtec>> nrt;
  std::vector<std::unique_ptr<PeriodicLocalTask>> tasks;
  std::vector<std::unique_ptr<Rng>> rngs;
  TaskPool loops;

  TimePoint start;       ///< simulated time the timed span begins
  Duration length;       ///< timed span
  TimePoint attack_from; ///< attacks start (TimePoint::max() when none)
  AttackModel* spoofing = nullptr;  ///< installed attacks (owned by scn)
  AttackModel* fuzzing = nullptr;
  /// Host seconds of two set-up phases: building the network structure
  /// (topology, Scenario, nodes, gateway links) and the sync warm-up run.
  double topology_s = 0.0;
  double warmup_s = 0.0;

  /// Bus occupancies (good and corrupted) summed over every segment.
  [[nodiscard]] std::uint64_t frames() const;
};

/// Builds the world and runs its 20 ms clock-sync warm-up; on return the
/// world is ready for its timed span. `traced` worlds time every publish
/// and getEvent into World::probes. Throws std::runtime_error when the
/// calendar refuses a reservation.
[[nodiscard]] std::unique_ptr<World> build_mixed(const MixedSpec& spec,
                                                 std::uint64_t seed, bool traced);
[[nodiscard]] std::unique_ptr<World> build_city(const CitySpec& spec,
                                                std::uint64_t seed, bool traced);

/// The world's simulation counters that do not depend on how segments are
/// partitioned into shards: per-segment bus/tap/RTEB metrics, kernel
/// events summed over shards, channel-engine and gateway counters.
using Counters = std::map<std::string, double>;
[[nodiscard]] Counters counters(const World& w);

/// FNV-1a over a counter set (names and exact values).
[[nodiscard]] std::uint64_t digest(const Counters& c);

}  // namespace rtec::bench
