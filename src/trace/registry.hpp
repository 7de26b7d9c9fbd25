#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <variant>

#include "canbus/bus.hpp"
#include "sim/shard_engine.hpp"
#include "sim/simulator.hpp"
#include "trace/binary.hpp"
#include "trace/detectors.hpp"

/// \file registry.hpp
/// Unified metrics registry: one flat, deterministic snapshot of every
/// engine counter the repo exposes.
///
/// Before this layer each component reported through its own accessors
/// (CanBus::frames_ok, ShardEngine::stats, detector counters, bench-local
/// probes) and every bench/test stitched its own subset together. The
/// registry is the common sink: components *export into* it under a
/// dotted-name prefix ("net0.bus.frames_ok", "engine.epochs", ...) and
/// the whole snapshot serializes to canonical JSON — keys sorted (std::map
/// iteration order), integers exact, doubles printed with %.17g. Every
/// metric derived from the simulation timeline is bit-identical across
/// runs and shard/thread counts; the only documented exceptions are the
/// engine's barrier spin/park counters, which measure host scheduling
/// (see ShardEngine::Stats). CI archives snapshots as diffable artifacts.
///
/// The catalog of exported names is documented in docs/observability.md;
/// Scenario::export_metrics assembles the full per-scenario snapshot and
/// benches write it alongside their BENCH_*.json.

namespace rtec {
namespace trace {

/// Flat name -> value store. Values are exact integers or doubles;
/// booleans are exported as 0/1 counters.
class MetricsRegistry {
 public:
  using Value = std::variant<std::uint64_t, std::int64_t, double>;

  void set(const std::string& name, std::uint64_t v) { values_[name] = v; }
  void set(const std::string& name, std::int64_t v) { values_[name] = v; }
  void set(const std::string& name, double v) { values_[name] = v; }

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] std::optional<Value> get(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  /// Any stored value, widened to double (tests and quick checks).
  [[nodiscard]] std::optional<double> get_double(
      const std::string& name) const;

  /// Canonical JSON object: keys sorted, one "name": value per line.
  /// Deterministic across runs and platforms for identical contents.
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`. Returns false on I/O failure.
  bool save(const std::string& path) const;

  /// Ordered (sorted by name) read access.
  [[nodiscard]] const std::map<std::string, Value>& values() const {
    return values_;
  }

 private:
  // determinism: ordered map keeps snapshots byte-identical
  std::map<std::string, Value> values_;
};

/// Component exporters. Each writes its counters under `<prefix>.`; the
/// prefix carries the instance identity (e.g. "net3.bus"). See
/// docs/observability.md for the full metric catalog.
void export_metrics(MetricsRegistry& reg, const std::string& prefix,
                    const Simulator::Stats& kernel);
void export_metrics(MetricsRegistry& reg, const std::string& prefix,
                    const ShardEngine& engine);
void export_metrics(MetricsRegistry& reg, const std::string& prefix,
                    const CanBus& bus);
void export_metrics(MetricsRegistry& reg, const std::string& prefix,
                    const Detector& det);
void export_metrics(MetricsRegistry& reg, const std::string& prefix,
                    const DetectorBank& bank);
void export_metrics(MetricsRegistry& reg, const std::string& prefix,
                    const RtebWriter& writer);

}  // namespace trace
}  // namespace rtec
