#include "trace/registry.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "util/json.hpp"

namespace rtec {
namespace trace {

namespace {

void append_value(std::string& out, const MetricsRegistry::Value& v) {
  char buf[64];
  if (const auto* u = std::get_if<std::uint64_t>(&v)) {
    std::snprintf(buf, sizeof buf, "%" PRIu64, *u);
  } else if (const auto* i = std::get_if<std::int64_t>(&v)) {
    std::snprintf(buf, sizeof buf, "%" PRId64, *i);
  } else {
    // Shortest-exact would be nicer; %.17g is exact on re-read and
    // deterministic, matching bench/sweep.hpp's BenchJson convention.
    std::snprintf(buf, sizeof buf, "%.17g", std::get<double>(v));
  }
  out += buf;
}

}  // namespace

std::optional<double> MetricsRegistry::get_double(
    const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  if (const auto* u = std::get_if<std::uint64_t>(&it->second))
    return static_cast<double>(*u);
  if (const auto* i = std::get_if<std::int64_t>(&it->second))
    return static_cast<double>(*i);
  return std::get<double>(it->second);
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\n";
  bool first = true;
  for (const auto& [name, value] : values_) {
    if (!first) out += ",\n";
    first = false;
    out += "  ";
    // Names are repo-controlled ([A-Za-z0-9._-]); escaping anyway keeps a
    // stray name from making the snapshot unparsable.
    append_json_string(out, name);
    out += ": ";
    append_value(out, value);
  }
  out += "\n}\n";
  return out;
}

bool MetricsRegistry::save(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  out << to_json();
  return out.good();
}

void export_metrics(MetricsRegistry& reg, const std::string& prefix,
                    const Simulator::Stats& kernel) {
  reg.set(prefix + ".events_scheduled", kernel.scheduled);
  reg.set(prefix + ".events_injected", kernel.injected);
  reg.set(prefix + ".events_cancelled", kernel.cancelled);
  reg.set(prefix + ".events_fired", kernel.fired);
  reg.set(prefix + ".heap_compactions", kernel.compactions);
}

void export_metrics(MetricsRegistry& reg, const std::string& prefix,
                    const ShardEngine& engine) {
  const ShardEngine::Stats& s = engine.stats();
  reg.set(prefix + ".shards", static_cast<std::uint64_t>(engine.shard_count()));
  reg.set(prefix + ".threads", static_cast<std::uint64_t>(engine.threads()));
  reg.set(prefix + ".epochs", s.epochs);
  reg.set(prefix + ".handoffs", s.handoffs);
  reg.set(prefix + ".shard_runs", s.shard_runs);
  reg.set(prefix + ".shard_skips", s.shard_skips);
  reg.set(prefix + ".handoff_batches", s.handoff_batches);
  reg.set(prefix + ".handoff_bytes", s.handoff_bytes);
  reg.set(prefix + ".barrier_spins", s.barrier_spins);
  reg.set(prefix + ".barrier_parks", s.barrier_parks);
  for (std::size_t b = 0; b < s.horizon_advance_log2.size(); ++b) {
    if (s.horizon_advance_log2[b] == 0) continue;  // sparse: most are empty
    char key[40];
    std::snprintf(key, sizeof key, ".horizon_log2.%02zu", b);
    reg.set(prefix + key, s.horizon_advance_log2[b]);
  }
  for (std::size_t i = 0; i < s.per_shard_runs.size(); ++i) {
    char key[40];
    std::snprintf(key, sizeof key, ".shard.%03zu.runs", i);
    reg.set(prefix + key, s.per_shard_runs[i]);
    std::snprintf(key, sizeof key, ".shard.%03zu.skips", i);
    reg.set(prefix + key, s.per_shard_skips[i]);
  }
}

void export_metrics(MetricsRegistry& reg, const std::string& prefix,
                    const CanBus& bus) {
  reg.set(prefix + ".frames_ok", bus.frames_ok());
  reg.set(prefix + ".frames_error", bus.frames_error());
  reg.set(prefix + ".busy_ns", bus.busy_time().ns());
  reg.set(prefix + ".error_ns", bus.error_time().ns());
  reg.set(prefix + ".utilization", bus.utilization());
}

void export_metrics(MetricsRegistry& reg, const std::string& prefix,
                    const Detector& det) {
  const std::string base = prefix + "." + det.name();
  reg.set(base + ".alarms", det.alarm_count());
  reg.set(base + ".unknown_id_frames", det.unknown_id_frames());
  reg.set(base + ".first_alarm_ns",
          det.first_alarm() ? det.first_alarm()->ns() : std::int64_t{-1});
}

void export_metrics(MetricsRegistry& reg, const std::string& prefix,
                    const DetectorBank& bank) {
  for (std::size_t i = 0; i < bank.size(); ++i)
    export_metrics(reg, prefix, bank.at(i));
}

void export_metrics(MetricsRegistry& reg, const std::string& prefix,
                    const RtebWriter& writer) {
  reg.set(prefix + ".bytes", writer.bytes_written());
  reg.set(prefix + ".records", writer.records());
}

}  // namespace trace
}  // namespace rtec
