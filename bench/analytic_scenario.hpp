#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "canbus/fault.hpp"
#include "canbus/frame.hpp"
#include "core/hrtec.hpp"
#include "core/scenario.hpp"
#include "trace/histogram.hpp"

/// \file analytic_scenario.hpp
/// Shared simulation harness for cross-validating the analytic engine
/// (sched/prob_rta) against the simulator. One HRT channel, sole publisher,
/// random omission faults; the observed ready→end-of-frame latency of every
/// successful instance lands in a histogram whose buckets are aligned to
/// the bus bit time, so Histogram::quantile returns *exact* simulated
/// latencies (every latency in this scenario is a whole number of bit
/// times: the submit fires at the slot's ready time, arbitration is
/// zero-delay, and each corrupted attempt charges whole bits).
///
/// Used by bench_analytic (the paired analytic-vs-sim experiment) and
/// tests/test_prob_rta.cpp (the gated differential test) so both see the
/// same scenario by construction.

namespace rtec::bench {

struct AnalyticScenarioConfig {
  int dlc = 8;
  int omission_degree = 2;   ///< provisioned k (slot window sized for it)
  double fault_rate = 0.15;  ///< per-attempt omission probability p
  /// Pin every error to a fixed fraction of the frame (1.0 = last bit,
  /// matching the analytic engine's worst_case_position exactly); nullopt
  /// keeps the default uniform error position.
  std::optional<double> fixed_fault_position;
  int rounds = 2000;
  std::uint64_t seed = 11;
};

struct AnalyticScenarioResult {
  /// Ready→successful-end-of-frame latency (ns), bit-time-aligned buckets.
  /// Placeholder range (Histogram requires hi > lo); run_analytic_scenario
  /// replaces it with the bit-time grid.
  Histogram latency{0.0, 1.0, 1};
  std::uint64_t delivered = 0;  ///< successful instances (histogram count)
  std::uint64_t failures = 0;   ///< fault assumption violated (> k faults)
  int frame_bits = 0;           ///< wire bits of the actual published frame
};

/// Runs the scenario for `cfg.rounds` periodic instances and returns the
/// simulated latency distribution. Deterministic per (config, seed).
inline AnalyticScenarioResult run_analytic_scenario(
    const AnalyticScenarioConfig& cfg) {
  using namespace rtec::literals;

  Scenario::Config scfg;
  scfg.calendar.round_length = 5_ms;
  Scenario scn{scfg};
  Node::ClockParams perfect;
  perfect.granularity = 1_ns;
  Node& pub_node = scn.add_node(1, perfect);
  scn.add_node(2, perfect);

  const Subject subject = subject_of("analytic/hrt");
  SlotSpec slot;
  slot.lst_offset = 2_ms;
  slot.dlc = cfg.dlc;
  slot.fault.omission_degree = cfg.omission_degree;
  slot.etag = *scn.binding().bind(subject);
  slot.publisher = pub_node.id();
  const std::size_t slot_index = *scn.calendar().reserve(slot);

  scn.set_fault_model(std::make_unique<RandomOmissionFaults>(
      cfg.fault_rate, cfg.seed, cfg.fixed_fault_position));

  AnalyticScenarioResult out;
  Hrtec pub{pub_node.middleware()};
  (void)pub.announce(subject, {}, [&](const ExceptionInfo& e) {
    if (e.error == ChannelError::kTransmissionFailed) ++out.failures;
  });

  // Bit-time buckets from 0: a latency of exactly b bit times falls in
  // bucket b and quantile() reports its lower edge — the exact value.
  // 4096 bits is comfortably above any k ≤ kMaxOmissionDegree/16 window.
  const double bit_ns = static_cast<double>(scn.bus().config().bit_time().ns());
  out.latency = Histogram{0.0, bit_ns * 4096.0, 4096};

  TimePoint window_ready;
  scn.bus().add_observer([&](const CanBus::FrameEvent& ev) {
    if (id_priority(ev.frame.id) != kHrtPriority || !ev.success) return;
    if (out.frame_bits == 0) out.frame_bits = frame_wire_bits(ev.frame);
    ++out.delivered;
    out.latency.add(ev.end - window_ready);
  });

  for (int r = 0; r < cfg.rounds; ++r) {
    const Calendar::Instance inst = scn.calendar().instance_at_or_after(
        slot_index, TimePoint::origin() + scfg.calendar.round_length * r);
    window_ready = inst.ready;
    scn.sim().schedule_at(inst.ready - 10_us, [&pub, &cfg] {
      Event e;
      e.content.assign(static_cast<std::size_t>(cfg.dlc), 0x00);
      (void)pub.publish(std::move(e));
    });
    scn.run_until(inst.deadline + 1_ms);
  }
  return out;
}

}  // namespace rtec::bench
