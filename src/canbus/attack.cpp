#include "canbus/attack.hpp"

#include <algorithm>
#include <cassert>

#include "sched/id_codec.hpp"

namespace rtec {

bool AttackModel::inject(const AttackContext& ctx, const CanFrame& frame) {
  assert(ctx.attacker != nullptr);
  // Single-shot: a real attacker that loses the slot it stole gains
  // nothing from the controller babbling retransmissions forever, and
  // single-shot keeps each injection's bus occupancy bounded.
  const auto mb = ctx.attacker->submit(
      frame, TxMode::kSingleShot,
      [this](CanController::MailboxId, const CanFrame&, bool success,
             TimePoint) {
        if (success) ++delivered_;
      });
  if (!mb) return false;
  ++injected_;
  return true;
}

// ---------------------------------------------------------------- spoofing

void SpoofingAttack::arm(const AttackContext& ctx) {
  assert(ctx.sim != nullptr && ctx.attacker != nullptr);
  assert(cfg_.period > Duration::zero());
  rng_ = Rng{ctx.seed};
  ctx.sim->schedule_at(cfg_.from, [this, ctx] { fire(ctx, cfg_.from); });
}

void SpoofingAttack::fire(const AttackContext& ctx, TimePoint slot) {
  if (slot >= cfg_.to) return;
  // Per-injection phase noise in [0, jitter] after the nominal point. The
  // draw is consumed even when jitter is zero so the injection *pattern*
  // of a given seed is invariant under jitter configuration.
  const std::int64_t noise =
      rng_.uniform_int(0, std::max<std::int64_t>(cfg_.jitter.ns(), 0));
  CanFrame f;
  f.id = cfg_.id;
  f.dlc = kDlc;
  ctx.sim->schedule_at(slot + Duration::nanoseconds(noise),
                       [this, ctx, f] { (void)inject(ctx, f); });
  const TimePoint next = slot + cfg_.period;
  ctx.sim->schedule_at(next, [this, ctx, next] { fire(ctx, next); });
}

// ----------------------------------------------------------------- fuzzing

void FuzzingAttack::arm(const AttackContext& ctx) {
  assert(ctx.sim != nullptr && ctx.attacker != nullptr);
  assert(cfg_.mean_gap > Duration::zero());
  rng_ = Rng{ctx.seed};
  ctx.sim->schedule_at(cfg_.from, [this, ctx] { fire(ctx); });
}

void FuzzingAttack::fire(const AttackContext& ctx) {
  if (ctx.sim->now() >= cfg_.to) return;
  CanIdFields fields;
  fields.priority = static_cast<Priority>(
      rng_.uniform_int(kSrtPriorityMin, kNrtPriorityMax));
  fields.tx_node = static_cast<NodeId>(rng_.uniform_int(0, kMaxNodeId));
  fields.etag = static_cast<Etag>(
      rng_.uniform_int(kFirstApplicationEtag, kMaxEtag));
  CanFrame f;
  f.id = encode_can_id(fields);
  f.dlc = static_cast<std::uint8_t>(rng_.uniform_int(0, 8));
  for (std::size_t i = 0; i < f.dlc; ++i)
    f.data[i] = static_cast<std::uint8_t>(rng_.uniform_int(0, 255));
  (void)inject(ctx, f);

  const auto gap = static_cast<std::int64_t>(
      rng_.exponential(static_cast<double>(cfg_.mean_gap.ns())));
  ctx.sim->schedule_after(Duration::nanoseconds(std::max<std::int64_t>(gap, 1)),
                          [this, ctx] { fire(ctx); });
}

// ------------------------------------------------------------------ replay

void ReplayAttack::arm(const AttackContext& ctx) {
  assert(ctx.sim != nullptr && ctx.bus != nullptr && ctx.attacker != nullptr);
  assert(cfg_.record_from <= cfg_.record_to);
  assert(cfg_.replay_at >= cfg_.record_to &&
         "replay must start after the recording window closes");
  tape_.reserve(kMaxFrames);
  const NodeId self = ctx.attacker->node();
  ctx.bus->add_observer([this, self](const CanBus::FrameEvent& ev) {
    if (!ev.success || ev.sender == self) return;
    if (ev.end < cfg_.record_from || ev.end >= cfg_.record_to) return;
    if ((ev.frame.id & cfg_.id_mask) != (cfg_.id_match & cfg_.id_mask)) return;
    if (tape_.size() >= kMaxFrames) return;
    tape_.push_back({ev.frame, ev.end - cfg_.record_from});
  });
  // The tape is complete when replay_at arrives (replay_at >= record_to).
  ctx.sim->schedule_at(cfg_.replay_at, [this, ctx] {
    for (const Recorded& r : tape_) {
      const CanFrame f = r.frame;
      ctx.sim->schedule_at(cfg_.replay_at + r.offset,
                           [this, ctx, f] { (void)inject(ctx, f); });
    }
  });
}

// -------------------------------------------------------------- suspension

void SuspensionAttack::arm(const AttackContext& ctx) {
  assert(ctx.sim != nullptr);
  assert(cfg_.from <= cfg_.to);
  ctx.sim->schedule_at(cfg_.from, [this, ctx] {
    if (CanController* victim =
            ctx.victim_controller ? ctx.victim_controller(cfg_.victim)
                                  : nullptr)
      victim->set_online(false);
  });
  ctx.sim->schedule_at(cfg_.to, [this, ctx] {
    if (CanController* victim =
            ctx.victim_controller ? ctx.victim_controller(cfg_.victim)
                                  : nullptr)
      victim->set_online(true);
  });
}

}  // namespace rtec
