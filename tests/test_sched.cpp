#include <gtest/gtest.h>

#include "sched/calendar.hpp"
#include "sched/id_codec.hpp"
#include "sched/priority_map.hpp"
#include "sched/wctt.hpp"

namespace rtec {
namespace {

using literals::operator""_ns;
using literals::operator""_us;
using literals::operator""_ms;

// ------------------------------------------------------------------ id codec

TEST(IdCodec, RoundTrip) {
  for (const CanIdFields f : {CanIdFields{0, 0, 0}, CanIdFields{255, 127, 16383},
                              CanIdFields{7, 42, 1234}}) {
    EXPECT_EQ(decode_can_id(encode_can_id(f)), f);
  }
}

TEST(IdCodec, PriorityOccupiesTopBits) {
  // A lower priority value must always produce a lower (= more dominant)
  // identifier, regardless of TxNode and etag.
  const std::uint32_t hi = encode_can_id({5, 127, kMaxEtag});
  const std::uint32_t lo = encode_can_id({6, 0, 0});
  EXPECT_LT(hi, lo);
}

TEST(IdCodec, TxNodeBreaksTiesWithinPriority) {
  const std::uint32_t a = encode_can_id({10, 3, kMaxEtag});
  const std::uint32_t b = encode_can_id({10, 4, 0});
  EXPECT_LT(a, b);
}

TEST(IdCodec, FitsIn29Bits) {
  EXPECT_LE(encode_can_id({255, 127, kMaxEtag}), kMaxExtendedId);
}

TEST(IdCodec, ClassRanges) {
  EXPECT_EQ(classify_priority(0), TrafficClass::kHrt);
  EXPECT_EQ(classify_priority(1), TrafficClass::kSrt);
  EXPECT_EQ(classify_priority(250), TrafficClass::kSrt);
  EXPECT_EQ(classify_priority(251), TrafficClass::kNrt);
  EXPECT_EQ(classify_priority(255), TrafficClass::kNrt);
}

TEST(IdCodec, PriorityRelationHrtSrtNrt) {
  // 0 <= P_HRT < P_SRT < P_NRT (§3.3): any HRT id beats any SRT id beats
  // any NRT id on the bus.
  const std::uint32_t hrt = encode_can_id({kHrtPriority, 127, kMaxEtag});
  const std::uint32_t srt = encode_can_id({kSrtPriorityMin, 0, 0});
  const std::uint32_t nrt = encode_can_id({kNrtPriorityMin, 0, 0});
  EXPECT_LT(hrt, srt);
  EXPECT_LT(encode_can_id({kSrtPriorityMax, 127, kMaxEtag}), nrt);
}

// ---------------------------------------------------------------------- wctt

TEST(Wctt, FaultFreeEqualsWorstCaseFrame) {
  const BusConfig bus{1'000'000};
  EXPECT_EQ(hrt_wctt(8, {0}, bus).ns(),
            worst_case_frame_duration(8, true, bus).ns());
}

TEST(Wctt, EachOmissionAddsFailedAttempt) {
  const BusConfig bus{1'000'000};
  const Duration base = hrt_wctt(4, {0}, bus);
  const Duration one = hrt_wctt(4, {1}, bus);
  const Duration two = hrt_wctt(4, {2}, bus);
  const Duration failed_attempt = one - base;
  EXPECT_EQ((two - one).ns(), failed_attempt.ns());
  // A failed attempt costs at most a full frame + error frame + intermission.
  EXPECT_EQ(failed_attempt.ns(),
            (worst_case_wire_bits(4, true) + kErrorFrameBits + kIntermissionBits) *
                1000);
}

TEST(Wctt, BlockingTimeIsLongestFramePlusIntermission) {
  const BusConfig bus{1'000'000};
  EXPECT_EQ(max_blocking_time(bus).ns(),
            (worst_case_wire_bits(8, true) + kIntermissionBits) * 1000);
}

TEST(Wctt, SlotWindowComposition) {
  const BusConfig bus{1'000'000};
  EXPECT_EQ(hrt_slot_window(8, {2}, bus).ns(),
            (max_blocking_time(bus) + hrt_wctt(8, {2}, bus)).ns());
}

// ------------------------------------------------------------------ calendar

Calendar::Config cal_cfg(Duration round = 10_ms, Duration gap = 40_us) {
  Calendar::Config cfg;
  cfg.round_length = round;
  cfg.gap = gap;
  cfg.bus = BusConfig{1'000'000};
  return cfg;
}

SlotSpec slot_at(Duration lst, Etag etag = 10, NodeId pub = 1, int dlc = 8,
                 int k = 0) {
  SlotSpec s;
  s.lst_offset = lst;
  s.dlc = dlc;
  s.fault.omission_degree = k;
  s.etag = etag;
  s.publisher = pub;
  return s;
}

TEST(Calendar, AcceptsDisjointSlots) {
  Calendar cal{cal_cfg()};
  EXPECT_TRUE(cal.reserve(slot_at(500_us, 10)).has_value());
  EXPECT_TRUE(cal.reserve(slot_at(2_ms, 11)).has_value());
  EXPECT_TRUE(cal.reserve(slot_at(5_ms, 12)).has_value());
  EXPECT_EQ(cal.size(), 3u);
}

TEST(Calendar, RejectsOverlap) {
  Calendar cal{cal_cfg()};
  ASSERT_TRUE(cal.reserve(slot_at(1_ms, 10)).has_value());
  const auto r = cal.reserve(slot_at(1_ms + 100_us, 11));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), AdmissionError::kOverlap);
}

TEST(Calendar, RejectsIdenticalWindows) {
  Calendar cal{cal_cfg()};
  ASSERT_TRUE(cal.reserve(slot_at(1_ms, 10)).has_value());
  EXPECT_FALSE(cal.reserve(slot_at(1_ms, 11)).has_value());
}

TEST(Calendar, RejectsContainedWindow) {
  Calendar cal{cal_cfg()};
  // Big window (k=3) containing a small one.
  ASSERT_TRUE(cal.reserve(slot_at(2_ms, 10, 1, 8, 3)).has_value());
  EXPECT_FALSE(cal.reserve(slot_at(2_ms + 200_us, 11, 2, 0, 0)).has_value());
}

TEST(Calendar, EnforcesMinimumGap) {
  Calendar cal{cal_cfg(10_ms, 40_us)};
  ASSERT_TRUE(cal.reserve(slot_at(1_ms, 10)).has_value());
  const SlotTiming t0 = cal.timing(0);
  // A slot whose ready time is only 10 us after slot 0's deadline: rejected.
  const Duration lst_bad = t0.deadline_offset + 10_us + cal.t_wait();
  EXPECT_FALSE(cal.reserve(slot_at(lst_bad, 11)).has_value());
  // With a 50 us gap it fits.
  const Duration lst_ok = t0.deadline_offset + 50_us + cal.t_wait();
  EXPECT_TRUE(cal.reserve(slot_at(lst_ok, 11)).has_value());
}

TEST(Calendar, RejectsWindowOutsideRound) {
  Calendar cal{cal_cfg()};
  // LST too early: ready = LST - t_wait < 0.
  const auto early = cal.reserve(slot_at(50_us, 10));
  ASSERT_FALSE(early.has_value());
  EXPECT_EQ(early.error(), AdmissionError::kWindowOutsideRound);
  // Deadline beyond the round.
  const auto late = cal.reserve(slot_at(10_ms - 50_us, 11));
  ASSERT_FALSE(late.has_value());
  EXPECT_EQ(late.error(), AdmissionError::kWindowOutsideRound);
}

TEST(Calendar, RejectsBadSpecs) {
  Calendar cal{cal_cfg()};
  SlotSpec s = slot_at(1_ms);
  s.dlc = 9;
  EXPECT_EQ(cal.reserve(s).error(), AdmissionError::kBadSpec);
  s = slot_at(1_ms);
  s.fault.omission_degree = -1;
  EXPECT_EQ(cal.reserve(s).error(), AdmissionError::kBadSpec);
}

TEST(Calendar, TimingDerivation) {
  Calendar cal{cal_cfg()};
  ASSERT_TRUE(cal.reserve(slot_at(1_ms, 10, 1, 8, 2)).has_value());
  const SlotTiming t = cal.timing(0);
  EXPECT_EQ(t.lst_offset.ns(), (1_ms).ns());
  EXPECT_EQ((t.lst_offset - t.ready_offset).ns(), cal.t_wait().ns());
  EXPECT_EQ((t.deadline_offset - t.lst_offset).ns(),
            hrt_wctt(8, {2}, cal.config().bus).ns());
}

TEST(Calendar, InstanceIteration) {
  Calendar cal{cal_cfg(10_ms)};
  ASSERT_TRUE(cal.reserve(slot_at(1_ms, 10)).has_value());
  const auto first = cal.instance_at_or_after(0, TimePoint::origin());
  EXPECT_EQ(first.round, 0u);
  EXPECT_EQ(first.lst.ns(), (1_ms).ns());
  // Just after the first ready time, the next instance is one round later.
  const auto second = cal.instance_at_or_after(0, first.ready + 1_ns);
  EXPECT_EQ(second.round, 1u);
  EXPECT_EQ(second.lst.ns(), (11_ms).ns());
  // Far in the future.
  const auto far = cal.instance_at_or_after(
      0, TimePoint::origin() + Duration::seconds(1));
  EXPECT_EQ(far.round, 100u);
}

TEST(Calendar, SubRateSlotInstances) {
  Calendar cal{cal_cfg(10_ms)};
  SlotSpec s = slot_at(1_ms, 10);
  s.period_rounds = 3;
  s.phase_round = 1;
  ASSERT_TRUE(cal.reserve(s).has_value());
  // First instance in round 1, then rounds 4, 7, ...
  const auto first = cal.instance_at_or_after(0, TimePoint::origin());
  EXPECT_EQ(first.round, 1u);
  EXPECT_EQ(first.lst.ns(), (11_ms).ns());
  const auto second = cal.instance_at_or_after(0, first.ready + 1_ns);
  EXPECT_EQ(second.round, 4u);
  EXPECT_EQ(second.lst.ns(), (41_ms).ns());
  // Querying from far ahead lands on the right phase.
  const auto far = cal.instance_at_or_after(
      0, TimePoint::origin() + Duration::milliseconds(95));
  EXPECT_EQ(far.round, 10u);
}

TEST(Calendar, SubRateSpecValidation) {
  Calendar cal{cal_cfg()};
  SlotSpec s = slot_at(1_ms, 10);
  s.period_rounds = 0;
  EXPECT_EQ(cal.reserve(s).error(), AdmissionError::kBadSpec);
  s.period_rounds = 2;
  s.phase_round = 2;  // phase must be < period
  EXPECT_EQ(cal.reserve(s).error(), AdmissionError::kBadSpec);
  s.phase_round = 1;
  EXPECT_TRUE(cal.reserve(s).has_value());
}

TEST(Calendar, ReservedFractionAccounting) {
  Calendar cal{cal_cfg(10_ms, 40_us)};
  ASSERT_TRUE(cal.reserve(slot_at(1_ms, 10)).has_value());
  const SlotTiming t = cal.timing(0);
  const double expect =
      static_cast<double>((t.deadline_offset - t.ready_offset + 40_us).ns()) /
      1e7;
  EXPECT_NEAR(cal.reserved_fraction(), expect, 1e-12);
}

// -------------------------------------------------------------- priority map

DeadlinePriorityMap map_with(Duration slot, Priority pmin = 1,
                             Priority pmax = 250) {
  DeadlinePriorityMap::Config cfg;
  cfg.p_min = pmin;
  cfg.p_max = pmax;
  cfg.slot_length = slot;
  return DeadlinePriorityMap{cfg};
}

TEST(PriorityMap, CloserDeadlineHigherPriority) {
  const auto map = map_with(100_us);
  const TimePoint now = TimePoint::origin();
  const Priority near = map.priority_for(now, now + 150_us);
  const Priority far = map.priority_for(now, now + 950_us);
  EXPECT_LT(near, far);
}

TEST(PriorityMap, BandBoundaries) {
  const auto map = map_with(100_us);
  const TimePoint now = TimePoint::origin();
  // laxity in (0, 100us] -> band p_min.
  EXPECT_EQ(map.priority_for(now, now + 1_ns), 1);
  EXPECT_EQ(map.priority_for(now, now + 100_us), 1);
  // laxity just over one slot -> next band.
  EXPECT_EQ(map.priority_for(now, now + 100_us + 1_ns), 2);
  EXPECT_EQ(map.priority_for(now, now + 200_us), 2);
}

TEST(PriorityMap, OverdueMapsToMostUrgent) {
  const auto map = map_with(100_us);
  const TimePoint now = TimePoint::origin() + 10_ms;
  EXPECT_EQ(map.priority_for(now, now - 5_ms), 1);
  EXPECT_EQ(map.priority_for(now, now), 1);
}

TEST(PriorityMap, HorizonSaturation) {
  const auto map = map_with(100_us, 1, 10);
  const TimePoint now = TimePoint::origin();
  EXPECT_EQ(map.horizon().ns(), (1_ms).ns());  // 10 bands * 100 us
  // Beyond the horizon everything collapses to p_max — the incorrect-order
  // hazard the paper discusses.
  EXPECT_EQ(map.priority_for(now, now + 2_ms), 10);
  EXPECT_EQ(map.priority_for(now, now + 100_ms), 10);
}

TEST(PriorityMap, PromotionInstantsWalkTheBoundaries) {
  const auto map = map_with(100_us);
  const TimePoint now = TimePoint::origin();
  const TimePoint deadline = now + 350_us;  // band 4 (laxity in (300,400])
  EXPECT_EQ(map.priority_for(now, deadline), 4);
  const TimePoint p1 = map.next_promotion(now, deadline);
  EXPECT_EQ(p1.ns(), (deadline - 300_us).ns());
  EXPECT_EQ(map.priority_for(p1, deadline), 3);
  const TimePoint p2 = map.next_promotion(p1, deadline);
  EXPECT_EQ(p2.ns(), (deadline - 200_us).ns());
  const TimePoint p3 = map.next_promotion(p2, deadline);
  EXPECT_EQ(p3.ns(), (deadline - 100_us).ns());
  EXPECT_EQ(map.priority_for(p3, deadline), 1);
  EXPECT_EQ(map.next_promotion(p3, deadline).ns(), TimePoint::max().ns());
}

TEST(PriorityMap, MonotoneNonDecreasingUrgencyOverTime) {
  const auto map = map_with(130_us);
  const TimePoint deadline = TimePoint::origin() + 7'777_us;
  Priority prev = 255;
  for (std::int64_t t = 0; t <= 8'000; t += 37) {
    const TimePoint now = TimePoint::origin() + Duration::microseconds(t);
    const Priority p = map.priority_for(now, deadline);
    if (now <= deadline || true) {
      // Priority value must never increase as time advances.
      EXPECT_LE(p, prev) << "at t=" << t;
      prev = p;
    }
  }
  EXPECT_EQ(prev, 1);  // ends at the most urgent band
}

}  // namespace
}  // namespace rtec
