#include <gtest/gtest.h>

#include "trace/binary.hpp"
#include "trace/histogram.hpp"
#include "util/stats.hpp"

namespace rtec {
namespace {

// ------------------------------------------------------------ bus recorder

struct RecorderFixture : ::testing::Test {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController a{sim, 1};
  CanController b{sim, 2};
  trace::RtebWriter rec{0};

  void SetUp() override {
    bus.attach(a);
    bus.attach(b);
    bus.add_observer(
        [this](const CanBus::FrameEvent& ev) { rec.add_frame(ev); });
  }

  void send(std::uint32_t id) {
    CanFrame f;
    f.id = id;
    f.dlc = 1;
    (void)a.submit(f, TxMode::kAutoRetransmit);
  }
};

TEST_F(RecorderFixture, RecordsEveryOccupancyIncludingErrors) {
  ScriptedFaults faults;
  faults.add_rule([](const FaultContext& ctx) { return ctx.attempt == 1; });
  bus.set_fault_model(&faults);
  send(0x100);
  sim.run();
  auto reader = trace::RtebReader::open(rec.bytes());
  ASSERT_TRUE(reader.has_value()) << reader.error();
  const auto records = reader->read_all();
  ASSERT_TRUE(records.has_value()) << records.error();
  ASSERT_EQ(records->size(), 2u);  // corrupted attempt + good retry
  const auto& bad = (*records)[0];
  const auto& good = (*records)[1];
  ASSERT_EQ(bad.kind, trace::RtebKind::kFrame);
  ASSERT_EQ(good.kind, trace::RtebKind::kFrame);
  EXPECT_FALSE(bad.frame.success);
  EXPECT_TRUE(good.frame.success);
  EXPECT_EQ(bad.frame.attempt, 1);
  EXPECT_EQ(good.frame.attempt, 2);
  EXPECT_EQ(good.frame.frame.id, 0x100u);
}

// --------------------------------------------------------------- histogram

TEST(HistogramTest, BucketsAndOverflow) {
  Histogram h{0, 100, 10};
  for (double x : {5.0, 15.0, 15.5, 99.0, -1.0, 150.0}) h.add(x);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(HistogramTest, RenderShowsOnlyNonEmptyBuckets) {
  Histogram h{0, 1000, 10};
  for (int i = 0; i < 20; ++i) h.add(150.0);
  h.add(950.0);
  const std::string text = h.render(/*unit_scale=*/1.0, " us");
  EXPECT_NE(text.find("[100.0..200.0) us"), std::string::npos);
  EXPECT_NE(text.find("[900.0..1000.0) us"), std::string::npos);
  EXPECT_EQ(text.find("[0.0..100.0)"), std::string::npos);  // empty bucket
  // The dominant bucket has the longest bar.
  EXPECT_NE(text.find("####"), std::string::npos);
}

TEST(HistogramTest, QuantileOfEmptyHistogramIsZero) {
  const Histogram h{0, 100, 10};
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(HistogramTest, QuantileSingleBucketReportsItsLowerEdge) {
  Histogram h{10, 20, 1};
  for (double x : {11.0, 14.0, 19.9}) h.add(x);
  for (double q : {0.0, 0.5, 1.0}) EXPECT_DOUBLE_EQ(h.quantile(q), 10.0);
}

TEST(HistogramTest, QuantileSaturatedOverflowReportsHi) {
  Histogram h{0, 10, 2};
  for (int i = 0; i < 5; ++i) h.add(100.0);  // everything overflows
  for (double q : {0.0, 0.5, 1.0}) EXPECT_DOUBLE_EQ(h.quantile(q), 10.0);
  // One in-range sample: the low ranks find it, the top ranks saturate.
  h.add(1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

TEST(HistogramTest, QuantileUnderflowReportsLo) {
  Histogram h{10, 20, 2};
  h.add(-5.0);
  h.add(12.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);  // underflow clamps to lo
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);  // 12 lives in bucket [10,15)
}

TEST(HistogramTest, QuantileMonotoneUnderAdversarialBoundaries) {
  // Samples exactly on bucket boundaries, plus under- and overflow: the
  // quantile must still be a monotone step function of q.
  Histogram h{0, 8, 4};
  for (double x : {-1.0, 0.0, 2.0, 2.0, 4.0, 6.0, 8.0, 9.0}) h.add(x);
  double prev = h.quantile(0.0);
  for (double q = 0.0; q <= 1.0; q += 0.005) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);
}

TEST(HistogramTest, QuantileAgreesWithSampleSetOnGridSamples) {
  // When samples sit exactly on the bucket grid the histogram quantile is
  // exact — same nearest-rank convention (util/stats quantile_rank), same
  // values. This is the property bench_analytic relies on.
  Histogram h{0, 1000, 100};
  SampleSet s;
  for (int i = 0; i < 500; ++i) {
    const double x = static_cast<double>((i * 37) % 100) * 10.0;
    h.add(x);
    s.add(x);
  }
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile(q), s.quantile(q)) << "q=" << q;
}

}  // namespace
}  // namespace rtec
