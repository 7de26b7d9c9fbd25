#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/crc15.hpp"
#include "util/expected.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/task_pool.hpp"
#include "util/time_types.hpp"

namespace rtec {
namespace {

using literals::operator""_ns;
using literals::operator""_us;
using literals::operator""_ms;
using literals::operator""_s;

// ---------------------------------------------------------------- time types

TEST(TimeTypes, DurationFactoriesAgree) {
  EXPECT_EQ(Duration::microseconds(1).ns(), 1000);
  EXPECT_EQ(Duration::milliseconds(1).ns(), 1'000'000);
  EXPECT_EQ(Duration::seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ((1_us).ns(), 1000);
  EXPECT_EQ((1_ms).ns(), 1'000'000);
  EXPECT_EQ((1_s).ns(), 1'000'000'000);
}

TEST(TimeTypes, Arithmetic) {
  const TimePoint t = TimePoint::origin() + 5_ms;
  EXPECT_EQ((t + 3_ms).ns(), 8'000'000);
  EXPECT_EQ((t - 2_ms).ns(), 3'000'000);
  EXPECT_EQ((t - TimePoint::origin()).ns(), 5'000'000);
  EXPECT_EQ((10_us * 3).ns(), 30'000);
  EXPECT_EQ(10_us / 2_us, 5);
  EXPECT_EQ((10_us % 3_us).ns(), 1000);
}

TEST(TimeTypes, Comparisons) {
  EXPECT_LT(1_us, 2_us);
  EXPECT_GT(TimePoint::max(), TimePoint::origin());
  EXPECT_EQ(Duration::zero(), 0_ns);
  EXPECT_LT(-Duration::microseconds(1), Duration::zero());
}

TEST(TimeTypes, ConversionsToFloating) {
  EXPECT_DOUBLE_EQ((1500_ns).us(), 1.5);
  EXPECT_DOUBLE_EQ((2500_us).ms(), 2.5);
  EXPECT_DOUBLE_EQ((1500_ms).sec(), 1.5);
}

// ------------------------------------------------------------------ expected

TEST(Expected, ValueAndError) {
  Expected<int, const char*> ok = 42;
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(-1), 42);

  Expected<int, const char*> bad = Unexpected{"nope"};
  ASSERT_FALSE(bad.has_value());
  EXPECT_STREQ(bad.error(), "nope");
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(Expected, VoidSpecialization) {
  Expected<void, int> ok;
  EXPECT_TRUE(ok.has_value());
  Expected<void, int> bad = Unexpected{7};
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), 7);
}

// --------------------------------------------------------------------- bytes

TEST(Bytes, RoundTripScalars) {
  std::uint8_t buf[8]{};
  store_le16(buf, 0xbeef);
  EXPECT_EQ(load_le16(buf), 0xbeef);
  store_le32(buf, 0xdeadbeef);
  EXPECT_EQ(load_le32(buf), 0xdeadbeefu);
  store_le64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(load_le64(buf), 0x0123456789abcdefULL);
  store_le_i64(buf, -42);
  EXPECT_EQ(load_le_i64(buf), -42);
}

TEST(Bytes, LittleEndianLayout) {
  std::uint8_t buf[4]{};
  store_le32(buf, 0x11223344);
  EXPECT_EQ(buf[0], 0x44);
  EXPECT_EQ(buf[3], 0x11);
}

// ----------------------------------------------------------------------- rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a{12345};
  Rng b{12345};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng r{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng r{3};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = r.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliFrequency) {
  Rng r{11};
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng r{13};
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

// --------------------------------------------------------------------- stats

TEST(OnlineStats, MomentsAndExtrema) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.span(), 7.0);
}

TEST(OnlineStats, EmptyAndSingle) {
  OnlineStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.span(), 0.0);
}

TEST(SampleSet, Quantiles) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.0, 1.0);
  EXPECT_NEAR(s.quantile(0.9), 90.0, 1.5);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleSet, AddAfterQuantileStaysCorrect) {
  SampleSet s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);  // nearest-rank rounds up for 2 samples
  s.add(2.0);
  // Re-sorting must happen even though quantile() was called before.
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

// ----------------------------------------------------------------- task pool

TEST(TaskPool, AddressesStayStableAcrossGrowth) {
  TaskPool pool;
  std::vector<std::function<void()>*> ptrs;
  for (int i = 0; i < 100; ++i) ptrs.push_back(pool.make());
  int sum = 0;
  for (int i = 0; i < 100; ++i) {
    *ptrs[static_cast<std::size_t>(i)] = [&sum, i] { sum += i; };
  }
  for (auto* p : ptrs) (*p)();
  EXPECT_EQ(sum, 99 * 100 / 2);
  EXPECT_EQ(pool.size(), 100u);
}

TEST(TaskPool, SelfReferencingTaskTerminatesAndIsReclaimed) {
  // The intended pattern: a callable that re-invokes itself through its
  // own stable address, owned by the pool (no shared_ptr cycle).
  TaskPool pool;
  int count = 0;
  auto* loop = pool.make();
  *loop = [&count, loop] {
    if (++count < 5) (*loop)();
  };
  (*loop)();
  EXPECT_EQ(count, 5);
}  // pool destruction frees the callable: LeakSanitizer-clean by design

// --------------------------------------------------------------------- crc15

TEST(Crc15, KnownProperties) {
  // CRC of all-zero input is zero (the register never sees a 1).
  bool zeros[32]{};
  EXPECT_EQ(crc15(zeros), 0);
  // Any single-bit change must change the CRC (linear code, nonzero poly).
  bool bits[32]{};
  bits[7] = true;
  EXPECT_NE(crc15(bits), crc15(zeros));
}

TEST(Crc15, DetectsBitFlips) {
  Rng r{99};
  for (int trial = 0; trial < 200; ++trial) {
    bool bits[64];
    for (bool& b : bits) b = r.bernoulli(0.5);
    const std::uint16_t base = crc15(bits);
    const auto flip = static_cast<std::size_t>(r.uniform_int(0, 63));
    bits[flip] = !bits[flip];
    EXPECT_NE(crc15(bits), base) << "single-bit flip undetected";
  }
}

TEST(Crc15, FifteenBitRange) {
  Rng r{5};
  for (int trial = 0; trial < 100; ++trial) {
    bool bits[100];
    for (bool& b : bits) b = r.bernoulli(0.5);
    EXPECT_LT(crc15(bits), 1u << 15);
  }
}

}  // namespace
}  // namespace rtec
