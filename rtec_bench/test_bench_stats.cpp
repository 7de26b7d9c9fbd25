// Tests of rtec_bench's statistics helpers on hand-computed cases. The
// expected quartiles are those of Python's statistics.quantiles(v, n=4),
// which compare.py uses on the same samples.

#include <cmath>
#include <cstdio>
#include <vector>

#include "rtec_bench/spans.hpp"
#include "rtec_bench/stats.hpp"

using namespace rtec::bench;

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "test_bench_stats:%d: FAILED %s\n", line, what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

#define EXPECT(cond) expect((cond), #cond, __LINE__)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_median() {
  EXPECT(near(median({3, 1, 2}), 2.0));
  EXPECT(near(median({4, 1, 3, 2}), 2.5));
  EXPECT(near(median({7}), 7.0));
  EXPECT(near(median({}), 0.0));
}

void test_quartiles() {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles(one_to(10));
  EXPECT(near(q.q1, 2.75));
  EXPECT(near(q.q3, 8.25));
  EXPECT(near(q.iqr(), 5.5));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles two = quartiles({2, 1});
  EXPECT(near(two.q1, 0.75));
  EXPECT(near(two.q3, 2.25));
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  const Quartiles five = quartiles(one_to(5));
  EXPECT(near(five.q1, 1.5));
  EXPECT(near(five.q3, 4.5));
  const Quartiles single = quartiles({5});
  EXPECT(near(single.q1, 5.0) && near(single.q3, 5.0) && near(single.iqr(), 0.0));
}

void test_tail_percentile() {
  // 1..100: p99.9 and p99 have 0 and 1 samples beyond them; p90 (rank 89,
  // value 90) is the highest with 10 beyond.
  const auto t100 = tail_percentile(one_to(100));
  EXPECT(t100.has_value());
  EXPECT(t100 && near(t100->q, 0.9) && near(t100->value, 90.0) && t100->beyond == 10);
  // 1..1000: p99 (rank 989, value 990) leaves exactly 10 beyond.
  const auto t1000 = tail_percentile(one_to(1000));
  EXPECT(t1000 && near(t1000->q, 0.99) && near(t1000->value, 990.0) && t1000->beyond == 10);
  // 1..21: only the median (value 11) has 10 beyond.
  const auto t21 = tail_percentile(one_to(21));
  EXPECT(t21 && near(t21->q, 0.5) && near(t21->value, 11.0));
  // Too few samples for any percentile with 10 beyond.
  EXPECT(!tail_percentile(one_to(20)).has_value());
}

void test_histogram() {
  LogLinearHistogram h;
  for (const std::uint64_t v : {1u, 2u, 3u}) h.add(v);
  EXPECT(h.count() == 3 && h.sum() == 6);
  EXPECT(near(h.quantile(0.5), 2.0));  // exact below 32
  // 100 = 0b1100100: top bit 6, shift 1, sub-bucket (100 >> 1) - 32 = 18,
  // covering [100, 102); reported as the midpoint 100.5.
  EXPECT(LogLinearHistogram::bucket(100) == 32 + 32 + 18);
  EXPECT(LogLinearHistogram::lower_bound(82) == 100);
  LogLinearHistogram big;
  big.add(100);
  EXPECT(near(big.quantile(0.5), 100.5));
  h.merge(big);
  EXPECT(h.count() == 4 && h.sum() == 106);
  EXPECT(near(h.quantile(1.0), 100.5));
}

void test_self_time() {
  // root [0,100] has children A [10,30], B [20,50] (overlapping A) and
  // C [90,120] (clipped at 100); A has a child [12,15].
  const std::vector<Span> spans = {
      {"root", 0, 100, -1}, {"A", 10, 30, 0}, {"B", 20, 50, 0},
      {"C", 90, 120, 0},    {"a1", 12, 15, 1},
  };
  const std::vector<std::uint64_t> self = self_times(spans);
  EXPECT(self[0] == 100 - 40 - 10);  // children cover [10,50] and [90,100]
  EXPECT(self[1] == 20 - 3);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 3);

  // Aggregated spans are charged against their parent's name.
  Tracer tr;
  const int slice = tr.add("slice", 0, 1000, -1);
  tr.add("read_all", 100, 200, slice);
  LogLinearHistogram pub;
  pub.add(20);
  pub.add(30);
  tr.merge("publish", "slice", pub);
  const auto by_name = tr.self_by_name();
  EXPECT(by_name.at("slice") == 1000 - 100 - 50);
  EXPECT(by_name.at("read_all") == 100);
  EXPECT(by_name.at("publish") == 50);
}

}  // namespace

int main() {
  test_median();
  test_quartiles();
  test_tail_percentile();
  test_histogram();
  test_self_time();
  if (failures == 0) std::puts("test_bench_stats: all passed");
  return failures == 0 ? 0 : 1;
}
