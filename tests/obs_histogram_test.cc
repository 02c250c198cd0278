// Log-linear histogram unit tests: bucket geometry, merge algebra, quantile
// behavior, and a shadow-model property test against a sorted-vector oracle;
// plus the exposition reader against what the emitter writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "obs/histogram.h"
#include "obs/metrics.h"

namespace bullet::obs {
namespace {

TEST(HistogramBuckets, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < kHistSubBuckets; ++v) {
    const int b = histogram_bucket(v);
    EXPECT_EQ(static_cast<int>(v), b);
    EXPECT_EQ(v, histogram_bucket_floor(b));
    EXPECT_EQ(v, histogram_bucket_ceiling(b));
  }
}

TEST(HistogramBuckets, EveryValueLandsBetweenFloorAndCeiling) {
  Rng rng(42);
  std::vector<std::uint64_t> samples;
  for (int shift = 0; shift < 64; ++shift) {
    const std::uint64_t p = std::uint64_t{1} << shift;
    samples.push_back(p);
    samples.push_back(p - 1);
    samples.push_back(p + 1);
  }
  for (int i = 0; i < 10000; ++i) {
    samples.push_back(rng.next() >> (i % 64));
  }
  samples.push_back(~std::uint64_t{0});
  for (const std::uint64_t v : samples) {
    const int b = histogram_bucket(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, kHistBuckets);
    EXPECT_LE(histogram_bucket_floor(b), v);
    EXPECT_GE(histogram_bucket_ceiling(b), v);
  }
}

TEST(HistogramBuckets, IndexIsMonotoneInValue) {
  // Across bucket boundaries: floor(i) maps back to i, and consecutive
  // buckets cover adjacent, non-overlapping ranges.
  for (int i = 0; i < kHistBuckets - 1; ++i) {
    EXPECT_EQ(i, histogram_bucket(histogram_bucket_floor(i)));
    EXPECT_EQ(i, histogram_bucket(histogram_bucket_ceiling(i)));
    EXPECT_EQ(histogram_bucket_ceiling(i) + 1, histogram_bucket_floor(i + 1));
  }
}

TEST(HistogramBuckets, RelativeErrorBounded) {
  // The log-linear promise: ceiling/floor within a bucket differ by at
  // most a factor of 1 + 1/kHistSubBuckets (12.5%) for values >= 8.
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = (rng.next() >> (i % 56)) | kHistSubBuckets;
    const int b = histogram_bucket(v);
    const double ceiling = static_cast<double>(histogram_bucket_ceiling(b));
    EXPECT_LE(ceiling, static_cast<double>(v) * 1.125 + 1.0);
  }
}

HistogramSnapshot make_random(Rng& rng, int n, int max_shift) {
  HistogramSnapshot h;
  for (int i = 0; i < n; ++i) h.add(rng.next() >> rng.next_below(max_shift));
  return h;
}

TEST(HistogramMerge, AssociativeAndCommutative) {
  Rng rng(99);
  const HistogramSnapshot a = make_random(rng, 500, 60);
  const HistogramSnapshot b = make_random(rng, 300, 48);
  const HistogramSnapshot c = make_random(rng, 700, 32);

  HistogramSnapshot ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  HistogramSnapshot bc = b;
  bc.merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.merge(bc);
  HistogramSnapshot cba = c;
  cba.merge(b);
  cba.merge(a);

  for (const auto* m : {&a_bc, &cba}) {
    EXPECT_EQ(ab_c.count(), m->count());
    EXPECT_EQ(ab_c.sum(), m->sum());
    EXPECT_EQ(ab_c.max(), m->max());
    for (int i = 0; i < kHistBuckets; ++i) {
      ASSERT_EQ(ab_c.bucket_count(i), m->bucket_count(i)) << "bucket " << i;
    }
    for (double q = 0.0; q <= 1.0; q += 0.05) {
      EXPECT_EQ(ab_c.quantile(q), m->quantile(q)) << "q=" << q;
    }
  }
}

TEST(HistogramQuantile, MonotoneInQ) {
  Rng rng(123);
  const HistogramSnapshot h = make_random(rng, 2000, 52);
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const std::uint64_t v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_EQ(h.max(), h.quantile(1.0));
}

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  const HistogramSnapshot h;
  EXPECT_EQ(0u, h.count());
  EXPECT_EQ(0u, h.quantile(0.5));
  EXPECT_EQ(0.0, h.mean());
}

TEST(HistogramRecorder, SnapshotMatchesExactSumAndMax) {
  LatencyHistogram h;
  Rng rng(5);
  std::uint64_t sum = 0, max = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next() >> 40;
    h.record(v);
    sum += v;
    max = std::max(max, v);
  }
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(1000u, snap.count());
  EXPECT_EQ(sum, snap.sum());
  EXPECT_EQ(max, snap.max());
  EXPECT_EQ(max, snap.quantile(1.0));
}

// Shadow model: the histogram's quantile must bracket the sorted-vector
// oracle — never below it, and above by at most one bucket width (12.5%
// relative, +8 absolute for the sub-linear buckets).
TEST(HistogramQuantile, TracksSortedVectorOracle) {
  Rng rng(2026);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::uint64_t> values;
    HistogramSnapshot h;
    const int n = 1 + static_cast<int>(rng.next_below(3000));
    const int shift = static_cast<int>(rng.next_below(56));
    for (int i = 0; i < n; ++i) {
      const std::uint64_t v = rng.next() >> shift;
      values.push_back(v);
      h.add(v);
    }
    std::sort(values.begin(), values.end());
    for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99,
                           0.999, 1.0}) {
      std::size_t rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(values.size())));
      if (rank == 0) rank = 1;
      const std::uint64_t oracle = values[rank - 1];
      const std::uint64_t estimate = h.quantile(q);
      EXPECT_GE(estimate, oracle) << "q=" << q << " n=" << n;
      EXPECT_LE(static_cast<double>(estimate),
                static_cast<double>(oracle) * 1.125 + 8.0)
          << "q=" << q << " n=" << n;
    }
  }
}

TEST(MetricExposition, ValueReadsBackWhatTheEmitterWrote) {
  LatencyHistogram latency;
  latency.record(1000);
  latency.record(3000);
  MetricsRegistry registry;
  registry.register_group([&](MetricEmitter& e) {
    e.value("reads_total", 12);
    e.value("reads_total_bytes", 4096);
    e.value("max", UINT64_MAX);
    e.histogram("latency_ns", latency.snapshot());
  });
  const std::string text = registry.render();
  EXPECT_EQ(12u, metric_value(text, "reads_total"));
  EXPECT_EQ(4096u, metric_value(text, "reads_total_bytes"));
  EXPECT_EQ(UINT64_MAX, metric_value(text, "max"));
  EXPECT_EQ(2u, metric_value(text, "latency_ns_count"));
  EXPECT_EQ(4000u, metric_value(text, "latency_ns_sum"));
  EXPECT_TRUE(metric_value(text, "latency_ns{quantile=\"0.5\"}"));
  // A name is matched whole: neither a prefix nor a histogram's base name
  // reads as a value.
  EXPECT_FALSE(metric_value(text, "reads"));
  EXPECT_FALSE(metric_value(text, "latency_ns"));
  EXPECT_FALSE(metric_value(text, "absent_total"));
}

TEST(MetricExposition, MalformedValuesReadAsAbsent) {
  EXPECT_FALSE(metric_value("a -1\n", "a"));
  EXPECT_FALSE(metric_value("a 12x\n", "a"));
  EXPECT_FALSE(metric_value("a \n", "a"));
  EXPECT_FALSE(metric_value("a 18446744073709551616\n", "a"));  // 2^64
  EXPECT_FALSE(metric_value("a", "a"));
  EXPECT_EQ(7u, metric_value("b 1\na 7", "a"));  // no final newline
}

}  // namespace
}  // namespace bullet::obs
