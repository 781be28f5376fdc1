#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace oddci::obs {
namespace {

// --- Counter / Gauge --------------------------------------------------------

TEST(Counter, IncrementForms) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  ++c;
  c.inc();
  c.inc(3);
  c += 5;
  EXPECT_EQ(c.value(), 10u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

// --- LogHistogram bucketing -------------------------------------------------

TEST(LogHistogram, BucketIndexEdges) {
  constexpr double kMin = 1e-6;
  // Everything below the floor — including zero, negatives and NaN —
  // lands in bucket 0.
  EXPECT_EQ(LogHistogram::bucket_index(0.0, kMin), 0u);
  EXPECT_EQ(LogHistogram::bucket_index(-1.0, kMin), 0u);
  EXPECT_EQ(LogHistogram::bucket_index(kMin / 2, kMin), 0u);
  EXPECT_EQ(LogHistogram::bucket_index(
                std::numeric_limits<double>::quiet_NaN(), kMin),
            0u);
  // The floor itself opens bucket 1; each power of two advances one bucket.
  EXPECT_EQ(LogHistogram::bucket_index(kMin, kMin), 1u);
  EXPECT_EQ(LogHistogram::bucket_index(kMin * 1.999, kMin), 1u);
  EXPECT_EQ(LogHistogram::bucket_index(kMin * 2.0, kMin), 2u);
  EXPECT_EQ(LogHistogram::bucket_index(kMin * 4.0, kMin), 3u);
  // Far beyond the top regular bucket: overflow.
  EXPECT_EQ(LogHistogram::bucket_index(
                std::numeric_limits<double>::infinity(), kMin),
            LogHistogram::kBucketCount - 1);
  EXPECT_EQ(LogHistogram::bucket_index(1e30, kMin),
            LogHistogram::kBucketCount - 1);
}

TEST(LogHistogram, BucketIndexMonotonic) {
  constexpr double kMin = 1e-6;
  std::size_t prev = 0;
  for (double x = kMin / 4; x < 1e9; x *= 1.7) {
    const std::size_t i = LogHistogram::bucket_index(x, kMin);
    EXPECT_GE(i, prev) << "x=" << x;
    EXPECT_LT(i, LogHistogram::kBucketCount);
    prev = i;
  }
}

TEST(LogHistogram, SamplesLandInsideTheirBucketEdges) {
  LogHistogram h(1e-6);
  for (double x : {1e-7, 1e-6, 3e-5, 0.4, 17.0, 3600.0}) {
    h.record(x);
    const std::size_t i = LogHistogram::bucket_index(x, h.min_value());
    EXPECT_GE(h.bucket(i), 1u);
    EXPECT_LE(h.bucket_lo(i), x);
    EXPECT_GT(h.bucket_hi(i), x);
  }
  EXPECT_EQ(h.count(), 6u);
}

TEST(LogHistogram, SummaryStats) {
  LogHistogram h(1e-3);
  h.record(0.5);
  h.record(1.5);
  h.record(4.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
  // The median lies in the bucket holding the second sample.
  const double med = h.quantile(0.5);
  EXPECT_GE(med, 1.0);
  EXPECT_LE(med, 2.1);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// --- TimeSeries -------------------------------------------------------------

TEST(TimeSeries, CapCountsDropped) {
  TimeSeries s(3);
  for (int i = 0; i < 5; ++i) {
    s.record(static_cast<double>(i), static_cast<double>(i * i));
  }
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.dropped(), 2u);
  EXPECT_DOUBLE_EQ(s.times().back(), 2.0);
}

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, OwnedCellsAreStableAndReused) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  Counter& again = reg.counter("a");
  EXPECT_EQ(&a, &again);
  ++a;
  // Registering more metrics must not invalidate earlier cells.
  for (int i = 0; i < 100; ++i) {
    reg.counter("c" + std::to_string(i));
  }
  ++again;
  EXPECT_EQ(reg.counter("a").value(), 2u);
  EXPECT_TRUE(reg.has("a"));
  EXPECT_FALSE(reg.has("missing"));
}

TEST(MetricsRegistry, SnapshotIsSortedAndComplete) {
  MetricsRegistry reg;
  reg.counter("z.last").inc(1);
  reg.counter("a.first").inc(2);
  Counter linked;
  linked.inc(7);
  reg.link_counter("m.linked", linked);
  reg.gauge("g").set(3.5);
  reg.link_probe("p.lazy", [] { return 11.0; });
  reg.histogram("h").record(0.25);
  reg.series("s").record(1.0, 2.0);

  const MetricsSnapshot snap = reg.snapshot(42.0);
  EXPECT_DOUBLE_EQ(snap.taken_at_seconds, 42.0);
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "a.first");
  EXPECT_EQ(snap.counters[1].name, "m.linked");
  EXPECT_EQ(snap.counters[2].name, "z.last");
  EXPECT_EQ(snap.counter_value("m.linked"), 7u);
  EXPECT_EQ(snap.counter_value("missing", 99u), 99u);
  // Probes are exported as gauges, merged and sorted with the real ones.
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].name, "g");
  EXPECT_EQ(snap.gauges[1].name, "p.lazy");
  EXPECT_DOUBLE_EQ(snap.gauges[1].value, 11.0);
  ASSERT_NE(snap.find_histogram("h"), nullptr);
  EXPECT_EQ(snap.find_histogram("h")->count, 1u);
  ASSERT_NE(snap.find_series("s"), nullptr);
  EXPECT_EQ(snap.find_series("s")->times.size(), 1u);
}

}  // namespace
}  // namespace oddci::obs
