#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "obs/metrics.hpp"

namespace oddci::obs {
namespace {

// A snapshot exercising every section with values that stress the
// serializer: uint64 beyond 2^53 (not representable as a double), doubles
// with no finite decimal expansion, zeros, and empty collections.
MetricsSnapshot sample_snapshot() {
  MetricsRegistry reg;
  reg.counter("big").inc(0x20000000000001ull);  // 2^53 + 1
  reg.counter("zero");
  reg.gauge("g.pi").set(3.141592653589793);
  reg.gauge("g.tenth").set(0.1);
  LogHistogram& h = reg.histogram("lat", 1e-6);
  h.record(0.0);  // below the floor -> bucket 0
  h.record(2.5e-4);
  h.record(1.0 / 3.0);
  TimeSeries& s = reg.series("ts", 2);
  s.record(10.0, 1.0);
  s.record(20.0, 0.125);
  s.record(30.0, 9.0);  // over the cap -> dropped
  return reg.snapshot(123.456);
}

TEST(JsonExport, RoundTripIsBitIdentical) {
  const MetricsSnapshot original = sample_snapshot();
  const std::string json = to_json(original);
  EXPECT_NE(json.find(kMetricsSchema), std::string::npos);
  const MetricsSnapshot parsed = snapshot_from_json(json);
  EXPECT_EQ(parsed, original);
  // A second serialize -> parse cycle must be a fixed point.
  EXPECT_EQ(to_json(parsed), json);
}

TEST(JsonExport, LargeCounterSurvivesExactly) {
  const MetricsSnapshot parsed = snapshot_from_json(to_json(sample_snapshot()));
  // 2^53 + 1 is where double-roundtripping integers starts losing bits.
  EXPECT_EQ(parsed.counter_value("big"), 0x20000000000001ull);
}

TEST(JsonExport, HistogramBucketsSurvive) {
  const MetricsSnapshot original = sample_snapshot();
  const MetricsSnapshot parsed = snapshot_from_json(to_json(original));
  const HistogramSample* h = parsed.find_histogram("lat");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->buckets.size(), LogHistogram::kBucketCount);
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->buckets[0], 1u);  // the below-floor sample
  EXPECT_EQ(*h, *original.find_histogram("lat"));
}

TEST(JsonExport, EmptySnapshotRoundTrips) {
  const MetricsSnapshot empty;
  EXPECT_EQ(snapshot_from_json(to_json(empty)), empty);
}

TEST(JsonExport, RejectsWrongSchemaAndGarbage) {
  EXPECT_THROW((void)snapshot_from_json("{\"schema\":\"other.v9\"}"),
               std::runtime_error);
  EXPECT_THROW((void)snapshot_from_json("not json at all"),
               std::runtime_error);
  EXPECT_THROW((void)snapshot_from_json(""), std::runtime_error);

  // A v1 document (the pre-v2 layout with a spans array) is another schema.
  std::string v1 = to_json(sample_snapshot());
  const std::string v2_tag = "\"" + std::string(kMetricsSchema) + "\"";
  v1.replace(v1.find(v2_tag), v2_tag.size(), "\"oddci.metrics.v1\"");
  v1.insert(v1.rfind('}'), ",\"spans\":[]");
  EXPECT_THROW((void)snapshot_from_json(v1), std::runtime_error);

  // A bucket_count other than the fixed layout's is rejected before the
  // bucket array is sized, so a hostile file cannot name an allocation.
  std::string json = to_json(sample_snapshot());
  const std::string count_tag =
      "\"bucket_count\":" + std::to_string(LogHistogram::kBucketCount);
  json.replace(json.find(count_tag), count_tag.size(),
               "\"bucket_count\":2305843009213693952");  // 2^61
  EXPECT_THROW((void)snapshot_from_json(json), std::runtime_error);
}

TEST(JsonExport, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/oddci_obs_export_test.json";
  const MetricsSnapshot original = sample_snapshot();
  write_json(path, original);
  EXPECT_EQ(read_json(path), original);
}

TEST(CsvExport, SeriesRoundTrip) {
  const MetricsSnapshot original = sample_snapshot();
  const std::string csv = series_to_csv(original);
  EXPECT_EQ(csv.rfind("series,time,value\n", 0), 0u);
  const std::vector<SeriesSample> parsed = series_from_csv(csv);
  ASSERT_EQ(parsed.size(), original.series.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].name, original.series[i].name);
    EXPECT_EQ(parsed[i].times, original.series[i].times);
    EXPECT_EQ(parsed[i].values, original.series[i].values);
  }
}

TEST(CsvExport, EmptySeriesYieldsHeaderOnly) {
  const MetricsSnapshot empty;
  EXPECT_EQ(series_to_csv(empty), "series,time,value\n");
  EXPECT_TRUE(series_from_csv("series,time,value\n").empty());
}

}  // namespace
}  // namespace oddci::obs
