// Sharded-kernel determinism: a seeded scenario on K worker shards must
// replay byte for byte — identical metrics JSON and Chrome-trace exports —
// for any fixed K, including across thread-scheduling noise. Different K
// are allowed (expected, even) to produce different trajectories; each K
// is its own deterministic universe. This is the acceptance gate for the
// conservative time-window barrier and the mailbox drain order.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/system.hpp"
#include "obs/export.hpp"
#include "obs/trace_export.hpp"
#include "workload/job.hpp"

namespace oddci::core {
namespace {

struct Export {
  std::string metrics_json;
  std::string chrome_trace;
  bool completed = false;
  std::uint64_t unique_results = 0;
  std::uint64_t cross_posts = 0;
  std::uint64_t windows_run = 0;
  std::int64_t final_now_us = 0;

  bool operator==(const Export&) const = default;
};

SystemConfig scenario(std::size_t shards) {
  SystemConfig config;
  config.receivers = 10'000;
  config.channels = 4;
  config.aggregators = 8;
  config.seed = 20260809;
  config.control.overshoot_margin = 1.3;
  config.obs.trace = true;
  config.obs.trace_capacity = 1 << 16;
  config.shards = shards;
  return config;
}

Export run_scenario(const SystemConfig& config) {
  OddciSystem system(config);
  const auto job = workload::make_uniform_job(
      "sharded-replay", util::Bits::from_megabytes(2), 100,
      util::Bits::from_bytes(512), util::Bits::from_bytes(512), 10.0);
  const auto result = system.run_job(job, 50);

  Export e;
  e.metrics_json = obs::to_json(result.metrics);
  e.chrome_trace = obs::to_chrome_trace(
      obs::merge_events(system.flight_recorders()));
  e.completed = result.completed;
  e.unique_results = result.job.results_received -
                     result.job.duplicate_results - result.job.late_results;
  e.cross_posts = system.kernel().cross_posts();
  e.windows_run = system.kernel().windows_run();
  e.final_now_us = system.kernel().now().micros();
  return e;
}

class ShardedReplay : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedReplay, SameSeedSameShardCountExportsAreByteIdentical) {
  const std::size_t shards = GetParam();
  const Export first = run_scenario(scenario(shards));
  const Export second = run_scenario(scenario(shards));

  EXPECT_EQ(first.final_now_us, second.final_now_us);
  EXPECT_EQ(first.cross_posts, second.cross_posts);
  EXPECT_EQ(first.windows_run, second.windows_run);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  EXPECT_EQ(first.chrome_trace, second.chrome_trace);
  EXPECT_EQ(first, second);

  // And the run did real work.
  EXPECT_TRUE(first.completed);
  EXPECT_EQ(first.unique_results, 100u);
  if (shards > 1) {
    // The population actually spans shards: heartbeats stay local by
    // placement, but control-plane hops (joins, task traffic) cross.
    EXPECT_GT(first.cross_posts, 0u);
    EXPECT_GT(first.windows_run, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedReplay,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}),
                         [](const auto& info) {
                           return "K" + std::to_string(info.param);
                         });

// The fault matrix and a churning, lossy population at K = 1 (the
// one-shard case: the same per-shard wire, churn and section-loss streams)
// and at K = 4 (per-shard streams, plan events as coordinator global
// tasks, re-tunes through the mailboxes with stable listener ids). Each K
// replays byte for byte, and the job still loses nothing.
class ShardedScenarioReplay : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedScenarioReplay, FaultMatrixIsByteIdentical) {
  auto build = [k = GetParam()] {
    SystemConfig config = scenario(k);
    config.fault.enabled = true;
    config.fault.message_loss = 0.01;
    config.fault.message_duplication = 0.01;
    config.fault.latency_spike_probability = 0.005;
    config.fault.partitions_per_hour = 6.0;
    config.fault.partition_duration = sim::SimTime::from_seconds(60);
    config.fault.controller_crash_at.push_back(
        sim::SimTime::from_seconds(150));
    config.fault.pna_crashes_per_hour = 20.0;
    config.fault.control_corruptions_per_hour = 4.0;
    return config;
  };

  const Export first = run_scenario(build());
  const Export second = run_scenario(build());

  EXPECT_EQ(first.metrics_json, second.metrics_json);
  EXPECT_EQ(first.chrome_trace, second.chrome_trace);
  EXPECT_EQ(first, second);
  EXPECT_TRUE(first.completed);
  EXPECT_EQ(first.unique_results, 100u);
  EXPECT_NE(first.metrics_json.find("fault.messages_lost"),
            std::string::npos);
}

TEST_P(ShardedScenarioReplay, ChurningLossyPopulationIsByteIdentical) {
  auto build = [k = GetParam()] {
    SystemConfig config = scenario(k);
    config.receivers = 4'000;
    config.section_loss = 0.02;
    ChurnOptions churn;
    churn.mean_on_seconds = 300.0;
    churn.mean_off_seconds = 120.0;
    config.churn = churn;
    return config;
  };

  const Export first = run_scenario(build());
  const Export second = run_scenario(build());
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  EXPECT_EQ(first.chrome_trace, second.chrome_trace);
  EXPECT_EQ(first, second);
  EXPECT_TRUE(first.completed);
  EXPECT_EQ(first.unique_results, 100u);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedScenarioReplay,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const auto& info) {
                           return "K" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace oddci::core
