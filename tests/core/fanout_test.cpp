// System-level contract of the broadcast fan-out fast path: a deployed
// population shares one decoded, once-verified control message per shard
// (the acceptance criterion: `verify_cache.hit` == N-K for N receivers on
// K shards handling one broadcast), and heartbeats are served from the
// pools once steady state laps the rings. Every case runs at K = 1 and at
// K = 4, where the registry merges the per-shard cells under one name.

#include <gtest/gtest.h>

#include <string>

#include "core/system.hpp"

namespace oddci::core {
namespace {

constexpr std::size_t kShardCounts[] = {1, 4};

SystemConfig fanout_config(std::size_t shards) {
  SystemConfig config;
  config.receivers = 400;
  config.channels = 2;
  config.aggregators = 4;
  config.seed = 20260806;
  config.shards = shards;
  // Fast heartbeats so each shard's agents lap their 4096-slot pool ring
  // well within the simulated window (100+ agents * ~60 beats).
  config.controller.default_heartbeat = sim::SimTime::from_seconds(10);
  return config;
}

TEST(FanoutFastPath, BroadcastVerifiesOnceAcrossThePopulation) {
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const SystemConfig config = fanout_config(shards);
    OddciSystem system(config);

    // One broadcast: the PNA deployment hello, read by all 400 receivers.
    system.controller().deploy_pna();
    system.kernel().run_until(sim::SimTime::from_minutes(10));

    const auto snap = system.metrics_snapshot();
    const auto seen = snap.counter_value("pna.control_messages_seen");
    EXPECT_EQ(seen, config.receivers);
    // Exactly one signature hash per shard for the whole population...
    EXPECT_EQ(snap.counter_value("verify_cache.miss"), shards);
    // ...and every other receiver was served from its shard's cache.
    EXPECT_EQ(snap.counter_value("verify_cache.hit"), seen - shards);
    EXPECT_EQ(snap.counter_value("pna.signature_failures", 0), 0u);

    // Steady-state heartbeats recycle pooled messages instead of
    // allocating, and every emitted beat went through exactly one acquire.
    EXPECT_GT(snap.counter_value("heartbeat.pool_reused"), 0u);
    EXPECT_GT(snap.counter_value("heartbeat.pooled_bytes"), 0u);
    EXPECT_EQ(snap.counter_value("heartbeat.pool_reused") +
                  snap.counter_value("heartbeat.pool_allocated"),
              snap.counter_value("pna.heartbeats_sent"));
    // The writer-reuse cell is registered (value depends on how many
    // controls the Controller staged after the first).
    EXPECT_NE(snap.find_counter("wire.writer_reuse"), nullptr);
    EXPECT_NE(snap.find_gauge("verify_cache.size"), nullptr);
  }
}

TEST(FanoutFastPath, DistinctBroadcastsEachCostOneHash) {
  // A second, different control message (an instance wakeup) must miss
  // each shard's cache once and then be shared by every receiver of that
  // shard that handles it.
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    OddciSystem system(fanout_config(shards));
    system.controller().deploy_pna();
    system.kernel().run_until(sim::SimTime::from_seconds(120));
    const auto after_deploy =
        system.metrics_snapshot().counter_value("verify_cache.miss");
    EXPECT_EQ(after_deploy, shards);

    InstanceSpec spec;
    spec.name = "fanout-wakeup";
    spec.target_size = 40;
    spec.image_size = util::Bits::from_megabytes(1);
    system.provider().request_instance(spec, system.backend().node_id());
    system.kernel().run_until(sim::SimTime::from_minutes(10));

    const auto snap = system.metrics_snapshot();
    // Wakeup (and any follow-up controls) each hashed once per shard; the
    // population count dwarfs the distinct-message count.
    const auto misses = snap.counter_value("verify_cache.miss");
    const auto hits = snap.counter_value("verify_cache.hit");
    const auto seen = snap.counter_value("pna.control_messages_seen");
    EXPECT_GT(misses, shards);
    EXPECT_LT(misses, 16u * shards);
    EXPECT_EQ(hits + misses, seen);
  }
}

}  // namespace
}  // namespace oddci::core
