// Quorum, escalation, spot-check, and reputation-ledger unit tests for the
// Backend-side Byzantine defense (core/verify.hpp), plus the seeded
// adversarial profile table (fault/byzantine.hpp).

#include "core/verify.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/byzantine.hpp"
#include "sim/simulation.hpp"
#include "workload/job.hpp"

namespace oddci::core {
namespace {

constexpr InstanceId kInstance = 7;

workload::Job small_job(std::size_t tasks) {
  return workload::make_uniform_job("verify-unit",
                                    util::Bits::from_megabytes(1), tasks,
                                    util::Bits::from_bytes(512),
                                    util::Bits::from_bytes(512), 5.0);
}

VerifyOptions base_options() {
  VerifyOptions o;
  o.enabled = true;
  o.spot_check_rate = 0.0;  // unit tests mint spot checks explicitly
  return o;
}

std::uint64_t honest(std::uint64_t index) {
  return fault::honest_result_digest(kInstance, index);
}

TEST(VerifyOptions, ValidateRejectsNonsense) {
  VerifyOptions o = base_options();
  o.redundancy = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = base_options();
  o.max_redundancy = 1;
  o.redundancy = 2;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = base_options();
  o.trusted_redundancy = 3;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = base_options();
  o.quarantine_below = 0.95;  // >= trusted_above
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = base_options();
  o.spot_check_rate = 1.5;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  EXPECT_NO_THROW(base_options().validate());
}

// A 2-quorum that splits 1-1 (one forged digest) cannot conclude: the
// verifier escalates to a 3rd replica, whose honest vote settles a 2-of-3
// strict majority for the truth.
TEST(Quorum, TwoWayTieEscalatesToThreeAndTruthWins) {
  sim::Simulation sim;
  const auto job = small_job(4);
  VerifyOptions options = base_options();
  options.eager_replicas = true;  // classic parallel k-way dispatch
  Verifier verifier(sim, options, 1);
  verifier.begin_job(kInstance, &job);

  const std::uint64_t index = 0;
  auto d0 = verifier.on_dispatch(index, 100);
  EXPECT_EQ(d0.replica, 0u);
  EXPECT_TRUE(d0.more_replicas);  // redundancy 2: one more wanted
  auto d1 = verifier.on_dispatch(index, 101);
  EXPECT_EQ(d1.replica, 1u);
  EXPECT_FALSE(d1.more_replicas);
  EXPECT_FALSE(verifier.needs_replica(index));

  auto v0 = verifier.on_result(index, 100, honest(index), {});
  EXPECT_EQ(v0.outcome, Verifier::Verdict::Outcome::kPending);
  const std::uint64_t forged =
      fault::forged_result_digest(0xBAD, kInstance, index);
  ASSERT_NE(forged, honest(index));
  auto v1 = verifier.on_result(index, 101, forged, {});
  EXPECT_EQ(v1.outcome, Verifier::Verdict::Outcome::kEscalated);
  EXPECT_TRUE(v1.requeue);
  EXPECT_TRUE(verifier.needs_replica(index));

  // The escalation replica may not be a prior participant.
  EXPECT_FALSE(verifier.may_assign(index, 100, false));
  EXPECT_FALSE(verifier.may_assign(index, 101, false));
  EXPECT_TRUE(verifier.may_assign(index, 102, false));
  auto d2 = verifier.on_dispatch(index, 102);
  EXPECT_EQ(d2.replica, 2u);
  auto v2 = verifier.on_result(index, 102, honest(index), {});
  EXPECT_EQ(v2.outcome, Verifier::Verdict::Outcome::kAccepted);
  EXPECT_FALSE(v2.wrong);

  const auto s = verifier.stats();
  EXPECT_EQ(s.tasks_verified, 1u);
  EXPECT_EQ(s.escalations, 1u);
  EXPECT_EQ(s.verified, 2u);
  EXPECT_EQ(s.outvoted, 1u);
  EXPECT_EQ(s.wrong_results, 0u);
  // Conservation identity closes with nothing outstanding.
  EXPECT_EQ(s.dispatched, s.verified + s.outvoted + s.discarded);
  EXPECT_EQ(s.outstanding, 0u);
}

// Two colluders sharing a forge seed win a 2-quorum outright — the attack
// that defeats naive voting. The accepted result is flagged wrong against
// ground truth, and the seeded spot checks then grind their reputation
// into quarantine, after which the poll gate never serves them real work.
TEST(Quorum, ColludersWinTwoQuorumAndSpotChecksQuarantineThem) {
  sim::Simulation sim;
  const auto job = small_job(4);
  Verifier verifier(sim, base_options(), 1);
  verifier.begin_job(kInstance, &job);

  const std::uint64_t index = 0;
  const std::uint64_t group_seed = 0xC0117;
  const std::uint64_t agreed_forgery =
      fault::forged_result_digest(group_seed, kInstance, index);
  verifier.on_dispatch(index, 200);
  verifier.on_dispatch(index, 201);
  verifier.on_result(index, 200, agreed_forgery, {});
  auto verdict = verifier.on_result(index, 201, agreed_forgery, {});
  EXPECT_EQ(verdict.outcome, Verifier::Verdict::Outcome::kAccepted);
  EXPECT_TRUE(verdict.wrong);
  EXPECT_EQ(verifier.stats().wrong_results, 1u);
  // Winning the vote *raised* their standing — that is the point of the
  // attack, and why voting alone is not enough.
  EXPECT_GT(verifier.reputation(200)->score, 0.5);

  // Spot checks carry a precomputed answer the colluders cannot know; a
  // few failures push the EWMA under the quarantine threshold.
  int fails = 0;
  while (verifier.reputation(200)->state != ReputationState::kQuarantined) {
    const auto spot = verifier.make_spot_check(200);
    verifier.on_spot_result(
        spot.index, 200,
        fault::forged_result_digest(group_seed, kInstance, spot.index));
    ASSERT_LT(++fails, 12) << "spot checks failed to quarantine a colluder";
  }
  EXPECT_EQ(verifier.stats().quarantines, 1u);
  EXPECT_EQ(verifier.stats().quarantined_now, 1u);
  EXPECT_EQ(verifier.stats().spot_failed, static_cast<std::uint64_t>(fails));

  // Quarantined duty: spot checks or nothing, never a real replica.
  for (int i = 0; i < 64; ++i) {
    EXPECT_NE(verifier.poll_gate(200), Verifier::PollGate::kTask);
  }
  EXPECT_GT(verifier.stats().polls_denied, 0u);
}

// EWMA arithmetic is exact: alpha = 0.25 from the 0.5 prior.
TEST(Reputation, EwmaArithmeticAndQuarantineThreshold) {
  sim::Simulation sim;
  const auto job = small_job(8);
  VerifyOptions options = base_options();
  Verifier verifier(sim, options, 1);
  verifier.begin_job(kInstance, &job);

  // Three consecutive outvotes: 0.5 -> 0.375 -> 0.28125 -> 0.2109375,
  // crossing quarantine_below = 0.25 on the third.
  const std::uint64_t liar = 300;
  const double expected[] = {0.375, 0.28125, 0.2109375};
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t index = static_cast<std::uint64_t>(round);
    verifier.on_dispatch(index, liar);
    verifier.on_dispatch(index, 400 + round);
    verifier.on_result(index, 400 + round, honest(index), {});
    const auto tie = verifier.on_result(
        index, liar,
        fault::forged_result_digest(0xF00 + round, kInstance, index), {});
    ASSERT_EQ(tie.outcome, Verifier::Verdict::Outcome::kEscalated);
    verifier.on_dispatch(index, 500 + round);
    const auto settled =
        verifier.on_result(index, 500 + round, honest(index), {});
    ASSERT_EQ(settled.outcome, Verifier::Verdict::Outcome::kAccepted);
    const ReputationEntry* e = verifier.reputation(liar);
    ASSERT_NE(e, nullptr);
    EXPECT_DOUBLE_EQ(e->score, expected[round]);
    EXPECT_EQ(e->observations, static_cast<std::uint64_t>(round + 1));
  }
  EXPECT_EQ(verifier.reputation(liar)->state, ReputationState::kQuarantined);
  EXPECT_EQ(verifier.stats().quarantines, 1u);
}

// Parole: parole_checks consecutive spot passes restore probation at the
// initial reputation; a single failure resets the streak.
TEST(Reputation, ParoleRequiresConsecutiveSpotPasses) {
  sim::Simulation sim;
  const auto job = small_job(4);
  Verifier verifier(sim, base_options(), 1);
  verifier.begin_job(kInstance, &job);

  const std::uint64_t pna = 600;
  // Drive into quarantine with spot failures.
  while (verifier.reputation(pna) == nullptr ||
         verifier.reputation(pna)->state != ReputationState::kQuarantined) {
    const auto spot = verifier.make_spot_check(pna);
    verifier.on_spot_result(spot.index, pna, /*digest=*/0xDEAD | 1ull);
  }

  // Two passes, one fail: streak resets, still quarantined.
  for (int i = 0; i < 2; ++i) {
    const auto spot = verifier.make_spot_check(pna);
    verifier.on_spot_result(spot.index, pna, honest(spot.index));
  }
  {
    const auto spot = verifier.make_spot_check(pna);
    verifier.on_spot_result(spot.index, pna, 0xDEAD | 1ull);
  }
  EXPECT_EQ(verifier.reputation(pna)->state, ReputationState::kQuarantined);
  EXPECT_EQ(verifier.stats().paroles, 0u);

  // Three consecutive passes parole.
  for (int i = 0; i < 3; ++i) {
    const auto spot = verifier.make_spot_check(pna);
    verifier.on_spot_result(spot.index, pna, honest(spot.index));
  }
  const ReputationEntry* e = verifier.reputation(pna);
  EXPECT_EQ(e->state, ReputationState::kProbation);
  EXPECT_DOUBLE_EQ(e->score, 0.5);
  EXPECT_EQ(verifier.stats().paroles, 1u);
}

// Consistent agreement earns kTrusted, and a trusted first assignee gets
// the reduced-redundancy discount (a 1-quorum concludes on its own vote).
TEST(Reputation, TrustedStandingEarnsReducedRedundancy) {
  sim::Simulation sim;
  const auto job = small_job(16);
  Verifier verifier(sim, base_options(), 1);
  verifier.begin_job(kInstance, &job);

  const std::uint64_t star = 700;
  for (std::uint64_t index = 0; index < 8; ++index) {
    verifier.on_dispatch(index, star);
    verifier.on_dispatch(index, 800 + index);
    verifier.on_result(index, star, honest(index), {});
    verifier.on_result(index, 800 + index, honest(index), {});
  }
  const ReputationEntry* e = verifier.reputation(star);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, ReputationState::kTrusted);
  EXPECT_EQ(e->observations, 8u);
  EXPECT_EQ(verifier.stats().trusted_promotions, 1u);

  auto d = verifier.on_dispatch(8, star);
  EXPECT_FALSE(d.more_replicas);  // trusted_redundancy = 1
  auto v = verifier.on_result(8, star, honest(8), {});
  EXPECT_EQ(v.outcome, Verifier::Verdict::Outcome::kAccepted);
}

// Sequential quorum (the default dispatch mode): replicas go out one at a
// time, a pending vote re-queues the task, and a first vote cast by a
// node that earned kTrusted standing AFTER the task's first dispatch
// still concludes the round at a single dispatch (vote-time re-target).
TEST(Quorum, SequentialQuorumAndTrustedFirstVoteEarlyAccept) {
  sim::Simulation sim;
  const auto job = small_job(16);
  Verifier verifier(sim, base_options(), 1);
  verifier.begin_job(kInstance, &job);

  // Unproven pair: one replica at a time, the pending vote asks for more.
  auto d0 = verifier.on_dispatch(0, 500);
  EXPECT_FALSE(d0.more_replicas);  // sequential: nothing queued eagerly
  auto v0 = verifier.on_result(0, 500, honest(0), {});
  EXPECT_EQ(v0.outcome, Verifier::Verdict::Outcome::kPending);
  EXPECT_TRUE(v0.requeue);  // round wants a second replica
  verifier.on_dispatch(0, 501);
  auto v1 = verifier.on_result(0, 501, honest(0), {});
  EXPECT_EQ(v1.outcome, Verifier::Verdict::Outcome::kAccepted);
  EXPECT_EQ(verifier.stats().dispatched, 2u);

  // Task 15's first replica goes to `star` BEFORE it earns trust...
  const std::uint64_t star = 700;
  verifier.on_dispatch(15, star);
  // ...then star earns kTrusted on other tasks while the replica runs...
  for (std::uint64_t index = 1; index <= 8; ++index) {
    verifier.on_dispatch(index, star);
    verifier.on_dispatch(index, 800 + index);
    verifier.on_result(index, star, honest(index), {});
    verifier.on_result(index, 800 + index, honest(index), {});
  }
  ASSERT_EQ(verifier.reputation(star)->state, ReputationState::kTrusted);
  // ...so its (now-trusted) first vote concludes task 15 on its own.
  auto v15 = verifier.on_result(15, star, honest(15), {});
  EXPECT_EQ(v15.outcome, Verifier::Verdict::Outcome::kAccepted);
  EXPECT_FALSE(v15.wrong);
}

// A trusted vote weighs what its standing saves, so it settles a round
// against one unproven dissenter whichever of the two lands first: the
// forged first vote is outvoted at once instead of costing an escalation
// replica, and its caster takes the strike immediately.
TEST(Quorum, TrustedSecondVoteOutweighsUnprovenDissenter) {
  sim::Simulation sim;
  const auto job = small_job(16);
  Verifier verifier(sim, base_options(), 1);
  verifier.begin_job(kInstance, &job);

  const std::uint64_t star = 700;
  for (std::uint64_t index = 0; index < 8; ++index) {
    verifier.on_dispatch(index, star);
    verifier.on_dispatch(index, 800 + index);
    verifier.on_result(index, star, honest(index), {});
    verifier.on_result(index, 800 + index, honest(index), {});
  }
  ASSERT_EQ(verifier.reputation(star)->state, ReputationState::kTrusted);
  const auto before = verifier.stats();

  const std::uint64_t forger = 900;
  const std::uint64_t index = 9;
  verifier.on_dispatch(index, forger);
  const auto v0 = verifier.on_result(
      index, forger, fault::forged_result_digest(0xBAD, kInstance, index), {});
  EXPECT_EQ(v0.outcome, Verifier::Verdict::Outcome::kPending);
  EXPECT_TRUE(v0.requeue);
  verifier.on_dispatch(index, star);
  const auto v1 = verifier.on_result(index, star, honest(index), {});
  EXPECT_EQ(v1.outcome, Verifier::Verdict::Outcome::kAccepted);
  EXPECT_FALSE(v1.wrong);

  const auto s = verifier.stats();
  EXPECT_EQ(s.dispatched - before.dispatched, 2u);
  EXPECT_EQ(s.escalations, before.escalations);
  EXPECT_EQ(s.outvoted - before.outvoted, 1u);
  EXPECT_DOUBLE_EQ(verifier.reputation(forger)->score, 0.375);
  EXPECT_EQ(s.dispatched, s.verified + s.outvoted + s.discarded);
  EXPECT_EQ(s.outstanding, 0u);
}

// The region-diversity rule: with a region function installed, a strict
// pass never co-locates two replicas of one task in one aggregator region
// (where colluders are recruited); the relaxed pass may.
TEST(Quorum, RegionStrictAssignmentAvoidsCorrelatedReplicas) {
  sim::Simulation sim;
  const auto job = small_job(4);
  Verifier verifier(sim, base_options(), 1);
  verifier.set_region_fn(
      [](std::uint64_t pna_id) { return static_cast<std::uint32_t>(pna_id % 4); });
  verifier.begin_job(kInstance, &job);

  verifier.on_dispatch(0, 40);  // region 0
  EXPECT_FALSE(verifier.may_assign(0, 44, /*region_strict=*/true));  // region 0
  EXPECT_TRUE(verifier.may_assign(0, 45, /*region_strict=*/true));   // region 1
  // Relaxed fallback (livelock escape) still excludes prior servers.
  EXPECT_TRUE(verifier.may_assign(0, 44, /*region_strict=*/false));
  EXPECT_FALSE(verifier.may_assign(0, 40, /*region_strict=*/false));
}

// Conservation identity under losses and crashes: every dispatch ends up
// verified, outvoted, discarded, or outstanding.
TEST(Quorum, ConservationHoldsThroughLossAndCrash) {
  sim::Simulation sim;
  const auto job = small_job(8);
  Verifier verifier(sim, base_options(), 1);
  verifier.begin_job(kInstance, &job);

  verifier.on_dispatch(0, 10);
  verifier.on_dispatch(0, 11);
  verifier.on_replica_lost(0);  // replica of task 0 timed out
  verifier.on_dispatch(1, 12);
  verifier.on_result(1, 12, honest(1), {});  // pending vote
  const auto spot = verifier.make_spot_check(13);

  auto s = verifier.stats();
  EXPECT_EQ(s.dispatched, 3u);
  EXPECT_EQ(s.discarded, 1u);
  EXPECT_EQ(s.outstanding, 2u);  // one live replica + one pending vote
  EXPECT_EQ(s.dispatched, s.verified + s.outvoted + s.discarded +
                              s.outstanding);
  EXPECT_EQ(s.spot_outstanding, 1u);

  verifier.on_crash();
  s = verifier.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.spot_outstanding, 0u);
  EXPECT_EQ(s.spot_flushed, 1u);
  EXPECT_EQ(s.dispatched, s.verified + s.outvoted + s.discarded);
  (void)spot;
}

// Adversarial profile table: deterministic per seed, fraction-accurate at
// scale, and the colluding group shares one forge seed inside one region.
TEST(ByzantineTable, SeededClassificationIsDeterministicAndCorrelated) {
  const std::size_t n = 50'000;
  std::vector<std::uint32_t> regions(n);
  for (std::size_t i = 0; i < n; ++i) {
    regions[i] = static_cast<std::uint32_t>(i % 16);
  }
  fault::ByzantineTable a(0x5EED, n, 0.10, 0.05, 3, regions);
  fault::ByzantineTable b(0x5EED, n, 0.10, 0.05, 3, regions);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a.profile(i), b.profile(i)) << i;
  }
  EXPECT_NEAR(static_cast<double>(a.forgers() + a.colluders()) / n, 0.10,
              0.01);
  EXPECT_NEAR(static_cast<double>(a.freeriders()) / n, 0.05, 0.01);

  ASSERT_EQ(a.collusion_group().size(), 3u);
  const auto& group = a.collusion_group();
  const std::uint32_t region = regions[group[0]];
  const std::uint64_t seed0 = a.forge_seed(group[0]);
  for (const std::size_t member : group) {
    EXPECT_EQ(a.profile(member), fault::ByzantineProfile::kColluder);
    EXPECT_EQ(regions[member], region);  // one neighborhood
    EXPECT_EQ(a.forge_seed(member), seed0);  // one shared forgery stream
  }
  // Non-colluding adversaries never share the group seed (their garbage
  // cannot accidentally form a quorum with the colluders').
  for (std::size_t i = 0; i < n; ++i) {
    if (a.profile(i) == fault::ByzantineProfile::kForger ||
        a.profile(i) == fault::ByzantineProfile::kFreeRider) {
      EXPECT_NE(a.forge_seed(i), seed0);
      break;
    }
  }

  fault::ByzantineTable off(0x5EED, n, 0.0, 0.0, 0, regions);
  EXPECT_FALSE(off.active());
  EXPECT_EQ(off.adversaries(), 0u);
}

// Digest model: honest digests are stable pure functions; forged digests
// differ from honest ones and agree exactly across a shared forge seed.
TEST(ByzantineDigests, HonestAndForgedDigestProperties) {
  const std::uint64_t h = fault::honest_result_digest(1, 2);
  EXPECT_EQ(h, fault::honest_result_digest(1, 2));
  EXPECT_NE(h, fault::honest_result_digest(1, 3));
  EXPECT_NE(h, fault::honest_result_digest(2, 2));
  EXPECT_NE(h & 1ull, 0u);  // never the "no digest" sentinel

  const std::uint64_t f1 = fault::forged_result_digest(0xAA, 1, 2);
  const std::uint64_t f2 = fault::forged_result_digest(0xAA, 1, 2);
  const std::uint64_t f3 = fault::forged_result_digest(0xBB, 1, 2);
  EXPECT_EQ(f1, f2);
  EXPECT_NE(f1, h);
  EXPECT_NE(f1, f3);
}

}  // namespace
}  // namespace oddci::core
