#include "core/verify.hpp"

#include <algorithm>
#include <stdexcept>

namespace oddci::core {

namespace {
void check_probability(double value, const char* what) {
  if (value < 0.0 || value > 1.0) {
    throw std::invalid_argument(std::string(what) + " must be in [0, 1]");
  }
}
}  // namespace

void VerifyOptions::validate() const {
  if (redundancy == 0 || trusted_redundancy == 0) {
    throw std::invalid_argument(
        "verify: redundancy and trusted_redundancy must be >= 1");
  }
  if (max_redundancy < redundancy) {
    throw std::invalid_argument(
        "verify: max_redundancy must be >= redundancy");
  }
  if (trusted_redundancy > redundancy) {
    throw std::invalid_argument(
        "verify: trusted_redundancy must be <= redundancy (it is the "
        "earned discount)");
  }
  check_probability(spot_check_rate, "verify spot_check_rate");
  check_probability(ewma_alpha, "verify ewma_alpha");
  check_probability(initial_reputation, "verify initial_reputation");
  check_probability(quarantine_below, "verify quarantine_below");
  check_probability(trusted_above, "verify trusted_above");
  if (quarantine_spot_boost < 0.0) {
    throw std::invalid_argument("verify: quarantine_spot_boost must be >= 0");
  }
  if (implausible_speedup < 0.0) {
    throw std::invalid_argument("verify: implausible_speedup must be >= 0");
  }
  if (quarantine_below >= trusted_above) {
    throw std::invalid_argument(
        "verify: quarantine_below must be < trusted_above");
  }
  if (parole_checks == 0) {
    throw std::invalid_argument("verify: parole_checks must be >= 1");
  }
}

std::string_view to_string(ReputationState state) {
  switch (state) {
    case ReputationState::kProbation:
      return "probation";
    case ReputationState::kTrusted:
      return "trusted";
    case ReputationState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

Verifier::Verifier(sim::Simulation& simulation, VerifyOptions options,
                   std::uint64_t seed)
    : simulation_(&simulation), options_(options), rng_(seed) {
  options_.validate();
}

void Verifier::link_metrics(obs::MetricsRegistry& registry) {
  registry.link_counter("verify.dispatches", dispatched_);
  registry.link_counter("verify.verified_votes", verified_);
  registry.link_counter("verify.outvoted_votes", outvoted_);
  registry.link_counter("verify.discarded_replicas", discarded_);
  registry.link_counter("verify.tasks_verified", tasks_verified_);
  registry.link_counter("verify.wrong_results", wrong_results_);
  registry.link_counter("verify.escalations", escalations_);
  registry.link_counter("verify.rounds_discarded", rounds_discarded_);
  registry.link_counter("verify.spot_dispatches", spot_dispatched_);
  registry.link_counter("verify.spot_passed", spot_passed_);
  registry.link_counter("verify.spot_failed", spot_failed_);
  registry.link_counter("verify.spot_stale", spot_stale_);
  registry.link_counter("verify.polls_denied", polls_denied_);
  registry.link_counter("verify.region_relaxed", region_relaxed_);
  registry.link_counter("verify.implausible_returns", implausible_returns_);
  registry.link_counter("reputation.quarantines", quarantines_);
  registry.link_counter("reputation.paroles", paroles_);
  registry.link_counter("reputation.trusted_promotions", trusted_promotions_);
  registry.link_probe("reputation.quarantined_now", [this] {
    return static_cast<double>(quarantined_now_);
  });
  registry.link_probe("verify.overhead_estimate",
                      [this] { return overhead_estimate(); });
}

void Verifier::begin_job(InstanceId instance, const workload::Job* job) {
  // Flush the previous job's unresolved volatile state: those replicas and
  // votes will never conclude, so the conservation identity books them as
  // discarded (the durable reputation ledger persists untouched).
  discarded_ += outstanding_live_ + votes_pending_;
  outstanding_live_ = 0;
  votes_pending_ = 0;
  tasks_.clear();
  spot_flushed_ += spot_outstanding_.size();
  spot_outstanding_.clear();
  instance_ = instance;
  job_ = job;
  task_count_ = job != nullptr ? job->tasks.size() : 0;
  next_spot_index_ = task_count_;
}

Verifier::PollGate Verifier::poll_gate(std::uint64_t pna_id) {
  const ReputationEntry* e = reputation(pna_id);
  if (e != nullptr && e->state == ReputationState::kQuarantined) {
    // Spot-check-only duty, rate-limited: a parole slot some of the time,
    // NoTask otherwise — a fast-returning adversary cannot grind the
    // dispatcher into feeding it unlimited spot work. An agent that has
    // burned its parole-failure budget gets no probes at all (permanent
    // quarantine): every failed probe was a wasted dispatch, and honest
    // nodes pass probes rather than fail them.
    if (options_.parole_failure_limit > 0 &&
        e->parole_failures >= options_.parole_failure_limit) {
      ++polls_denied_;
      return PollGate::kDeny;
    }
    const double p =
        std::min(1.0, options_.spot_check_rate * options_.quarantine_spot_boost);
    if (rng_.bernoulli(p)) return PollGate::kSpot;
    ++polls_denied_;
    return PollGate::kDeny;
  }
  return rng_.bernoulli(options_.spot_check_rate) ? PollGate::kSpot
                                                  : PollGate::kTask;
}

Verifier::SpotTask Verifier::make_spot_check(std::uint64_t pna_id) {
  SpotTask spot;
  spot.index = next_spot_index_++;
  if (job_ != nullptr && !job_->tasks.empty()) {
    // Clone a seeded-random real task's parameters so the spot check is
    // indistinguishable from real work on the wire and in execution time.
    const workload::Task& tpl =
        job_->tasks[rng_.uniform_u64(job_->tasks.size())];
    spot.input_size = tpl.input_size;
    spot.result_size = tpl.result_size;
    spot.reference_seconds = tpl.reference_seconds;
  }
  spot_outstanding_.emplace(spot.index, pna_id);
  ++spot_dispatched_;
  return spot;
}

bool Verifier::needs_replica(std::uint64_t index) const {
  const auto it = tasks_.find(index);
  if (it == tasks_.end()) return true;  // first dispatch ever
  const TaskState& task = it->second;
  if (task.concluded) return false;
  return task.live + task.weight < task.target;
}

bool Verifier::may_assign(std::uint64_t index, std::uint64_t pna_id,
                          bool region_strict) const {
  if (!needs_replica(index)) return false;
  const auto it = tasks_.find(index);
  if (it == tasks_.end()) return true;
  const TaskState& task = it->second;
  // Hard rule: a PNA votes at most once per task, ever — a colluder can
  // never stack a quorum alone, and a re-voted round never re-trusts a
  // node that already weighed in.
  if (std::find(task.servers.begin(), task.servers.end(), pna_id) !=
      task.servers.end()) {
    return false;
  }
  if (region_strict && region_fn_) {
    // Collusion-correlation rule: no two replicas of one task from the
    // same aggregator region when avoidable (colluding groups are modeled
    // as region-correlated, see fault::ByzantineTable).
    const std::uint32_t region = region_fn_(pna_id);
    for (const Vote& vote : task.votes) {
      if (vote.region == region) return false;
    }
    for (const std::uint64_t server : task.servers) {
      if (region_fn_(server) == region) return false;
    }
  }
  return true;
}

Verifier::Dispatch Verifier::on_dispatch(std::uint64_t index,
                                         std::uint64_t pna_id) {
  TaskState& task = tasks_[index];
  if (task.replicas_ever == 0) {
    // Quorum size decided at first dispatch: a trusted first assignee
    // earns the reduced-redundancy discount for the whole task.
    const ReputationEntry* e = reputation(pna_id);
    const bool trusted =
        e != nullptr && e->state == ReputationState::kTrusted;
    task.target =
        trusted ? options_.trusted_redundancy : options_.redundancy;
  } else if (task.target == 0) {
    task.target = options_.redundancy;
  }
  Dispatch dispatch;
  dispatch.replica = task.replicas_ever++;
  task.servers.push_back(pna_id);
  ++task.live;
  ++dispatched_;
  ++outstanding_live_;
  // Sequential quorum (the default): the task leaves the queue until this
  // replica's vote lands; on_result's kPending verdict re-queues it when
  // another replica is still wanted.
  dispatch.more_replicas = options_.eager_replicas &&
                           task.live + task.weight < task.target;
  return dispatch;
}

Verifier::Verdict Verifier::on_result(std::uint64_t index,
                                      std::uint64_t pna_id,
                                      std::uint64_t digest,
                                      obs::TraceContext trace,
                                      double elapsed_seconds) {
  if (options_.implausible_speedup > 0.0 && elapsed_seconds >= 0.0 &&
      job_ != nullptr && index < task_count_) {
    // Plausibility floor: no device in the fleet computes this task that
    // much faster than the reference machine, so an instant return is a
    // fabricated result regardless of how the quorum lands. The ledger
    // learns immediately; the vote still runs through the quorum below.
    const double floor =
        job_->tasks[index].reference_seconds / options_.implausible_speedup;
    if (elapsed_seconds < floor) {
      ++implausible_returns_;
      update_reputation(pna_id, /*agree=*/false, /*spot=*/false);
    }
  }
  TaskState& task = tasks_[index];
  if (task.live > 0) --task.live;
  if (outstanding_live_ > 0) --outstanding_live_;
  if (task.concluded) {
    // A straggler replica of an already-decided task: its dispatch has
    // been accounted verified/outvoted/discarded already, so write this
    // arrival off as discarded to keep the identity closed.
    ++discarded_;
    Verdict verdict;
    verdict.outcome = Verdict::Outcome::kPending;
    return verdict;
  }
  // Trusted-word discount, applied at vote time (so a promotion after the
  // task's first dispatch still pays off): a kTrusted vote weighs as much
  // as the replicas that standing saves, so it settles a fresh round alone
  // and outweighs one unproven dissenter, whichever of the two came first.
  const ReputationEntry* e = reputation(pna_id);
  const std::uint32_t weight =
      e != nullptr && e->state == ReputationState::kTrusted
          ? options_.redundancy - options_.trusted_redundancy + 1
          : 1;
  task.votes.push_back(Vote{pna_id, region_of(pna_id), digest, weight, trace});
  task.weight += weight;
  ++votes_pending_;
  if (task.weight < task.target) {
    Verdict verdict;
    verdict.outcome = Verdict::Outcome::kPending;
    // Sequential quorum: ask the Backend to re-queue the task when the
    // round still wants replicas that are neither live nor voted.
    verdict.requeue = task.live + task.weight < task.target;
    return verdict;
  }
  return conclude(index, task, trace);
}

Verifier::Verdict Verifier::conclude(std::uint64_t index, TaskState& task,
                                     obs::TraceContext trace) {
  // Strict weighted majority over the digests of this round.
  std::uint64_t winner = 0;
  std::uint32_t winner_weight = 0;
  for (const Vote& vote : task.votes) {
    std::uint32_t weight = 0;
    for (const Vote& other : task.votes) {
      if (other.digest == vote.digest) weight += other.weight;
    }
    if (weight > winner_weight) {
      winner_weight = weight;
      winner = vote.digest;
    }
  }
  Verdict verdict;
  if (winner_weight * 2 > task.weight) {
    // Quorum reached: settle every vote and the reputation of its caster.
    task.concluded = true;
    votes_pending_ -= task.votes.size();
    obs::TraceContext quorum_parent = trace;
    std::uint64_t agreeing = 0;
    for (const Vote& vote : task.votes) {
      const bool agreed = vote.digest == winner;
      if (agreed) {
        ++agreeing;
        ++verified_;
        quorum_parent = vote.trace;
      } else {
        ++outvoted_;
        emit(obs::TraceEventKind::kVerifyOutvoted, vote.trace, vote.pna_id,
             index);
      }
      update_reputation(vote.pna_id, agreed, /*spot=*/false);
    }
    emit(obs::TraceEventKind::kVerifyQuorum, quorum_parent, agreeing, index);
    ++tasks_verified_;
    verdict.outcome = Verdict::Outcome::kAccepted;
    verdict.wrong =
        winner != fault::honest_result_digest(instance_, index);
    if (verdict.wrong) ++wrong_results_;
    task.votes.clear();
    task.votes.shrink_to_fit();
    task.weight = 0;
    return verdict;
  }
  if (task.weight < options_.max_redundancy) {
    // Tie (e.g. a 2-quorum split): widen the vote by one replica. This is
    // a re-vote, not a retry — the Backend books it separately so a noisy
    // quorum never trips the per-task retry cap.
    task.target = task.weight + 1;
    ++escalations_;
    emit(obs::TraceEventKind::kVerifyEscalated, trace, task.target, index);
    verdict.outcome = Verdict::Outcome::kEscalated;
    verdict.requeue = true;
    return verdict;
  }
  // No majority even at the ceiling: drop the whole round and re-vote from
  // scratch (the per-task server history still excludes everyone who
  // already participated).
  discarded_ += task.votes.size();
  votes_pending_ -= task.votes.size();
  task.votes.clear();
  task.weight = 0;
  task.target = options_.redundancy;
  ++rounds_discarded_;
  verdict.outcome = Verdict::Outcome::kDiscarded;
  verdict.requeue = true;
  return verdict;
}

void Verifier::on_spot_result(std::uint64_t index, std::uint64_t pna_id,
                              std::uint64_t digest) {
  const auto it = spot_outstanding_.find(index);
  if (it == spot_outstanding_.end() || it->second != pna_id) {
    ++spot_stale_;
    return;
  }
  spot_outstanding_.erase(it);
  const bool pass = digest == fault::honest_result_digest(instance_, index);
  if (pass) {
    ++spot_passed_;
  } else {
    ++spot_failed_;
    emit(obs::TraceEventKind::kVerifySpotFailed, {}, pna_id, index);
  }
  update_reputation(pna_id, pass, /*spot=*/true);
}

void Verifier::on_replica_lost(std::uint64_t index) {
  auto it = tasks_.find(index);
  if (it == tasks_.end()) return;
  TaskState& task = it->second;
  if (task.live > 0) --task.live;
  if (outstanding_live_ > 0) --outstanding_live_;
  ++discarded_;
}

void Verifier::on_crash() {
  // Volatile quorum state dies with the process: every live replica and
  // every unresolved vote is written off (the ledger is durable).
  discarded_ += outstanding_live_ + votes_pending_;
  outstanding_live_ = 0;
  votes_pending_ = 0;
  for (auto& [index, task] : tasks_) {
    task.live = 0;
    task.votes.clear();
    task.weight = 0;
    if (!task.concluded) task.target = options_.redundancy;
  }
  spot_flushed_ += spot_outstanding_.size();
  spot_outstanding_.clear();
}

double Verifier::overhead_estimate() const {
  if (tasks_verified_.value() >= 16) {
    const double total = static_cast<double>(dispatched_.value() +
                                             spot_dispatched_.value());
    return std::max(1.0, total /
                             static_cast<double>(tasks_verified_.value()));
  }
  return std::max(1.0, static_cast<double>(options_.redundancy));
}

const ReputationEntry* Verifier::reputation(std::uint64_t pna_id) const {
  const auto it = ledger_.find(pna_id);
  return it != ledger_.end() ? &it->second : nullptr;
}

ReputationEntry& Verifier::entry(std::uint64_t pna_id) {
  auto [it, inserted] = ledger_.try_emplace(pna_id);
  if (inserted) {
    it->second.score = options_.initial_reputation;
    it->second.epoch = epoch_;
  }
  return it->second;
}

void Verifier::update_reputation(std::uint64_t pna_id, bool agree,
                                 bool spot) {
  ReputationEntry& e = entry(pna_id);
  e.score = (1.0 - options_.ewma_alpha) * e.score +
            options_.ewma_alpha * (agree ? 1.0 : 0.0);
  ++e.observations;
  if (e.state == ReputationState::kQuarantined) {
    // Only spot checks (the precomputed-answer probes) can parole: a
    // quarantined node gets no real replicas, so agreement evidence from
    // pre-quarantine dispatches cannot launder its standing.
    if (!spot) return;
    if (!agree) {
      e.parole_streak = 0;
      ++e.parole_failures;
      return;
    }
    if (++e.parole_streak >= options_.parole_checks) {
      e.state = ReputationState::kProbation;
      e.score = options_.initial_reputation;
      e.parole_streak = 0;
      e.parole_failures = 0;
      e.epoch = ++epoch_;
      if (quarantined_now_ > 0) --quarantined_now_;
      ++paroles_;
      emit(obs::TraceEventKind::kReputationParoled, {}, pna_id, e.epoch);
    }
    return;
  }
  if (e.score < options_.quarantine_below) {
    e.state = ReputationState::kQuarantined;
    e.parole_streak = 0;
    e.epoch = ++epoch_;
    ++quarantined_now_;
    ++quarantines_;
    emit(obs::TraceEventKind::kReputationQuarantined, {}, pna_id, e.epoch);
    return;
  }
  if (e.state == ReputationState::kProbation &&
      e.score >= options_.trusted_above &&
      e.observations >= options_.min_observations) {
    e.state = ReputationState::kTrusted;
    e.epoch = ++epoch_;
    ++trusted_promotions_;
  } else if (e.state == ReputationState::kTrusted &&
             e.score < options_.trusted_above) {
    e.state = ReputationState::kProbation;
    e.epoch = ++epoch_;
  }
}

Verifier::Stats Verifier::stats() const {
  Stats s;
  s.dispatched = dispatched_.value();
  s.verified = verified_.value();
  s.outvoted = outvoted_.value();
  s.discarded = discarded_.value();
  s.outstanding = outstanding_live_ + votes_pending_;
  s.tasks_verified = tasks_verified_.value();
  s.wrong_results = wrong_results_.value();
  s.escalations = escalations_.value();
  s.rounds_discarded = rounds_discarded_.value();
  s.spot_dispatched = spot_dispatched_.value();
  s.spot_passed = spot_passed_.value();
  s.spot_failed = spot_failed_.value();
  s.spot_flushed = spot_flushed_.value();
  s.spot_outstanding = spot_outstanding_.size();
  s.polls_denied = polls_denied_.value();
  s.region_relaxed = region_relaxed_.value();
  s.implausible_returns = implausible_returns_.value();
  s.quarantines = quarantines_.value();
  s.paroles = paroles_.value();
  s.trusted_promotions = trusted_promotions_.value();
  s.quarantined_now = quarantined_now_;
  return s;
}

void Verifier::emit(obs::TraceEventKind kind, obs::TraceContext parent,
                    std::uint64_t actor, std::uint64_t arg) {
  if (recorder_ == nullptr) return;
  recorder_->emit(simulation_->now(), kind, obs::TraceComponent::kBackend,
                  parent, actor, arg);
}

}  // namespace oddci::core
