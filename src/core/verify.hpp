#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "fault/byzantine.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "workload/job.hpp"

/// Backend-side Byzantine defense: k-way redundant dispatch with quorum
/// voting over the canonical result digest, seeded spot-check tasks with
/// precomputed answers, and a per-PNA reputation ledger feeding the
/// dispatch policy.
///
/// Determinism contract: the Verifier draws from one dedicated named RNG
/// stream (`verify.dispatch`) and is only ever invoked from the Backend's
/// message handlers, which run on the control shard at any K — so the draw
/// order, and with it the whole verified trajectory, is byte-identical per
/// (seed, K). With `VerifyOptions::enabled` false the Backend never
/// constructs a Verifier: no draws, no metric cells, no behavioral branch,
/// and the naive path stays byte-identical to the pre-verification tree.
namespace oddci::core {

using InstanceId = std::uint64_t;

struct VerifyOptions {
  bool enabled = false;
  /// Replicas per task for unproven (probation) first assignees.
  std::uint32_t redundancy = 2;
  /// Replicas when the first assignee has earned kTrusted standing — the
  /// verified-throughput discount (1 = accept a trusted node's word).
  /// Also applied at vote time: a vote cast by a kTrusted node weighs
  /// redundancy - trusted_redundancy + 1 in the quorum, so it settles a
  /// fresh round alone and outweighs one unproven dissenter.
  std::uint32_t trusted_redundancy = 1;
  /// Queue all `target` replicas of a task immediately (classic parallel
  /// k-way dispatch) instead of the default sequential quorum, where the
  /// next replica is requested only after the previous vote arrives.
  /// Sequential mode trades task latency for dispatch economy: a task
  /// whose first vote comes from a by-then-trusted node concludes after a
  /// single dispatch instead of burning the full redundancy up front.
  bool eager_replicas = false;
  /// Escalation ceiling: a vote that cannot reach a strict majority by
  /// this many replicas is discarded wholesale and the task re-voted.
  std::uint32_t max_redundancy = 5;
  /// Probability that a task poll is answered with a seeded spot-check
  /// task (precomputed answer, indistinguishable from real work).
  double spot_check_rate = 0.05;
  /// Quarantined agents are offered parole spot-checks at this multiple
  /// of spot_check_rate (capped at 1); their other polls are denied.
  double quarantine_spot_boost = 4.0;
  /// Failed parole probes after which a quarantined agent is cut off from
  /// spot checks entirely (permanent quarantine) — a node that keeps
  /// failing precomputed-answer probes cannot grind the dispatcher into
  /// feeding it probe work forever. Honest nodes pass probes, so a
  /// wrongly quarantined one paroles long before hitting this. 0 = never.
  std::uint32_t parole_failure_limit = 4;
  /// Plausibility floor for result turnaround: a result returned in under
  /// reference_seconds / implausible_speedup simulated seconds is
  /// physically impossible for the device fleet (the free-rider tell —
  /// instant garbage instead of compute) and books an immediate
  /// disagreement observation, without waiting for the quorum. The vote
  /// itself still stands and is adjudicated normally. 0 disables.
  double implausible_speedup = 64.0;
  /// Reputation EWMA: score <- (1-alpha)*score + alpha*outcome.
  double ewma_alpha = 0.25;
  double initial_reputation = 0.5;
  /// Falling below this quarantines the agent into spot-check-only duty.
  double quarantine_below = 0.25;
  /// At or above this (with enough observations) earns kTrusted standing.
  double trusted_above = 0.9;
  /// Observations required before kTrusted is reachable.
  std::uint32_t min_observations = 8;
  /// Consecutive spot-check passes that parole a quarantined agent.
  std::uint32_t parole_checks = 3;
  /// 0 = derive from the system seed via stream_seed("verify.dispatch").
  std::uint64_t seed = 0;

  void validate() const;
};

enum class ReputationState : std::uint8_t {
  kProbation = 0,  ///< default standing: full redundancy applies
  kTrusted,        ///< consistent agreement: reduced redundancy earned
  kQuarantined,    ///< spot-check-only duty until paroled
};

[[nodiscard]] std::string_view to_string(ReputationState state);

/// Per-PNA reputation ledger entry (EWMA of agreement and spot-check
/// outcomes, epoch-stamped at every standing transition).
struct ReputationEntry {
  double score = 0.5;
  std::uint64_t observations = 0;
  std::uint32_t epoch = 0;
  std::uint32_t parole_streak = 0;
  std::uint32_t parole_failures = 0;  ///< failed probes this quarantine
  ReputationState state = ReputationState::kProbation;
};

class Verifier {
 public:
  Verifier(sim::Simulation& simulation, VerifyOptions options,
           std::uint64_t seed);

  /// Collusion-correlation key for replica routing: region of a PNA id
  /// (its aggregator shard). Unset or single-region deployments place
  /// everyone in region 0 and the diversity rule is vacuous.
  using RegionFn = std::function<std::uint32_t(std::uint64_t pna_id)>;
  void set_region_fn(RegionFn fn) { region_fn_ = std::move(fn); }
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }
  /// Registers the verify.* / reputation.* cells; call only when the
  /// subsystem is on (no phantom cells in verify-off snapshots).
  void link_metrics(obs::MetricsRegistry& registry);

  /// Reset per-job vote state (reputation persists across jobs). Unresolved
  /// replicas and votes of a previous job are flushed into `discarded`.
  void begin_job(InstanceId instance, const workload::Job* job);

  // --- dispatch-side decisions (Backend::handle_request) --------------------

  enum class PollGate : std::uint8_t {
    kTask = 0,  ///< serve a real task replica
    kSpot,      ///< serve a seeded spot-check task
    kDeny,      ///< quarantined and no parole slot this poll: NoTask
  };
  /// One RNG draw per poll (handler-ordered, hence deterministic).
  [[nodiscard]] PollGate poll_gate(std::uint64_t pna_id);

  struct SpotTask {
    std::uint64_t index = 0;  ///< >= job task count: the spot index space
    util::Bits input_size;
    util::Bits result_size;
    double reference_seconds = 0.0;
  };
  /// Mint a spot-check task for `pna`: parameters cloned from a seeded
  /// random real task (indistinguishable on the wire), expected answer
  /// derivable as honest_result_digest(instance, index).
  [[nodiscard]] SpotTask make_spot_check(std::uint64_t pna_id);
  [[nodiscard]] bool is_spot_index(std::uint64_t index) const {
    return index >= task_count_;
  }

  /// Task still needs replicas dispatched (not concluded, current round's
  /// live + voted below target)?
  [[nodiscard]] bool needs_replica(std::uint64_t index) const;
  /// May `pna` serve a replica of `index`? Never a PNA that already served
  /// the task; with `region_strict`, never one sharing an aggregator
  /// region with a current participant (the collusion-correlation rule).
  [[nodiscard]] bool may_assign(std::uint64_t index, std::uint64_t pna_id,
                                bool region_strict) const;
  /// The Backend fell back to the region-relaxed pass for a dispatch.
  void note_region_relaxed() { ++region_relaxed_; }

  struct Dispatch {
    std::uint32_t replica = 0;  ///< replica slot (unique per task, ever)
    bool more_replicas = false; ///< caller should requeue the task
  };
  Dispatch on_dispatch(std::uint64_t index, std::uint64_t pna_id);

  // --- result-side decisions (Backend::handle_result) -----------------------

  struct Verdict {
    enum class Outcome : std::uint8_t {
      kPending = 0,  ///< vote recorded, quorum incomplete
      kAccepted,     ///< strict majority: task verified
      kEscalated,    ///< tie at target: target raised, task requeued
      kDiscarded,    ///< tie at max_redundancy: round dropped, re-voted
    };
    Outcome outcome = Outcome::kPending;
    bool requeue = false;  ///< push the task back for another replica
    bool wrong = false;    ///< accepted digest != honest ground truth
  };
  /// A live replica's result arrived (the caller verified the replica was
  /// outstanding). Records the vote, concludes or escalates the quorum,
  /// and applies reputation outcomes on conclusion. `elapsed_seconds` is
  /// the dispatch-to-result turnaround for the plausibility check
  /// (negative = unknown, check skipped).
  Verdict on_result(std::uint64_t index, std::uint64_t pna_id,
                    std::uint64_t digest, obs::TraceContext trace,
                    double elapsed_seconds = -1.0);
  /// Spot-check result: grade against the precomputed answer, update the
  /// ledger (parole bookkeeping for quarantined agents). Unknown or
  /// duplicate spot indices are counted and ignored.
  void on_spot_result(std::uint64_t index, std::uint64_t pna_id,
                      std::uint64_t digest);
  /// A replica slot was freed without a result (timeout / abort / crash of
  /// the assignee): the dispatch is written off as discarded.
  void on_replica_lost(std::uint64_t index);
  /// Backend crash: every live replica and every unresolved vote dies with
  /// the volatile quorum state (the reputation ledger is durable).
  void on_crash();

  // --- reads ----------------------------------------------------------------

  /// Observed dispatches (incl. spot checks) per verified task — the
  /// redundancy overhead factor discounting Phi-driven admission. Falls
  /// back to the configured redundancy until enough tasks concluded.
  [[nodiscard]] double overhead_estimate() const;
  [[nodiscard]] const ReputationEntry* reputation(std::uint64_t pna_id) const;
  [[nodiscard]] const VerifyOptions& options() const { return options_; }

  /// Conservation + detection view. Identity (health-audited):
  ///   dispatched == verified + outvoted + discarded + outstanding
  /// with outstanding = live replicas + votes awaiting a quorum; spot
  /// checks balance separately (sent == passed + failed + outstanding).
  struct Stats {
    std::uint64_t dispatched = 0;       ///< real-task replica dispatches
    std::uint64_t verified = 0;         ///< votes that agreed with a quorum
    std::uint64_t outvoted = 0;         ///< votes a quorum rejected
    std::uint64_t discarded = 0;        ///< lost replicas + dropped rounds
    std::uint64_t outstanding = 0;      ///< live replicas + pending votes
    std::uint64_t tasks_verified = 0;   ///< unique tasks concluded
    std::uint64_t wrong_results = 0;    ///< accepted quorums that were wrong
    std::uint64_t escalations = 0;
    std::uint64_t rounds_discarded = 0;
    std::uint64_t spot_dispatched = 0;
    std::uint64_t spot_passed = 0;
    std::uint64_t spot_failed = 0;
    std::uint64_t spot_flushed = 0;     ///< spot dispatches written off
    std::uint64_t spot_outstanding = 0;
    std::uint64_t polls_denied = 0;
    std::uint64_t region_relaxed = 0;   ///< dispatches past the region rule
    std::uint64_t implausible_returns = 0;  ///< faster-than-physics results
    std::uint64_t quarantines = 0;
    std::uint64_t paroles = 0;
    std::uint64_t trusted_promotions = 0;
    std::uint64_t quarantined_now = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Vote {
    std::uint64_t pna_id = 0;
    std::uint32_t region = 0;
    std::uint64_t digest = 0;
    std::uint32_t weight = 1;           ///< trusted votes weigh more
    obs::TraceContext trace;
  };
  struct TaskState {
    std::uint32_t target = 0;           ///< current round's quorum size
    std::uint32_t live = 0;             ///< replicas assigned, no result yet
    std::uint32_t weight = 0;           ///< summed weight of `votes`
    std::uint32_t replicas_ever = 0;    ///< replica-number allocator
    bool concluded = false;
    std::vector<Vote> votes;            ///< this round's arrived digests
    std::vector<std::uint64_t> servers; ///< every PNA ever assigned
  };

  [[nodiscard]] std::uint32_t region_of(std::uint64_t pna_id) const {
    return region_fn_ ? region_fn_(pna_id) : 0;
  }
  ReputationEntry& entry(std::uint64_t pna_id);
  /// Fold one agreement/spot outcome into the ledger and run the standing
  /// transitions (quarantine, parole, trusted promotion/demotion).
  void update_reputation(std::uint64_t pna_id, bool agree, bool spot);
  Verdict conclude(std::uint64_t index, TaskState& task,
                   obs::TraceContext trace);
  void emit(obs::TraceEventKind kind, obs::TraceContext parent,
            std::uint64_t actor, std::uint64_t arg);

  sim::Simulation* simulation_;
  VerifyOptions options_;
  util::Random rng_;
  RegionFn region_fn_;
  obs::FlightRecorder* recorder_ = nullptr;

  InstanceId instance_ = 0;
  const workload::Job* job_ = nullptr;
  std::uint64_t task_count_ = 0;
  std::uint64_t next_spot_index_ = 0;

  std::unordered_map<std::uint64_t, TaskState> tasks_;
  /// Spot index -> assignee (answers are recomputed, not stored).
  std::unordered_map<std::uint64_t, std::uint64_t> spot_outstanding_;
  std::unordered_map<std::uint64_t, ReputationEntry> ledger_;
  std::uint32_t epoch_ = 0;

  // Conservation counters (see Stats). `outstanding` is derived:
  // outstanding_live_ + votes_pending_.
  obs::Counter dispatched_;
  obs::Counter verified_;
  obs::Counter outvoted_;
  obs::Counter discarded_;
  obs::Counter tasks_verified_;
  obs::Counter wrong_results_;
  obs::Counter escalations_;
  obs::Counter rounds_discarded_;
  obs::Counter spot_dispatched_;
  obs::Counter spot_passed_;
  obs::Counter spot_failed_;
  obs::Counter spot_stale_;
  obs::Counter spot_flushed_;
  obs::Counter polls_denied_;
  obs::Counter region_relaxed_;
  obs::Counter implausible_returns_;
  obs::Counter quarantines_;
  obs::Counter paroles_;
  obs::Counter trusted_promotions_;
  std::uint64_t outstanding_live_ = 0;
  std::uint64_t votes_pending_ = 0;
  std::uint64_t quarantined_now_ = 0;
};

}  // namespace oddci::core
