#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "control/policy.hpp"
#include "core/messages.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "workload/job.hpp"

/// The OddCI Backend: manages the particular activities of one running
/// application — scheduling (bag-of-tasks dispatch to pulling PNAs),
/// provision of input data, and gathering of results.
///
/// Fault tolerance: tasks assigned to PNAs that disappear (churn) are
/// re-queued after `task_timeout`; duplicate results (a re-queued task
/// completed twice) are counted but only the first is kept.
///
/// Byzantine defense: with a Verifier attached (set_verifier), dispatch
/// becomes k-way redundant with quorum voting over result digests, task
/// polls may be answered with seeded spot-checks, and the outstanding
/// table is keyed per (task, replica). Without one, every verified-path
/// branch is skipped and the naive trajectory is byte-identical to the
/// pre-verification tree.
namespace oddci::core {

class Verifier;

struct BackendOptions {
  /// An outstanding assignment is re-queued after this long. Zero disables
  /// re-dispatch (suitable for churn-free runs).
  sim::SimTime task_timeout = sim::SimTime::zero();
  /// Cadence of the timeout sweep (only when task_timeout > 0).
  sim::SimTime sweep_interval = sim::SimTime::from_seconds(15);
  /// Per-task requeue cap: a task re-queued this many times is reported
  /// failed (and the job with it) instead of silently re-dispatched
  /// forever. Zero = unbounded (the pre-fault-injection behaviour).
  /// Crash-recovery requeues are exempt: they re-dispatch work the Backend
  /// lost, not work that keeps failing.
  int max_task_retries = 0;
  /// Acknowledge every received result with a TaskResultAckMessage so the
  /// sending PNA can stop its bounded upload retry. Off by default: without
  /// fault injection the wire never loses a result and the ack would be
  /// pure extra traffic.
  bool ack_results = false;
};

struct JobMetrics {
  sim::SimTime submitted_at;
  std::optional<sim::SimTime> completed_at;
  std::size_t task_count = 0;
  std::uint64_t assignments = 0;
  std::uint64_t reassignments = 0;
  std::uint64_t results_received = 0;
  /// Results for a task already done while the job was still active
  /// (re-dispatch or duplicate delivery finishing twice).
  std::uint64_t duplicate_results = 0;
  /// Results that arrived after the job ended (stragglers of the final
  /// re-dispatch wave).
  std::uint64_t late_results = 0;
  std::uint64_t aborts_received = 0;  ///< tasks handed back by reset PNAs
  std::uint64_t requests_denied = 0;  ///< NoTask replies
  std::uint64_t tasks_failed = 0;     ///< tasks that hit the retry cap
  std::uint64_t crash_requeues = 0;   ///< assignments lost to a Backend crash

  [[nodiscard]] double makespan_seconds() const {
    return completed_at ? (*completed_at - submitted_at).seconds() : -1.0;
  }
};

class Backend final : public net::Endpoint {
 public:
  Backend(sim::Simulation& simulation, net::Network& network,
          const net::LinkSpec& link, BackendOptions options = {});
  ~Backend() override;

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  [[nodiscard]] net::NodeId node_id() const { return node_id_; }

  /// Adjust the re-dispatch timeout. Takes effect immediately: the sweep
  /// task is started, retuned, or cancelled in place (zero disables
  /// re-dispatch even mid-job).
  void set_task_timeout(sim::SimTime timeout);
  [[nodiscard]] sim::SimTime task_timeout() const {
    return options_.task_timeout;
  }

  /// Submit a job to be served to PNAs of `instance`. Only one job may be
  /// active at a time (the paper pairs one Backend with one application).
  /// `on_complete` fires when the last result arrives. The makespan clock
  /// starts now unless an explicit `clock_start` is given (e.g. the moment
  /// the Provider requested the instance, to include the wakeup overhead).
  /// `trace` is the causal context the job's task events chain off (the
  /// instance's control.format context, typically).
  void submit(const workload::Job& job, InstanceId instance,
              std::function<void()> on_complete,
              std::optional<sim::SimTime> clock_start = std::nullopt,
              obs::TraceContext trace = {});

  /// Phi-driven job admission: consult the attached decision engine with
  /// the job's suitability parameters. True (always, without an engine or
  /// with the default floor of 0) means the job may be submitted; false
  /// means the engine deferred it — don't request an instance for it.
  /// Counting call: the engine tallies the verdict, so gate each job once.
  [[nodiscard]] bool would_admit(const workload::Job& job);

  /// Attach the decision engine consulted by would_admit(); nullptr (the
  /// default) admits everything.
  void set_decision_engine(control::DecisionEngine* engine) {
    engine_ = engine;
  }
  /// Parameters of the admission request: the per-node direct-channel
  /// capacity delta and the device slowdown scaling reference task seconds
  /// onto the member devices.
  void set_admission_context(util::BitRate delta, double task_slowdown) {
    admission_delta_ = delta;
    admission_slowdown_ = task_slowdown;
  }

  /// Attach the Byzantine-defense verifier consulted on every dispatch and
  /// result (nullptr, the default, keeps the naive single-dispatch path).
  /// Attach before the first submit(); the verifier must outlive the
  /// Backend's jobs.
  void set_verifier(Verifier* verifier) { verifier_ = verifier; }
  [[nodiscard]] Verifier* verifier() const { return verifier_; }

  [[nodiscard]] bool job_active() const { return active_; }
  /// True once a task exhausted its retry cap: the job ended (on_complete
  /// fired) but did not succeed.
  [[nodiscard]] bool job_failed() const { return job_failed_; }
  [[nodiscard]] std::size_t tasks_remaining() const {
    return pending_.size() + outstanding_.size();
  }
  [[nodiscard]] std::size_t tasks_done() const { return done_count_; }
  [[nodiscard]] const JobMetrics& metrics() const { return metrics_; }

  /// Per-task completion times (seconds since clock start), for percentile
  /// analyses.
  [[nodiscard]] const std::vector<double>& completion_times() const {
    return completion_times_;
  }

  /// Dispatch -> first result latency per task, across jobs.
  [[nodiscard]] const obs::LogHistogram& task_cycle_latency() const {
    return task_cycle_;
  }

  /// Expose the dispatch histogram and queue-depth probes under
  /// "backend.*" in `registry`. The backend must outlive snapshot() calls.
  void link_metrics(obs::MetricsRegistry& registry) const;

  /// Attach a flight recorder: dispatch/result/abort/requeue hops are
  /// emitted as causally linked events, and assignments carry the context
  /// to the executing PNA. nullptr detaches.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }

  /// Fault injection: drop off the network and lose all in-flight state
  /// (the outstanding-assignment table). The durable job ledger — which
  /// tasks are done, failed, or pending, and the per-task retry counts —
  /// survives, as a real Backend would keep it in stable storage.
  void crash();
  /// Fault injection: come back up. Re-queues every task that was
  /// outstanding at crash time (its assignment record is gone, so the
  /// timeout sweep could never reclaim it).
  void restart();

  // --- net::Endpoint -------------------------------------------------------
  void on_message(net::NodeId from, const net::MessagePtr& message) override;

 private:
  struct Outstanding {
    net::NodeId assignee;
    sim::SimTime assigned_at;
    obs::TraceContext trace;  ///< context of the dispatch event
  };

  /// Outstanding-table key: task index in the low bits, replica slot in the
  /// high 16. The naive path always dispatches replica 0, so its keys stay
  /// numerically identical to the raw task index.
  static constexpr std::uint64_t kReplicaShift = 48;
  static constexpr std::uint64_t kIndexMask = (1ull << kReplicaShift) - 1;
  [[nodiscard]] static constexpr std::uint64_t vkey(
      std::uint64_t index, std::uint32_t replica) noexcept {
    return index | (static_cast<std::uint64_t>(replica) << kReplicaShift);
  }

  void handle_request(net::NodeId from, const TaskRequestMessage& request);
  void handle_request_verified(net::NodeId from,
                               const TaskRequestMessage& request);
  void handle_result(net::NodeId from, const TaskResultMessage& result);
  void handle_result_verified(net::NodeId from,
                              const TaskResultMessage& result);
  void sweep_timeouts();
  /// Re-queue `index` unless it exhausted the retry cap (then the task —
  /// and with it the job — is failed). Returns true when re-queued.
  bool note_retry(std::uint64_t index);
  /// Mark-aware pending push: in verified mode a task needing more replicas
  /// may already sit in the queue; it is never queued twice.
  void push_pending(std::uint64_t index);
  void fail_task(std::uint64_t index);
  void check_job_done();
  void arm_sweeper();

  sim::Simulation& simulation_;
  net::Network& network_;
  BackendOptions options_;
  net::NodeId node_id_ = net::kInvalidNode;

  bool active_ = false;
  InstanceId instance_ = kNoInstance;
  obs::TraceContext job_trace_;
  workload::Job job_;
  std::function<void()> on_complete_;

  std::deque<std::uint64_t> pending_;                     // task indices
  std::unordered_map<std::uint64_t, Outstanding> outstanding_;
  std::vector<bool> done_;
  std::size_t done_count_ = 0;
  /// Times each task has been re-queued (timeout or abort); checked
  /// against max_task_retries.
  std::vector<std::uint16_t> retry_counts_;
  std::vector<bool> failed_;
  std::size_t failed_count_ = 0;
  bool job_failed_ = false;
  bool crashed_ = false;
  JobMetrics metrics_;
  std::vector<double> completion_times_;

  sim::PeriodicTask sweeper_;
  bool sweeper_running_ = false;

  control::DecisionEngine* engine_ = nullptr;
  util::BitRate admission_delta_;
  double admission_slowdown_ = 1.0;

  Verifier* verifier_ = nullptr;
  /// Verified mode only: 1 while the task index sits in pending_ (a task
  /// needing several replicas is queued once, not once per replica).
  std::vector<std::uint8_t> pending_marks_;
  /// Verified mode only: quorum-driven re-queues (escalations and dropped
  /// rounds) per task — deliberately separate from retry_counts_ so a
  /// noisy vote can never trip the loss-retry cap.
  std::vector<std::uint16_t> revote_counts_;

  obs::LogHistogram task_cycle_{1e-3};
  /// Retry count of each task at first-result time (how many dispatches a
  /// completed task actually took).
  obs::LogHistogram task_retries_{1.0};
  /// Verified mode: revote count of each task at conclusion time.
  obs::LogHistogram task_revotes_{1.0};
  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace oddci::core
