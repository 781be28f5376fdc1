#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/content_store.hpp"
#include "core/dve.hpp"
#include "core/messages.hpp"
#include "dtv/receiver.hpp"
#include "dtv/xlet.hpp"
#include "fault/byzantine.hpp"
#include "net/message_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

/// Processing Node Agent (PNA).
///
/// The PNA is deployed as a trigger Xlet (AUTOSTART in the AIT): every
/// tuned receiver loads and starts it. It listens to the broadcast channel
/// for signed control messages, manages the DVE that runs the user image,
/// sends periodic heartbeats to the Controller over the direct channel, and
/// drives the Backend task-pull loop while busy.
namespace oddci::core {

/// PNA configuration shared by the agents of one shard (what the
/// carousel's configuration file and the agent's build-time defaults
/// provide, plus the shard's instrument and fast-path cells).
struct PnaEnvironment {
  const ContentStore* content_store = nullptr;
  broadcast::SigningKey trusted_key = 0;
  /// Retry period for polling the Backend after a NoTask reply.
  sim::SimTime task_poll_interval = sim::SimTime::from_seconds(10);

  /// Population-wide counters shared by every agent of one system
  /// (nullable: standalone agents run uninstrumented). Per-agent PnaStats
  /// stay per-agent.
  obs::PnaCounters* counters = nullptr;
  /// Wakeup accept -> image acquired, across the population (nullable).
  obs::LogHistogram* acquire_latency = nullptr;
  /// Causal flight recorder shared by the population (nullable: tracing
  /// off). Agents emit receipt/decision/heartbeat/task events and carry
  /// contexts onto outgoing messages.
  obs::FlightRecorder* recorder = nullptr;

  /// Heartbeat pacing window (zero = off, the legacy fire-immediately
  /// path). With a window, every beat — periodic or event-driven — is
  /// deferred to this agent's deterministic phase slot within the window
  /// and beats that coalesce while one is pending are absorbed, so a
  /// population-wide wakeup storm spreads over the window instead of
  /// landing on the return channel in one burst.
  sim::SimTime heartbeat_pace_window;
  /// Root of the per-agent pacing phase (a dedicated named RNG stream, so
  /// enabling pacing never perturbs the population's draw sequences).
  std::uint64_t heartbeat_phase_seed = 0;

  // --- fan-out fast path (both required) ------------------------------------

  /// Memoized signature verification shared by every agent of one shard:
  /// with N agents sharing one cache, a broadcast costs one keyed hash,
  /// not N.
  broadcast::VerifyCache* verify_cache = nullptr;
  /// Heartbeat recycling pool shared the same way (see net::MessagePool).
  net::MessagePool<HeartbeatMessage>* heartbeat_pool = nullptr;

  // --- fault-injection recovery protocol (nullable: with no Recovery block
  // the agent speaks the zero-fault wire protocol, bit for bit) ---------------

  /// Bounded result-upload retry and task-request watchdog parameters,
  /// plus the population-wide recovery.* counters.
  struct Recovery {
    /// Retry attempts before an unacknowledged result is abandoned (the
    /// Backend's timeout sweep then re-dispatches the task).
    int result_retry_limit = 4;
    /// First retry delay; doubles per attempt, with deterministic jitter.
    sim::SimTime result_retry_base = sim::SimTime::from_seconds(2);
    /// A busy agent whose task request went unanswered re-asks after this
    /// (covers lost requests, lost assignments, and a crashed Backend).
    sim::SimTime request_watchdog = sim::SimTime::from_seconds(45);
    obs::Counter result_retries;
    obs::Counter request_retries;
  };
  Recovery* recovery = nullptr;

  // --- Byzantine adversary model (nullable: with no block attached the
  // agent stamps no result digests — the pre-verification wire bytes,
  // bit for bit) -------------------------------------------------------------

  /// Adversarial profile table plus the node-id base mapping node ids back
  /// to receiver indices. Attached when Byzantine profiles or verified
  /// execution are configured; honest agents then stamp the canonical
  /// digest on every result, adversaries follow their profile. A null
  /// `table` (verification on, zero adversaries) means everyone is honest.
  struct Byzantine {
    const fault::ByzantineTable* table = nullptr;
    net::NodeId base = 0;  ///< node id of receiver index 0
  };
  const Byzantine* byzantine = nullptr;
};

struct PnaStats {
  std::uint64_t control_messages_seen = 0;
  std::uint64_t signature_failures = 0;
  std::uint64_t wakeups_dropped_busy = 0;
  std::uint64_t wakeups_rejected_requirements = 0;
  std::uint64_t wakeups_dropped_probability = 0;
  std::uint64_t joins = 0;
  std::uint64_t resets = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t heartbeats_sent = 0;
};

class PnaXlet final : public dtv::Xlet, public dtv::CarouselAware {
 public:
  /// `environment` is shared by reference across the agents of one shard
  /// and must outlive the Xlet (one copy per shard, not one per agent).
  PnaXlet(const PnaEnvironment& environment, std::uint64_t seed);
  ~PnaXlet() override;

  // --- dtv::Xlet ----------------------------------------------------------
  void init_xlet(dtv::XletContext& context) override;
  void start_xlet() override;
  void pause_xlet() override;
  void destroy_xlet(bool unconditional) override;

  // --- dtv::CarouselAware ---------------------------------------------------
  void on_carousel_update(
      const broadcast::CarouselSnapshot& snapshot) override;

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] PnaState state() const {
    if (dve_) return PnaState::kBusy;
    if (pending_join_) return PnaState::kJoining;
    return PnaState::kIdle;
  }
  [[nodiscard]] InstanceId instance() const {
    if (dve_) return dve_->instance();
    if (pending_join_) return *pending_join_;
    return kNoInstance;
  }
  [[nodiscard]] const Dve* dve() const { return dve_.get(); }
  [[nodiscard]] const PnaStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t pna_id() const;

  // --- fault injection -------------------------------------------------------

  /// Crash the agent process: every outstanding callback and timer dies,
  /// all state (DVE, pending join, pending result, heartbeat) is lost, and
  /// the middleware watchdog relaunches the trigger Xlet, which re-reads
  /// the on-air configuration. A mid-task crash sends no abort — the
  /// Backend's timeout sweep recovers the task. Returns false when the
  /// Xlet is not running.
  bool fault_crash();
  /// Freeze the agent for `duration`: timers and message handling stop
  /// (heartbeats go silent, the Controller prunes it as stale), then the
  /// watchdog kills and relaunches it like fault_crash(). Returns false
  /// when not running or already hung.
  bool fault_hang(sim::SimTime duration);

 private:
  void acquire_config();
  /// Verification resolves against the broadcast's shared canonical
  /// bytes and digest, memoized in the environment's VerifyCache.
  void handle_control(const PreparedControl& prepared);
  void handle_wakeup(const ControlMessage& message);
  void handle_reset(const ControlMessage& message);
  void join_instance(const ControlMessage& message);
  void leave_instance();

  void ensure_heartbeat(const ControlMessage& message);
  /// Pacing gate: immediate in the legacy path, deferred to this agent's
  /// phase slot (coalescing) when the environment sets a pace window.
  void send_heartbeat();
  /// Build and transmit the beat (the legacy send_heartbeat body).
  void send_heartbeat_now();

  void request_task();
  void schedule_task_poll();
  void on_direct_message(net::NodeId from, const net::MessagePtr& message);

  /// Schedule the next bounded-backoff retry of pending_result_.
  void arm_result_retry();
  /// Schedule the unanswered-task-request watchdog.
  void arm_request_watchdog();

  /// Emit a trace event (no-op returning {} when no recorder is attached).
  obs::TraceContext trace_emit(obs::TraceEventKind kind,
                               obs::TraceContext parent, std::uint64_t arg);

  /// Shard-wide environment, shared (not copied) by its agents: at 1M
  /// agents an embedded copy is ~100 MB of identical bytes.
  const PnaEnvironment* env_;
  util::Random rng_;
  dtv::XletContext* context_ = nullptr;
  bool started_ = false;

  /// Guards async callbacks (carousel reads, scheduled polls) against the
  /// Xlet having been destroyed.
  std::shared_ptr<bool> alive_;

  std::unique_ptr<Dve> dve_;
  /// A wakeup accepted but whose image is still being read from the
  /// carousel; a reset or a competing wakeup cancels it.
  std::optional<InstanceId> pending_join_;

  net::NodeId controller_node_ = net::kInvalidNode;
  /// Where heartbeats go: the Controller itself, or this agent's shard
  /// aggregator when the control message configured an aggregation tier.
  net::NodeId heartbeat_target_ = net::kInvalidNode;
  net::NodeId backend_node_ = net::kInvalidNode;
  sim::PeriodicTask heartbeat_;
  bool heartbeat_running_ = false;
  /// A paced beat is already scheduled for this agent's next phase slot;
  /// further beats coalesce into it (the slot sends the *current* state).
  bool pace_pending_ = false;
  sim::SimTime heartbeat_interval_;
  /// Content ids of the last configuration handled and of the read in
  /// flight: the same broadcast generation announced twice (launch
  /// signalling) is acquired and processed once.
  std::uint64_t last_handled_content_ = 0;
  std::uint64_t pending_read_content_ = 0;

  std::optional<dtv::Receiver::ExecToken> running_exec_;
  /// Task index currently executing (for abort notification on reset).
  std::optional<std::uint64_t> running_task_;
  /// Replica slot of the running task (echoed on results and aborts).
  std::uint32_t running_replica_ = 0;
  /// When the pending join's image read started (acquire latency).
  sim::SimTime join_started_at_;
  /// Trace contexts threading the causal chain: the last verified control
  /// message, the join in progress (wakeup accepted / image acquired), and
  /// the task currently executing.
  obs::TraceContext control_ctx_;
  obs::TraceContext join_ctx_;
  obs::TraceContext running_task_ctx_;

  /// A result sent but not yet acknowledged (recovery protocol only; see
  /// PnaEnvironment::Recovery). Retried with exponential backoff until
  /// acked, superseded, or the attempt limit is hit.
  struct PendingResult {
    InstanceId instance = kNoInstance;
    std::uint64_t task_index = 0;
    util::Bits result_size;
    obs::TraceContext trace;
    int attempts = 0;
    std::uint64_t digest = 0;    ///< result digest the retry re-sends
    std::uint32_t replica = 0;   ///< replica slot the retry re-sends
  };
  std::optional<PendingResult> pending_result_;
  /// Generation guards invalidating in-flight retry/watchdog timers (the
  /// wheel has no cancel; a stale firing sees a bumped generation).
  std::uint64_t result_gen_ = 0;
  std::uint64_t request_gen_ = 0;
  /// Frozen by fault_hang(): message handling and config reads are inert
  /// until the watchdog kills and relaunches the Xlet.
  bool hung_ = false;
  PnaStats stats_;
};

}  // namespace oddci::core
