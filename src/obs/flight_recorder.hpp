#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

/// Causal flight recorder: a bounded, overwrite-on-full ring buffer of
/// fixed-size trace events, recording the protocol's multi-hop cycles
/// (Provider request -> Controller format -> carousel commit -> PNA receipt
/// -> join decision -> heartbeat consolidation -> Backend dispatch/result)
/// as causally linked events stamped with sim time.
///
/// Design contract:
///  * `TraceEvent` is a trivially copyable POD; `record()` copies it into a
///    preallocated ring — no allocation, no locking, no formatting on the
///    hot path. When the ring is full the oldest event is overwritten (the
///    recorder is a *flight recorder*, not an archive).
///  * Causality is a (trace_id, span_id, parent_span) triple. Every event
///    gets a fresh span id from a deterministic counter; children carry
///    their parent's `TraceContext` so two same-seed runs produce identical
///    id assignments and therefore byte-identical exports.
///  * The recorder is off by default: components hold a nullable
///    `FlightRecorder*` and skip emission when it is null.
namespace oddci::obs {

/// Trace context carried across hops (on the wire and in task records).
/// `trace_id` names the causal chain; `parent_span` is the span id of the
/// event that caused the current one. A zero trace id means "no context":
/// the next emitted event starts a new root trace.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  [[nodiscard]] constexpr bool valid() const noexcept { return trace_id != 0; }
  bool operator==(const TraceContext&) const = default;
};

/// What happened. The `arg` field of the event is kind-specific (documented
/// per enumerator); `actor` is the acting entity (PNA/node id, instance id,
/// carousel generation — see the emitting component).
enum class TraceEventKind : std::uint8_t {
  kInstanceRequest = 1,   ///< Provider asked for an instance (arg: target size)
  kControlFormat,         ///< Controller formatted a control msg (arg: ControlType)
  kCarouselCommit,        ///< broadcast medium committed (arg: files on air)
  kControlReceived,       ///< PNA decoded a control message (arg: instance)
  kWakeupAccepted,        ///< idle PNA passed the probability gate (arg: instance)
  kWakeupDroppedBusy,     ///< busy PNA dropped a wakeup (arg: instance)
  kWakeupDroppedProbability,   ///< probability gate said no (arg: instance)
  kWakeupRejectedRequirements, ///< device not compliant (arg: instance)
  kImageAcquired,         ///< image read from the carousel finished (arg: instance)
  kJoinAborted,           ///< pending join cancelled, image off air (arg: instance)
  kHeartbeatSent,         ///< PNA sent a status report (arg: PnaState)
  kMemberJoined,          ///< Controller confirmed a member (arg: instance)
  kInstanceReady,         ///< instance reached its target size (arg: size)
  kInstanceReleased,      ///< Provider released the instance (arg: instance)
  kMemberPruned,          ///< stale member dropped by the monitor (arg: instance)
  kResetApplied,          ///< PNA tore down its DVE (arg: instance)
  kTrimReset,             ///< Controller sent a unicast trim reset (arg: instance)
  kAggregateFlush,        ///< aggregator sent a consolidated report (arg: entries)
  kTaskDispatched,        ///< Backend assigned a task (arg: task index)
  kTaskExecuted,          ///< PNA finished executing a task (arg: task index)
  kTaskResult,            ///< Backend accepted a result (arg: task index)
  kTaskAborted,           ///< task handed back by a reset PNA (arg: task index)
  kTaskRequeued,          ///< timeout sweep re-queued a task (arg: task index)
  kPowerChange,           ///< receiver power mode changed (arg: PowerMode)
  kTuned,                 ///< receiver tuned (arg 1) or untuned (arg 0)
  kMessageDropped,        ///< delivery to a detached endpoint (arg: tag)
  kFaultMessageLost,      ///< injector dropped a direct message (arg: tag)
  kFaultMessageDuplicated,///< injector duplicated a direct message (arg: tag)
  kFaultLatencySpike,     ///< injector delayed a message (arg: extra micros)
  kFaultPartitionStart,   ///< region black-holed (actor: region, arg: node)
  kFaultPartitionEnd,     ///< partition healed (actor: region, arg: node)
  kFaultCrash,            ///< component crashed, in-flight state dropped
  kFaultRestart,          ///< crashed component came back up
  kFaultPnaHang,          ///< PNA frozen (arg: hang duration in micros)
  kFaultControlCorrupted, ///< tampered control message put on the air
  kTaskFailed,            ///< task hit the retry cap, job fails (arg: index)
  kRecoveryResultRetry,   ///< PNA re-sent an unacked result (arg: index)
  kRecoveryRequestRetry,  ///< PNA watchdog re-sent a task request
  kRecoveryAggregatorFailover, ///< silent aggregator voided (actor: shard)
  kRecoveryAggregatorRestore,  ///< aggregator back in routing (actor: shard)
  kControlDecision,  ///< engine picked a wakeup probability (arg: p * 1e6)
  kControlTrim,      ///< engine requested member trimming (arg: count)
  kControlAdmit,     ///< Phi admission passed a job (arg: Phi * 1e6)
  kControlDefer,     ///< Phi admission deferred a job (arg: Phi * 1e6)
  kQueueDropped,     ///< bounded link queue tail-dropped a message (arg: tag)
  kVerifyQuorum,     ///< quorum accepted a result (actor: votes, arg: index)
  kVerifyOutvoted,   ///< vote rejected by a quorum (actor: pna, arg: index)
  kVerifyEscalated,  ///< tied vote widened (actor: new target, arg: index)
  kVerifySpotFailed, ///< spot-check answer wrong (actor: pna, arg: index)
  kReputationQuarantined, ///< agent quarantined (actor: pna, arg: epoch)
  kReputationParoled,     ///< agent paroled (actor: pna, arg: epoch)
};

/// Which component emitted the event — one export track per component.
enum class TraceComponent : std::uint8_t {
  kProvider = 1,
  kController,
  kCarousel,
  kReceiver,
  kPna,
  kAggregator,
  kBackend,
  kNetwork,
};

[[nodiscard]] std::string_view to_string(TraceEventKind kind);
[[nodiscard]] std::string_view to_string(TraceComponent component);
/// Inverse of to_string; returns the zero value for unknown names.
[[nodiscard]] TraceEventKind kind_from_string(std::string_view name);
[[nodiscard]] TraceComponent component_from_string(std::string_view name);

/// One recorded hop. Fixed size, trivially copyable; 56 bytes.
struct TraceEvent {
  std::int64_t t_micros = 0;        ///< sim time of the hop
  std::uint64_t trace_id = 0;       ///< causal chain this hop belongs to
  std::uint64_t span_id = 0;        ///< this hop's own id
  std::uint64_t parent_span = 0;    ///< span that caused it (0 = root)
  std::uint64_t actor = 0;          ///< acting entity (pna/node/instance id)
  std::uint64_t arg = 0;            ///< kind-specific argument
  TraceEventKind kind{};
  TraceComponent component{};

  bool operator==(const TraceEvent&) const = default;

  /// Context a child event should carry.
  [[nodiscard]] TraceContext context() const noexcept {
    return TraceContext{trace_id, span_id};
  }
};

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "TraceEvent must stay a hot-path POD");
static_assert(sizeof(TraceEvent) <= 64, "TraceEvent must stay cache-friendly");

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 1 << 16);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Allocate a span id (monotonic, deterministic). With an id stream set
  /// (sharded kernel), ids are `offset + 1 + n * stride` — disjoint across
  /// the per-shard recorders of one system, so a merged export never sees
  /// a span-id collision.
  std::uint64_t next_id() noexcept { return id_offset_ + 1 + (id_next_++) * id_stride_; }

  /// Partition the id space for per-shard recorders: recorder s of K uses
  /// offset s, stride K. The default (0, 1) is the classic dense counter.
  /// Call before any emit(); re-seeding later would reuse ids.
  void set_id_stream(std::uint64_t offset, std::uint64_t stride) noexcept {
    id_offset_ = offset;
    id_stride_ = stride == 0 ? 1 : stride;
  }

  /// Copy `event` into the ring, overwriting the oldest event when full.
  void record(const TraceEvent& event) noexcept;

  /// Stamp and record one hop: allocates a fresh span id, resolves the
  /// trace id (a zero parent starts a new root trace), and returns the
  /// context children of this hop should carry.
  TraceContext emit(sim::SimTime t, TraceEventKind kind,
                    TraceComponent component, TraceContext parent = {},
                    std::uint64_t actor = 0, std::uint64_t arg = 0) noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Every record() ever, including overwritten ones.
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return total_;
  }
  /// Events lost to overwrite (total_recorded - size).
  [[nodiscard]] std::uint64_t overwritten() const noexcept {
    return total_ - count_;
  }

  /// Chronological copy of the retained events (oldest first).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Drop all retained events; id allocation and totals keep counting.
  void clear() noexcept;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< next write position
  std::size_t count_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t id_next_ = 0;
  std::uint64_t id_offset_ = 0;
  std::uint64_t id_stride_ = 1;
};

}  // namespace oddci::obs
