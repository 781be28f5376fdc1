#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "broadcast/signature.hpp"
#include "broadcast/verify_cache.hpp"
#include "net/message.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/time.hpp"
#include "util/quantity.hpp"

/// OddCI protocol messages.
///
/// Two planes:
///  * the *broadcast plane* carries `ControlMessage`s (wakeup / reset)
///    inside the carousel's configuration file, signed by the Controller;
///  * the *direct channels* carry heartbeats, Controller replies, and the
///    Backend task-distribution protocol as `net::Message`s whose wire
///    sizes model the paper's s and r payloads.
namespace oddci::core {

using InstanceId = std::uint64_t;
inline constexpr InstanceId kNoInstance = 0;

/// On-air identity of the PNA trigger application: the AIT entry the
/// Controller signals, the name receivers launch it under, and the
/// carousel files it travels in. The Controller and every agent must agree
/// on all four, so they are protocol constants rather than options.
inline constexpr std::uint32_t kPnaApplicationId = 0x4F44;  // "OD"
inline constexpr char kPnaApplicationName[] = "oddci-pna";
inline constexpr char kPnaFile[] = "pna.xlet";
inline constexpr char kPnaConfigFile[] = "oddci.config";

/// The application image that a wakeup stages on the carousel.
struct ImageSpec {
  std::uint64_t image_id = 0;
  std::string name;
  util::Bits size;
};

/// Node requirements carried in a wakeup; a PNA joins only if compliant.
struct Requirements {
  util::Bits min_ram;                 ///< 0 = no constraint
  util::Bits min_flash;               ///< 0 = no constraint
  std::string device_kind;            ///< empty = any
};

enum class ControlType : std::uint8_t { kWakeup = 1, kReset = 2 };

/// Contents of the carousel "configuration file" (plus the image file it
/// references). Broadcast to all tuned PNAs; idle PNAs handle a wakeup with
/// the given probability, busy PNAs drop it; a reset destroys the DVE of
/// PNAs belonging to `instance`.
struct ControlMessage {
  ControlType type = ControlType::kWakeup;
  InstanceId instance = kNoInstance;
  double probability = 1.0;  ///< handling probability for idle PNAs
  Requirements requirements;
  sim::SimTime heartbeat_interval = sim::SimTime::from_seconds(30);
  ImageSpec image;            ///< wakeup only
  net::NodeId controller_node = net::kInvalidNode;
  net::NodeId backend_node = net::kInvalidNode;
  /// Optional heartbeat-aggregation tier (the paper defers the Controller
  /// bottleneck to future work; this is that mechanism). When non-empty,
  /// each PNA reports to aggregators[pna_id % size()] instead of to the
  /// Controller directly; aggregators forward consolidated reports.
  std::vector<net::NodeId> aggregators;
  /// Causal trace context (transport-header metadata). Carried on the
  /// wire but *not* covered by the signature: tracing must be attachable
  /// without changing what the Controller signs, and the modelled
  /// wire_size already budgets a transport header for it.
  obs::TraceContext trace;
  broadcast::Signature signature = 0;

  /// Canonical bytes covered by the signature.
  [[nodiscard]] std::string canonical_bytes() const;
  void sign_with(broadcast::SigningKey key);
  [[nodiscard]] bool verify_with(broadcast::SigningKey key) const;
};

/// A control message *prepared once per broadcast* instead of once per
/// receiver: the decoded message plus its canonical signing bytes and
/// their content digest, computed a single time when the configuration
/// file is decoded. The carousel hands every tuned PNA the same immutable
/// `shared_ptr<const PreparedControl>`, so a wakeup reaching 1M receivers
/// costs one decode, one canonicalization, and (through `VerifyCache`)
/// one signature hash — not 1M of each.
struct PreparedControl {
  ControlMessage message;
  std::string canonical;      ///< message.canonical_bytes(), cached
  std::uint64_t digest = 0;   ///< broadcast::content_digest(canonical)

  /// Canonicalize + digest `msg` once.
  [[nodiscard]] static std::shared_ptr<const PreparedControl> make(
      ControlMessage msg);

  /// Full verification (no memoization) against the cached canonical bytes.
  [[nodiscard]] bool verify_with(broadcast::SigningKey key) const {
    return broadcast::verify(key, canonical, message.signature);
  }
  /// Memoized verification: one keyed hash per distinct (message, key)
  /// across all receivers sharing `cache`.
  [[nodiscard]] bool verify_with(broadcast::SigningKey key,
                                 broadcast::VerifyCache& cache) const {
    return cache.verify(canonical, digest, key, message.signature);
  }
};

using PreparedControlPtr = std::shared_ptr<const PreparedControl>;

// ---------------------------------------------------------------------------
// Direct-channel messages.
// ---------------------------------------------------------------------------

enum MessageTag : int {
  kTagHeartbeat = 1,
  kTagHeartbeatReply = 2,
  kTagTaskRequest = 3,
  kTagTaskAssign = 4,
  kTagTaskResult = 5,
  kTagNoTask = 6,
  kTagRemoteQuery = 7,
  kTagRemoteAnswer = 8,
  kTagTaskAbort = 9,
  kTagAggregateReport = 10,
  kTagTaskResultAck = 11,
  kTagDeltaReport = 12,
  kTagDeltaBatch = 13,
};

/// Aggregate-report encoding selected by `SystemConfig::heartbeat.mode`.
/// kNaive ships every member heard in the window (the original tree);
/// kDelta ships only membership changes plus periodic checksummed resyncs,
/// making the upstream path O(changes) instead of O(members).
enum class HeartbeatMode : std::uint8_t { kNaive = 0, kDelta = 1 };

/// Fixed protocol header modelled on a compact binary encoding.
inline constexpr util::Bits kHeaderBits = util::Bits(64 * 8);

/// Agent status reported in heartbeats. kJoining (accepted a wakeup, image
/// still being acquired from the carousel) refines the paper's idle/busy
/// dichotomy so the Controller can count committed-but-not-ready nodes
/// without treating them as instance members.
enum class PnaState : std::uint8_t { kIdle = 0, kJoining = 1, kBusy = 2 };

/// Periodic PNA -> Controller status report.
class HeartbeatMessage final : public net::Message {
 public:
  HeartbeatMessage(std::uint64_t pna_id, PnaState state, InstanceId instance,
                   obs::TraceContext trace = {})
      : pna_id_(pna_id), state_(state), instance_(instance), trace_(trace) {}

  [[nodiscard]] util::Bits wire_size() const override { return kHeaderBits; }
  [[nodiscard]] int tag() const override { return kTagHeartbeat; }

  [[nodiscard]] std::uint64_t pna_id() const { return pna_id_; }
  [[nodiscard]] PnaState state() const { return state_; }
  [[nodiscard]] InstanceId instance() const { return instance_; }
  [[nodiscard]] obs::TraceContext trace() const { return trace_; }

  /// Re-point an exclusively-owned message at a new report —
  /// `net::MessagePool` recycling hook (called only when the pool holds
  /// the sole reference).
  void reset(std::uint64_t pna_id, PnaState state, InstanceId instance,
             obs::TraceContext trace = {}) {
    pna_id_ = pna_id;
    state_ = state;
    instance_ = instance;
    trace_ = trace;
  }

 private:
  std::uint64_t pna_id_;
  PnaState state_;
  InstanceId instance_;
  obs::TraceContext trace_;
};

enum class HeartbeatCommand : std::uint8_t { kNone = 0, kReset = 1 };

/// Controller -> PNA heartbeat reply. Only sent when carrying a command
/// (e.g. trimming an oversized instance with a unicast reset).
class HeartbeatReplyMessage final : public net::Message {
 public:
  HeartbeatReplyMessage(InstanceId instance, HeartbeatCommand command)
      : instance_(instance), command_(command) {}

  [[nodiscard]] util::Bits wire_size() const override { return kHeaderBits; }
  [[nodiscard]] int tag() const override { return kTagHeartbeatReply; }

  [[nodiscard]] InstanceId instance() const { return instance_; }
  [[nodiscard]] HeartbeatCommand command() const { return command_; }

 private:
  InstanceId instance_;
  HeartbeatCommand command_;
};

/// PNA -> Backend: ask for work.
class TaskRequestMessage final : public net::Message {
 public:
  TaskRequestMessage(InstanceId instance, std::uint64_t pna_id)
      : instance_(instance), pna_id_(pna_id) {}

  [[nodiscard]] util::Bits wire_size() const override { return kHeaderBits; }
  [[nodiscard]] int tag() const override { return kTagTaskRequest; }

  [[nodiscard]] InstanceId instance() const { return instance_; }
  [[nodiscard]] std::uint64_t pna_id() const { return pna_id_; }

 private:
  InstanceId instance_;
  std::uint64_t pna_id_;
};

/// Backend -> PNA: a task assignment; the wire size includes the task's
/// input payload (the paper's s term). `replica` distinguishes the k
/// redundant dispatches of one task under verified execution (0 for the
/// first/only copy); it rides the modelled transport-header budget, so
/// wire_size is unchanged whether or not verification is on.
class TaskAssignMessage final : public net::Message {
 public:
  TaskAssignMessage(InstanceId instance, std::uint64_t task_index,
                    util::Bits input_size, util::Bits result_size,
                    double reference_seconds, obs::TraceContext trace = {},
                    std::uint32_t replica = 0)
      : instance_(instance),
        task_index_(task_index),
        input_size_(input_size),
        result_size_(result_size),
        reference_seconds_(reference_seconds),
        trace_(trace),
        replica_(replica) {}

  [[nodiscard]] util::Bits wire_size() const override {
    return kHeaderBits + input_size_;
  }
  [[nodiscard]] int tag() const override { return kTagTaskAssign; }

  [[nodiscard]] InstanceId instance() const { return instance_; }
  [[nodiscard]] std::uint64_t task_index() const { return task_index_; }
  [[nodiscard]] util::Bits input_size() const { return input_size_; }
  [[nodiscard]] util::Bits result_size() const { return result_size_; }
  [[nodiscard]] double reference_seconds() const { return reference_seconds_; }
  [[nodiscard]] obs::TraceContext trace() const { return trace_; }
  [[nodiscard]] std::uint32_t replica() const { return replica_; }

 private:
  InstanceId instance_;
  std::uint64_t task_index_;
  util::Bits input_size_;
  util::Bits result_size_;
  double reference_seconds_;
  obs::TraceContext trace_;
  std::uint32_t replica_;
};

/// PNA -> Backend: a task's result; wire size includes the r payload.
/// `digest` is the canonical result digest (fault::honest_result_digest
/// for an honest computation; 0 when verification is off — the pre-verify
/// protocol) and `replica` echoes the TaskAssign replica id. Both ride the
/// modelled transport-header budget: wire_size is unchanged.
class TaskResultMessage final : public net::Message {
 public:
  TaskResultMessage(InstanceId instance, std::uint64_t task_index,
                    std::uint64_t pna_id, util::Bits result_size,
                    obs::TraceContext trace = {}, std::uint64_t digest = 0,
                    std::uint32_t replica = 0)
      : instance_(instance),
        task_index_(task_index),
        pna_id_(pna_id),
        result_size_(result_size),
        trace_(trace),
        digest_(digest),
        replica_(replica) {}

  [[nodiscard]] util::Bits wire_size() const override {
    return kHeaderBits + result_size_;
  }
  [[nodiscard]] int tag() const override { return kTagTaskResult; }

  [[nodiscard]] InstanceId instance() const { return instance_; }
  [[nodiscard]] std::uint64_t task_index() const { return task_index_; }
  [[nodiscard]] std::uint64_t pna_id() const { return pna_id_; }
  [[nodiscard]] obs::TraceContext trace() const { return trace_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] std::uint32_t replica() const { return replica_; }

 private:
  InstanceId instance_;
  std::uint64_t task_index_;
  std::uint64_t pna_id_;
  util::Bits result_size_;
  obs::TraceContext trace_;
  std::uint64_t digest_;
  std::uint32_t replica_;
};

/// Backend -> PNA: idempotent acknowledgement of a received result. Only
/// sent when `BackendOptions::ack_results` is on (the fault-injection
/// recovery protocol); it stops the PNA's bounded result-upload retry, and
/// re-acking a duplicate delivery is harmless.
class TaskResultAckMessage final : public net::Message {
 public:
  TaskResultAckMessage(InstanceId instance, std::uint64_t task_index)
      : instance_(instance), task_index_(task_index) {}

  [[nodiscard]] util::Bits wire_size() const override { return kHeaderBits; }
  [[nodiscard]] int tag() const override { return kTagTaskResultAck; }

  [[nodiscard]] InstanceId instance() const { return instance_; }
  [[nodiscard]] std::uint64_t task_index() const { return task_index_; }

 private:
  InstanceId instance_;
  std::uint64_t task_index_;
};

/// PNA -> Backend: the agent is abandoning an assigned task without a
/// result (it was reset while executing — trimming or instance teardown).
/// Lets the Backend requeue immediately instead of waiting for the
/// re-dispatch timeout. A power-off cannot send this; those losses are
/// still covered by the timeout sweep. `replica` echoes the TaskAssign
/// replica id so the abort addresses exactly the dispatched copy; like the
/// other verification fields it rides the transport-header budget.
class TaskAbortMessage final : public net::Message {
 public:
  TaskAbortMessage(InstanceId instance, std::uint64_t task_index,
                   std::uint64_t pna_id, obs::TraceContext trace = {},
                   std::uint32_t replica = 0)
      : instance_(instance),
        task_index_(task_index),
        pna_id_(pna_id),
        trace_(trace),
        replica_(replica) {}

  [[nodiscard]] util::Bits wire_size() const override { return kHeaderBits; }
  [[nodiscard]] int tag() const override { return kTagTaskAbort; }

  [[nodiscard]] InstanceId instance() const { return instance_; }
  [[nodiscard]] std::uint64_t task_index() const { return task_index_; }
  [[nodiscard]] std::uint64_t pna_id() const { return pna_id_; }
  [[nodiscard]] obs::TraceContext trace() const { return trace_; }
  [[nodiscard]] std::uint32_t replica() const { return replica_; }

 private:
  InstanceId instance_;
  std::uint64_t task_index_;
  std::uint64_t pna_id_;
  obs::TraceContext trace_;
  std::uint32_t replica_;
};

/// Backend -> PNA: queue exhausted (the PNA stays a member of the instance
/// until reset, per the paper's lifecycle, but stops polling aggressively).
class NoTaskMessage final : public net::Message {
 public:
  explicit NoTaskMessage(InstanceId instance) : instance_(instance) {}

  [[nodiscard]] util::Bits wire_size() const override { return kHeaderBits; }
  [[nodiscard]] int tag() const override { return kTagNoTask; }

  [[nodiscard]] InstanceId instance() const { return instance_; }

 private:
  InstanceId instance_;
};

/// Aggregator -> Controller: consolidated status of every PNA that
/// reported during the last aggregation window. Wire size scales with the
/// number of entries (16 bytes each) — the bandwidth saving over raw
/// heartbeats comes from batching the per-message header.
class AggregateReportMessage final : public net::Message {
 public:
  struct Entry {
    std::uint64_t pna_id;
    PnaState state;
    InstanceId instance;
    /// Trace context of the consolidated heartbeat (transport metadata;
    /// not part of the modelled 16-byte entry payload).
    obs::TraceContext trace = {};
  };

  explicit AggregateReportMessage(std::vector<Entry> entries)
      : entries_(std::move(entries)) {}

  [[nodiscard]] util::Bits wire_size() const override {
    return kHeaderBits +
           util::Bits::from_bytes(
               static_cast<std::int64_t>(entries_.size()) * 16);
  }
  [[nodiscard]] int tag() const override { return kTagAggregateReport; }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Order-independent fingerprint of one ledger member. XORing the mixes of
/// every member yields a set checksum the aggregator and the Controller can
/// both compute without agreeing on iteration order; the SplitMix64-style
/// finalizer makes single-member differences visible in the XOR.
[[nodiscard]] inline std::uint64_t delta_member_mix(std::uint64_t pna_id,
                                                    PnaState state,
                                                    InstanceId instance) {
  std::uint64_t x = pna_id * 0x9E3779B97F4A7C15ull;
  x ^= static_cast<std::uint64_t>(state) * 0xBF58476D1CE4E5B9ull;
  x ^= instance * 0x94D049BB133111EBull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// RFC 1982-style serial comparison for the 32-bit delta epoch: the
/// successor of 0xFFFFFFFF is 0, so a long-lived aggregator wraps cleanly.
[[nodiscard]] constexpr bool epoch_follows(std::uint32_t next,
                                           std::uint32_t prev) {
  return static_cast<std::uint32_t>(next - prev) == 1u;
}

/// Aggregator -> Controller, delta mode: the membership changes observed
/// since the previous frame (kDelta), or the full checksummed ledger
/// (kResync). Frames from one origin carry a monotone (wrapping) epoch; a
/// gap tells the Controller a frame was lost and it must wait for the next
/// resync instead of silently diverging. `checksum` is the XOR of
/// `delta_member_mix` over the aggregator's entire ledger *after* this
/// frame, carried on resyncs so the Controller can verify reconstruction.
class DeltaReportMessage final : public net::Message {
 public:
  enum class Kind : std::uint8_t { kDelta = 0, kResync = 1 };
  enum class Op : std::uint8_t { kUpdate = 0, kExpire = 1 };

  struct Entry {
    std::uint64_t pna_id = 0;
    Op op = Op::kUpdate;
    PnaState state = PnaState::kIdle;
    InstanceId instance = kNoInstance;
    /// Trace context of the consolidated heartbeat (transport metadata;
    /// not part of the modelled 18-byte entry payload).
    obs::TraceContext trace = {};
  };

  DeltaReportMessage(std::uint32_t origin, std::uint32_t epoch, Kind kind,
                     std::uint64_t checksum, std::vector<Entry> entries)
      : origin_(origin),
        epoch_(epoch),
        kind_(kind),
        checksum_(checksum),
        entries_(std::move(entries)) {}

  /// Modelled frame payload: origin + epoch + kind + checksum (17 bytes)
  /// plus 18 bytes per entry (id, op/state, instance, like the naive
  /// report's 16 plus the op and change-set framing).
  [[nodiscard]] static util::Bits payload_bits(std::size_t entry_count) {
    return util::Bits::from_bytes(
        17 + static_cast<std::int64_t>(entry_count) * 18);
  }

  [[nodiscard]] util::Bits wire_size() const override {
    return kHeaderBits + payload_bits(entries_.size());
  }
  [[nodiscard]] int tag() const override { return kTagDeltaReport; }

  [[nodiscard]] std::uint32_t origin() const { return origin_; }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::uint32_t origin_;
  std::uint32_t epoch_;
  Kind kind_;
  std::uint64_t checksum_;
  std::vector<Entry> entries_;
};

/// Relay -> Controller: one aggregation window's worth of child delta
/// frames shipped under a single transport header (the relay tier's
/// bandwidth saving — frame payloads are forwarded verbatim, per-frame
/// headers are amortized away).
class DeltaBatchMessage final : public net::Message {
 public:
  explicit DeltaBatchMessage(
      std::vector<std::shared_ptr<const DeltaReportMessage>> frames)
      : frames_(std::move(frames)) {}

  [[nodiscard]] util::Bits wire_size() const override {
    util::Bits total = kHeaderBits;
    for (const auto& f : frames_) {
      total = total + DeltaReportMessage::payload_bits(f->entries().size());
    }
    return total;
  }
  [[nodiscard]] int tag() const override { return kTagDeltaBatch; }

  [[nodiscard]] const std::vector<std::shared_ptr<const DeltaReportMessage>>&
  frames() const {
    return frames_;
  }

 private:
  std::vector<std::shared_ptr<const DeltaReportMessage>> frames_;
};

/// Generic payload message used by the remote (BLASTCL3-style) workload:
/// a query shipped to a provisioned server and its answer.
class BlobMessage final : public net::Message {
 public:
  BlobMessage(int tag, std::uint64_t correlation, util::Bits payload)
      : tag_(tag), correlation_(correlation), payload_(payload) {}

  [[nodiscard]] util::Bits wire_size() const override {
    return kHeaderBits + payload_;
  }
  [[nodiscard]] int tag() const override { return tag_; }
  [[nodiscard]] std::uint64_t correlation() const { return correlation_; }

 private:
  int tag_;
  std::uint64_t correlation_;
  util::Bits payload_;
};

}  // namespace oddci::core
