#include "obs/flight_recorder.hpp"

#include <stdexcept>

namespace oddci::obs {

std::string_view to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kInstanceRequest: return "instance.request";
    case TraceEventKind::kControlFormat: return "control.format";
    case TraceEventKind::kCarouselCommit: return "carousel.commit";
    case TraceEventKind::kControlReceived: return "control.received";
    case TraceEventKind::kWakeupAccepted: return "wakeup.accepted";
    case TraceEventKind::kWakeupDroppedBusy: return "wakeup.dropped_busy";
    case TraceEventKind::kWakeupDroppedProbability:
      return "wakeup.dropped_probability";
    case TraceEventKind::kWakeupRejectedRequirements:
      return "wakeup.rejected_requirements";
    case TraceEventKind::kImageAcquired: return "image.acquired";
    case TraceEventKind::kJoinAborted: return "join.aborted";
    case TraceEventKind::kHeartbeatSent: return "heartbeat.sent";
    case TraceEventKind::kMemberJoined: return "member.joined";
    case TraceEventKind::kInstanceReady: return "instance.ready";
    case TraceEventKind::kInstanceReleased: return "instance.released";
    case TraceEventKind::kMemberPruned: return "member.pruned";
    case TraceEventKind::kResetApplied: return "reset.applied";
    case TraceEventKind::kTrimReset: return "trim.reset";
    case TraceEventKind::kAggregateFlush: return "aggregate.flush";
    case TraceEventKind::kTaskDispatched: return "task.dispatched";
    case TraceEventKind::kTaskExecuted: return "task.executed";
    case TraceEventKind::kTaskResult: return "task.result";
    case TraceEventKind::kTaskAborted: return "task.aborted";
    case TraceEventKind::kTaskRequeued: return "task.requeued";
    case TraceEventKind::kPowerChange: return "power.change";
    case TraceEventKind::kTuned: return "tuner.change";
    case TraceEventKind::kMessageDropped: return "message.dropped";
    case TraceEventKind::kFaultMessageLost: return "fault.message_lost";
    case TraceEventKind::kFaultMessageDuplicated:
      return "fault.message_duplicated";
    case TraceEventKind::kFaultLatencySpike: return "fault.latency_spike";
    case TraceEventKind::kFaultPartitionStart: return "fault.partition_start";
    case TraceEventKind::kFaultPartitionEnd: return "fault.partition_end";
    case TraceEventKind::kFaultCrash: return "fault.crash";
    case TraceEventKind::kFaultRestart: return "fault.restart";
    case TraceEventKind::kFaultPnaHang: return "fault.pna_hang";
    case TraceEventKind::kFaultControlCorrupted:
      return "fault.control_corrupted";
    case TraceEventKind::kTaskFailed: return "task.failed";
    case TraceEventKind::kRecoveryResultRetry: return "recovery.result_retry";
    case TraceEventKind::kRecoveryRequestRetry:
      return "recovery.request_retry";
    case TraceEventKind::kRecoveryAggregatorFailover:
      return "recovery.aggregator_failover";
    case TraceEventKind::kRecoveryAggregatorRestore:
      return "recovery.aggregator_restore";
    case TraceEventKind::kControlDecision:
      return "control.decision";
    case TraceEventKind::kControlTrim:
      return "control.trim";
    case TraceEventKind::kControlAdmit:
      return "control.admit";
    case TraceEventKind::kControlDefer:
      return "control.defer";
    case TraceEventKind::kQueueDropped:
      return "net.queue_drop";
    case TraceEventKind::kVerifyQuorum: return "verify.quorum";
    case TraceEventKind::kVerifyOutvoted: return "verify.outvoted";
    case TraceEventKind::kVerifyEscalated: return "verify.escalated";
    case TraceEventKind::kVerifySpotFailed: return "verify.spot_failed";
    case TraceEventKind::kReputationQuarantined:
      return "reputation.quarantined";
    case TraceEventKind::kReputationParoled: return "reputation.paroled";
  }
  return "unknown";
}

std::string_view to_string(TraceComponent component) {
  switch (component) {
    case TraceComponent::kProvider: return "provider";
    case TraceComponent::kController: return "controller";
    case TraceComponent::kCarousel: return "carousel";
    case TraceComponent::kReceiver: return "receiver";
    case TraceComponent::kPna: return "pna";
    case TraceComponent::kAggregator: return "aggregator";
    case TraceComponent::kBackend: return "backend";
    case TraceComponent::kNetwork: return "network";
  }
  return "unknown";
}

namespace {
// The enumerators are dense and small; scan rather than maintain a map.
constexpr TraceEventKind kFirstKind = TraceEventKind::kInstanceRequest;
constexpr TraceEventKind kLastKind = TraceEventKind::kReputationParoled;
constexpr TraceComponent kFirstComponent = TraceComponent::kProvider;
constexpr TraceComponent kLastComponent = TraceComponent::kNetwork;
}  // namespace

TraceEventKind kind_from_string(std::string_view name) {
  for (auto k = static_cast<std::uint8_t>(kFirstKind);
       k <= static_cast<std::uint8_t>(kLastKind); ++k) {
    if (to_string(static_cast<TraceEventKind>(k)) == name) {
      return static_cast<TraceEventKind>(k);
    }
  }
  return TraceEventKind{};
}

TraceComponent component_from_string(std::string_view name) {
  for (auto c = static_cast<std::uint8_t>(kFirstComponent);
       c <= static_cast<std::uint8_t>(kLastComponent); ++c) {
    if (to_string(static_cast<TraceComponent>(c)) == name) {
      return static_cast<TraceComponent>(c);
    }
  }
  return TraceComponent{};
}

FlightRecorder::FlightRecorder(std::size_t capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("FlightRecorder: capacity must be > 0");
  }
  ring_.resize(capacity);
}

void FlightRecorder::record(const TraceEvent& event) noexcept {
  ring_[head_] = event;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  if (count_ < ring_.size()) ++count_;
  ++total_;
}

TraceContext FlightRecorder::emit(sim::SimTime t, TraceEventKind kind,
                                  TraceComponent component,
                                  TraceContext parent, std::uint64_t actor,
                                  std::uint64_t arg) noexcept {
  TraceEvent e;
  e.t_micros = t.micros();
  e.span_id = next_id();
  e.trace_id = parent.trace_id != 0 ? parent.trace_id : e.span_id;
  e.parent_span = parent.parent_span;
  e.actor = actor;
  e.arg = arg;
  e.kind = kind;
  e.component = component;
  record(e);
  return e.context();
}

std::vector<TraceEvent> FlightRecorder::events() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  // Oldest retained event sits at head_ once the ring has wrapped.
  const std::size_t start =
      count_ == ring_.size() ? head_ : (head_ + ring_.size() - count_) %
                                           ring_.size();
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void FlightRecorder::clear() noexcept {
  head_ = 0;
  count_ = 0;
}

}  // namespace oddci::obs
