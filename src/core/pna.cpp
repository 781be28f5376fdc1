#include "core/pna.hpp"

#include <algorithm>
#include <stdexcept>

namespace oddci::core {

PnaXlet::PnaXlet(const PnaEnvironment& environment, std::uint64_t seed)
    : env_(&environment), rng_(seed), alive_(std::make_shared<bool>(true)) {
  if (env_->content_store == nullptr) {
    throw std::invalid_argument("PnaXlet: null content store");
  }
  if (env_->verify_cache == nullptr || env_->heartbeat_pool == nullptr) {
    throw std::invalid_argument(
        "PnaXlet: environment needs a verify cache and a heartbeat pool");
  }
}

PnaXlet::~PnaXlet() { *alive_ = false; }

std::uint64_t PnaXlet::pna_id() const {
  return context_ != nullptr ? context_->receiver().node_id() : 0;
}

obs::TraceContext PnaXlet::trace_emit(obs::TraceEventKind kind,
                                      obs::TraceContext parent,
                                      std::uint64_t arg) {
  if (env_->recorder == nullptr) return {};
  return env_->recorder->emit(context_->simulation().now(), kind,
                             obs::TraceComponent::kPna, parent, pna_id(),
                             arg);
}

void PnaXlet::init_xlet(dtv::XletContext& context) { context_ = &context; }

void PnaXlet::start_xlet() {
  if (context_ == nullptr) {
    throw std::logic_error("PnaXlet: started before init");
  }
  started_ = true;
  hung_ = false;
  context_->receiver().set_message_handler(
      [this](net::NodeId from, const net::MessagePtr& msg) {
        on_direct_message(from, msg);
      });
  // The carousel generation that delivered this Xlet also carries the
  // configuration file; acquire it.
  acquire_config();
}

void PnaXlet::pause_xlet() {
  started_ = false;
  context_->receiver().clear_message_handler();
}

void PnaXlet::destroy_xlet(bool /*unconditional*/) {
  *alive_ = false;
  started_ = false;
  pace_pending_ = false;
  if (heartbeat_running_) {
    heartbeat_.cancel();
    heartbeat_running_ = false;
  }
  if (running_exec_) {
    context_->receiver().cancel_execution(*running_exec_);
    running_exec_.reset();
  }
  // Teardown with a task in flight (e.g. a channel change destroying the
  // Xlet): hand the task back like a reset does. If the receiver is being
  // powered off the send is dropped, and the Backend's timeout covers it.
  if (running_task_ && dve_ && backend_node_ != net::kInvalidNode &&
      context_ != nullptr) {
    context_->receiver().send(
        backend_node_,
        std::make_shared<TaskAbortMessage>(dve_->instance(), *running_task_,
                                           pna_id(), running_task_ctx_,
                                           running_replica_));
    running_task_.reset();
  }
  if (context_ != nullptr) {
    context_->receiver().clear_message_handler();
  }
  dve_.reset();
  pending_join_.reset();
  pending_result_.reset();
}

void PnaXlet::on_carousel_update(const broadcast::CarouselSnapshot&) {
  if (!started_) return;
  acquire_config();
}

void PnaXlet::acquire_config() {
  if (hung_) return;
  // Module-version dedupe (DSM-CC semantics): the launch signalling
  // triggers two acquisition attempts for the same configuration
  // generation — once from startXlet and once from the carousel-update
  // notification. Real receivers keep assembling the module they are
  // already reading and only restart on a module-version bump, so a
  // generation we have handled — or are currently reading — is not read
  // again. Skipping at issue time (not completion) matters at scale: a
  // million agents launching at once would otherwise each hold two
  // in-flight carousel reads for the length of a cycle.
  if (const broadcast::CarouselSnapshot* on_air =
          context_->current_carousel()) {
    if (const broadcast::CarouselFile* announced =
            on_air->find(kPnaConfigFile)) {
      if (announced->content_id == last_handled_content_ ||
          announced->content_id == pending_read_content_) {
        return;
      }
      pending_read_content_ = announced->content_id;
    }
  }
  std::weak_ptr<bool> alive = alive_;
  context_->read_carousel_file(
      kPnaConfigFile,
      [this, alive](bool ok, const broadcast::CarouselFile& file) {
        auto guard = alive.lock();
        if (!guard || !*guard || !started_) return;
        if (!ok) {
          // Allow a retry of this generation (power/tune interrupted it).
          pending_read_content_ = 0;
          return;
        }
        // Completion-side belt-and-braces for readers that raced a
        // generation change between issue and delivery.
        if (file.content_id == last_handled_content_) return;
        last_handled_content_ = file.content_id;
        // The population shares one immutable decoded message (canonical
        // bytes + digest computed once per broadcast).
        const PreparedControlPtr control =
            env_->content_store->get_control_shared(file.content_id);
        if (!control) return;
        handle_control(*control);
      });
}

void PnaXlet::handle_control(const PreparedControl& prepared) {
  ++stats_.control_messages_seen;
  if (env_->counters != nullptr) ++env_->counters->control_messages_seen;
  // Accept only messages signed by the associated Controller. The check
  // runs against the shared canonical bytes and is memoized across the
  // shard's agents, so a broadcast hashes once instead of once per agent.
  if (!prepared.verify_with(env_->trusted_key, *env_->verify_cache)) {
    ++stats_.signature_failures;
    if (env_->counters != nullptr) ++env_->counters->signature_failures;
    return;
  }
  const ControlMessage& message = prepared.message;
  control_ctx_ = trace_emit(obs::TraceEventKind::kControlReceived,
                            message.trace, message.instance);
  // The control message tells the agent where its Controller lives; start
  // heartbeating as soon as that is known (idle PNAs report too — this is
  // how the Controller sizes the idle pool).
  ensure_heartbeat(message);

  switch (message.type) {
    case ControlType::kWakeup:
      handle_wakeup(message);
      break;
    case ControlType::kReset:
      handle_reset(message);
      break;
  }
}

void PnaXlet::handle_wakeup(const ControlMessage& message) {
  // Busy PNAs simply drop wakeup messages.
  if (dve_ || pending_join_) {
    ++stats_.wakeups_dropped_busy;
    if (env_->counters != nullptr) ++env_->counters->wakeups_dropped_busy;
    trace_emit(obs::TraceEventKind::kWakeupDroppedBusy, control_ctx_,
               message.instance);
    return;
  }
  // Compliance with the requirements present in the message.
  const auto& profile = context_->receiver().profile();
  const Requirements& req = message.requirements;
  const bool compliant =
      (req.min_ram.count() == 0 || profile.ram >= req.min_ram) &&
      (req.min_flash.count() == 0 || profile.flash >= req.min_flash) &&
      (req.device_kind.empty() || req.device_kind == profile.name);
  if (!compliant) {
    ++stats_.wakeups_rejected_requirements;
    if (env_->counters != nullptr) {
      ++env_->counters->wakeups_rejected_requirements;
    }
    trace_emit(obs::TraceEventKind::kWakeupRejectedRequirements,
               control_ctx_, message.instance);
    return;
  }
  // The probability attribute throttles how many idle PNAs handle the
  // message (instance-size control).
  if (!rng_.bernoulli(message.probability)) {
    ++stats_.wakeups_dropped_probability;
    if (env_->counters != nullptr) {
      ++env_->counters->wakeups_dropped_probability;
    }
    trace_emit(obs::TraceEventKind::kWakeupDroppedProbability, control_ctx_,
               message.instance);
    return;
  }
  join_instance(message);
}

void PnaXlet::handle_reset(const ControlMessage& message) {
  // A reset targets exactly one instance (a reset for kNoInstance is the
  // Controller's deployment hello and matches nothing).
  const bool match =
      message.instance != kNoInstance &&
      ((dve_ && dve_->instance() == message.instance) ||
       (pending_join_ && *pending_join_ == message.instance));
  if (!match) return;
  ++stats_.resets;
  if (env_->counters != nullptr) ++env_->counters->resets;
  leave_instance();
}

void PnaXlet::join_instance(const ControlMessage& message) {
  pending_join_ = message.instance;
  backend_node_ = message.backend_node;
  join_started_at_ = context_->simulation().now();
  join_ctx_ = trace_emit(obs::TraceEventKind::kWakeupAccepted, control_ctx_,
                         message.instance);
  // Event-driven status change: tell the Controller immediately so its
  // idle-pool estimate does not lag a full heartbeat interval.
  send_heartbeat();

  // Load the user application image from the carousel — the dominant cost
  // of the wakeup process (W = 1.5 I / beta on average).
  std::weak_ptr<bool> alive = alive_;
  const InstanceId instance = message.instance;
  const ImageSpec image = message.image;
  context_->read_carousel_file(
      image.name,
      [this, alive, instance, image](bool ok,
                                     const broadcast::CarouselFile&) {
        auto guard = alive.lock();
        if (!guard || !*guard || !started_) return;
        if (!pending_join_ || *pending_join_ != instance) return;  // reset
        pending_join_.reset();
        if (!ok) {
          // The module went off air (instance destroyed mid-join) or was
          // superseded; report the state change so the Controller's
          // accounting stays fresh.
          trace_emit(obs::TraceEventKind::kJoinAborted, join_ctx_, instance);
          join_ctx_ = {};
          send_heartbeat();
          return;
        }
        ++stats_.joins;
        if (env_->counters != nullptr) ++env_->counters->joins;
        if (env_->acquire_latency != nullptr) {
          env_->acquire_latency->record(
              (context_->simulation().now() - join_started_at_).seconds());
        }
        join_ctx_ = trace_emit(obs::TraceEventKind::kImageAcquired, join_ctx_,
                               instance);
        dve_ = std::make_unique<Dve>(instance, image,
                                     context_->simulation().now());
        send_heartbeat();  // joining -> busy: membership is event-driven
        request_task();
      });
}

void PnaXlet::leave_instance() {
  if (running_exec_) {
    context_->receiver().cancel_execution(*running_exec_);
    running_exec_.reset();
  }
  // Hand the abandoned task back so the Backend can requeue it now rather
  // than after the re-dispatch timeout.
  if (running_task_ && dve_ && backend_node_ != net::kInvalidNode) {
    context_->receiver().send(
        backend_node_,
        std::make_shared<TaskAbortMessage>(dve_->instance(), *running_task_,
                                           pna_id(), running_task_ctx_,
                                           running_replica_));
  }
  if (dve_ || pending_join_) {
    trace_emit(obs::TraceEventKind::kResetApplied, join_ctx_, instance());
  }
  running_task_.reset();
  running_task_ctx_ = {};
  join_ctx_ = {};
  dve_.reset();
  pending_join_.reset();
  // Any recovery timers in flight are for an instance we just left.
  pending_result_.reset();
  ++result_gen_;
  ++request_gen_;
  send_heartbeat();
}

void PnaXlet::ensure_heartbeat(const ControlMessage& message) {
  if (message.controller_node == net::kInvalidNode) return;
  controller_node_ = message.controller_node;
  // With an aggregation tier, heartbeats go to this agent's shard
  // aggregator instead of straight to the Controller. A voided slot
  // (aggregator failed over) re-homes the shard to the Controller.
  net::NodeId target = message.controller_node;
  if (!message.aggregators.empty()) {
    target = message.aggregators[pna_id() % message.aggregators.size()];
    if (target == net::kInvalidNode) target = message.controller_node;
  }
  heartbeat_target_ = target;
  if (message.heartbeat_interval <= sim::SimTime::zero()) return;
  if (heartbeat_running_) {
    if (message.heartbeat_interval == heartbeat_interval_) return;
    // The Controller re-parameterized the reporting cadence: re-arm.
    heartbeat_.cancel();
    heartbeat_running_ = false;
  }
  heartbeat_interval_ = message.heartbeat_interval;

  auto& simulation = context_->simulation();
  // Desynchronize the population: first beat at a random phase.
  const double phase =
      rng_.uniform(0.0, message.heartbeat_interval.seconds());
  heartbeat_ = sim::PeriodicTask(
      simulation, simulation.now() + sim::SimTime::from_seconds(phase),
      message.heartbeat_interval, [this] { send_heartbeat(); });
  heartbeat_running_ = true;
}

void PnaXlet::send_heartbeat() {
  if (!started_ || heartbeat_target_ == net::kInvalidNode) return;
  const sim::SimTime window = env_->heartbeat_pace_window;
  if (window <= sim::SimTime::zero()) {
    send_heartbeat_now();
    return;
  }
  // Paced mode: a beat already queued for our next phase slot absorbs this
  // one (the slot transmits the state current at release time, so nothing
  // is lost — only the redundant intermediate report).
  if (pace_pending_) {
    if (env_->counters != nullptr) ++env_->counters->heartbeats_paced;
    return;
  }
  pace_pending_ = true;
  // Deterministic per-agent phase in [0, window): a pure hash of the
  // pacing stream seed and the agent id — no live generator draw, so
  // enabling pacing cannot perturb any other stream.
  const std::uint64_t mix =
      util::SplitMix64(env_->heartbeat_phase_seed ^
                       (pna_id() * 0x9E3779B97F4A7C15ull))
          .next();
  const double frac =
      static_cast<double>(mix >> 11) * (1.0 / 9007199254740992.0);
  auto& simulation = context_->simulation();
  const sim::SimTime now = simulation.now();
  const std::int64_t wus = window.micros();
  const std::int64_t phase_us =
      static_cast<std::int64_t>(frac * static_cast<double>(wus));
  sim::SimTime release =
      sim::SimTime::from_micros((now.micros() / wus) * wus + phase_us);
  if (release <= now) release += window;
  std::weak_ptr<bool> alive = alive_;
  simulation.schedule_timer_in(
      release - now,
      [this, alive] {
        auto guard = alive.lock();
        if (!guard || !*guard) return;
        pace_pending_ = false;
        if (!started_ || hung_) return;
        send_heartbeat_now();
      },
      sim::SimTime::zero(), sim::EventPriority::kDefault);
}

void PnaXlet::send_heartbeat_now() {
  if (!started_ || heartbeat_target_ == net::kInvalidNode) return;
  ++stats_.heartbeats_sent;
  if (env_->counters != nullptr) ++env_->counters->heartbeats_sent;
  // Heartbeats chain off the join in progress when there is one (they are
  // what confirms membership) and off the last control receipt otherwise.
  const obs::TraceContext parent =
      join_ctx_.valid() ? join_ctx_ : control_ctx_;
  const obs::TraceContext ctx =
      trace_emit(obs::TraceEventKind::kHeartbeatSent, parent,
                 static_cast<std::uint64_t>(state()));
  // The pool recycles an exclusively-held message (object + control
  // block) instead of allocating one per beat.
  context_->receiver().send(
      heartbeat_target_,
      env_->heartbeat_pool->acquire(pna_id(), state(), instance(), ctx));
}

void PnaXlet::request_task() {
  if (!dve_ || backend_node_ == net::kInvalidNode) return;
  context_->receiver().send(
      backend_node_,
      std::make_shared<TaskRequestMessage>(dve_->instance(), pna_id()));
  if (env_->recovery != nullptr &&
      env_->recovery->request_watchdog > sim::SimTime::zero()) {
    arm_request_watchdog();
  }
}

void PnaXlet::arm_request_watchdog() {
  const std::uint64_t gen = ++request_gen_;
  std::weak_ptr<bool> alive = alive_;
  context_->simulation().schedule_timer_in(
      env_->recovery->request_watchdog,
      [this, alive, gen] {
        auto guard = alive.lock();
        if (!guard || !*guard || !started_ || hung_) return;
        if (gen != request_gen_) return;  // a reply arrived in time
        if (!dve_ || running_exec_) return;
        ++env_->recovery->request_retries;
        trace_emit(obs::TraceEventKind::kRecoveryRequestRetry, control_ctx_,
                   0);
        request_task();  // re-arms the watchdog
      },
      sim::SimTime::zero(), sim::EventPriority::kDefault);
}

void PnaXlet::arm_result_retry() {
  const std::uint64_t gen = ++result_gen_;
  // Exponential backoff with deterministic jitter: delay_n in
  // [0.5, 1.0) * base * 2^attempts, so colliding retries from agents that
  // lost the same ack desynchronize.
  const double backoff =
      env_->recovery->result_retry_base.seconds() *
      static_cast<double>(1ull << std::min(pending_result_->attempts, 16));
  const double delay = backoff * (0.5 + rng_.uniform(0.0, 0.5));
  std::weak_ptr<bool> alive = alive_;
  context_->simulation().schedule_timer_in(
      sim::SimTime::from_seconds(delay),
      [this, alive, gen] {
        auto guard = alive.lock();
        if (!guard || !*guard || !started_ || hung_) return;
        if (gen != result_gen_ || !pending_result_) return;
        if (pending_result_->attempts >= env_->recovery->result_retry_limit) {
          // Give up: the Backend's timeout sweep re-dispatches the task.
          pending_result_.reset();
          ++result_gen_;
          return;
        }
        ++pending_result_->attempts;
        ++env_->recovery->result_retries;
        const obs::TraceContext ctx =
            trace_emit(obs::TraceEventKind::kRecoveryResultRetry,
                       pending_result_->trace, pending_result_->task_index);
        context_->receiver().send(
            backend_node_,
            std::make_shared<TaskResultMessage>(
                pending_result_->instance, pending_result_->task_index,
                pna_id(), pending_result_->result_size, ctx,
                pending_result_->digest, pending_result_->replica));
        arm_result_retry();
      },
      sim::SimTime::zero(), sim::EventPriority::kDefault);
}

void PnaXlet::schedule_task_poll() {
  std::weak_ptr<bool> alive = alive_;
  // One-shot wheel timer: poll re-arm is O(1) regardless of how many PNAs
  // are polling, instead of churning the main event heap.
  context_->simulation().schedule_timer_in(
      env_->task_poll_interval,
      [this, alive] {
        auto guard = alive.lock();
        if (!guard || !*guard || !started_) return;
        request_task();
      },
      sim::SimTime::zero(), sim::EventPriority::kDefault);
}

void PnaXlet::on_direct_message(net::NodeId /*from*/,
                                const net::MessagePtr& message) {
  if (hung_) return;
  switch (message->tag()) {
    case kTagHeartbeatReply: {
      const auto& reply =
          static_cast<const HeartbeatReplyMessage&>(*message);
      if (reply.command() == HeartbeatCommand::kReset) {
        const bool match = reply.instance() != kNoInstance &&
                           ((dve_ && dve_->instance() == reply.instance()) ||
                            (pending_join_ &&
                             *pending_join_ == reply.instance()));
        if (match) {
          ++stats_.resets;
          if (env_->counters != nullptr) ++env_->counters->resets;
          leave_instance();
        }
      }
      break;
    }
    case kTagTaskAssign: {
      ++request_gen_;  // the request was answered; stop the watchdog
      if (!dve_) break;  // reset raced with an in-flight assignment
      const auto& assign = static_cast<const TaskAssignMessage&>(*message);
      if (assign.instance() != dve_->instance()) break;
      // Duplicate delivery of an assignment we are already executing (or a
      // second assignment racing a watchdog re-request): keep the first.
      if (running_exec_) break;
      const std::uint64_t task_index = assign.task_index();
      const util::Bits result_size = assign.result_size();
      const InstanceId instance = dve_->instance();
      const std::uint32_t replica = assign.replica();

      // Byzantine gate: with a profile block attached, this agent stamps a
      // result digest — the canonical one when honest, a forged one when
      // adversarial. Without a block, digest 0 keeps the pre-verification
      // wire bytes bit for bit.
      auto profile = fault::ByzantineProfile::kHonest;
      std::uint64_t digest = 0;
      if (env_->byzantine != nullptr) {
        const auto* table = env_->byzantine->table;
        const auto index =
            static_cast<std::size_t>(pna_id() - env_->byzantine->base);
        if (table != nullptr) profile = table->profile(index);
        digest = profile == fault::ByzantineProfile::kHonest
                     ? fault::honest_result_digest(instance, task_index)
                     : fault::forged_result_digest(table->forge_seed(index),
                                                   instance, task_index);
      }

      if (profile == fault::ByzantineProfile::kFreeRider) {
        // Free-rider: accept the task, skip the compute entirely, return
        // garbage immediately — to the Backend it looks like an absurdly
        // fast completion; only the digest (and the spot-check record)
        // gives it away.
        ++stats_.tasks_completed;
        if (env_->counters != nullptr) {
          ++env_->counters->tasks_completed;
          ++env_->counters->results_freeridden;
        }
        dve_->record_task_completed();
        const obs::TraceContext done = trace_emit(
            obs::TraceEventKind::kTaskExecuted, assign.trace(), task_index);
        context_->receiver().send(
            backend_node_,
            std::make_shared<TaskResultMessage>(instance, task_index,
                                                pna_id(), result_size, done,
                                                digest, replica));
        if (env_->recovery != nullptr) {
          pending_result_ = PendingResult{instance,    task_index,
                                          result_size, done,
                                          0,           digest,
                                          replica};
          arm_result_retry();
        }
        request_task();
        break;
      }

      running_task_ = task_index;
      running_replica_ = replica;
      running_task_ctx_ = assign.trace();
      const bool forged = profile != fault::ByzantineProfile::kHonest;
      running_exec_ = context_->receiver().execute(
          assign.reference_seconds(),
          [this, task_index, result_size, instance, digest, replica,
           forged] {
            running_exec_.reset();
            running_task_.reset();
            if (!dve_ || dve_->instance() != instance) return;
            ++stats_.tasks_completed;
            if (env_->counters != nullptr) {
              ++env_->counters->tasks_completed;
              if (forged) ++env_->counters->results_forged;
            }
            dve_->record_task_completed();
            const obs::TraceContext done =
                trace_emit(obs::TraceEventKind::kTaskExecuted,
                           running_task_ctx_, task_index);
            running_task_ctx_ = {};
            context_->receiver().send(
                backend_node_, std::make_shared<TaskResultMessage>(
                                   instance, task_index, pna_id(),
                                   result_size, done, digest, replica));
            if (env_->recovery != nullptr) {
              // Hold the result for bounded retry until the Backend acks.
              pending_result_ = PendingResult{instance,    task_index,
                                              result_size, done,
                                              0,           digest,
                                              replica};
              arm_result_retry();
            }
            request_task();
          });
      break;
    }
    case kTagTaskResultAck: {
      const auto& ack = static_cast<const TaskResultAckMessage&>(*message);
      if (pending_result_ && pending_result_->instance == ack.instance() &&
          pending_result_->task_index == ack.task_index()) {
        pending_result_.reset();
        ++result_gen_;  // invalidate the in-flight retry timer
      }
      break;
    }
    case kTagNoTask: {
      ++request_gen_;  // the request was answered; stop the watchdog
      if (!dve_) break;
      // Queue exhausted: the PNA remains a member of the instance until a
      // reset, polling lazily in case tasks are re-queued (churn recovery).
      schedule_task_poll();
      break;
    }
    default:
      break;
  }
}

bool PnaXlet::fault_crash() {
  if (!started_ || context_ == nullptr) return false;
  // The process dies: every outstanding callback, read, and timer holds a
  // weak_ptr to the old liveness token and becomes inert; the relaunched
  // Xlet gets a fresh one.
  *alive_ = false;
  alive_ = std::make_shared<bool>(true);
  hung_ = false;
  pace_pending_ = false;  // the pending release timer died with the token
  if (heartbeat_running_) {
    heartbeat_.cancel();
    heartbeat_running_ = false;
  }
  if (running_exec_) {
    context_->receiver().cancel_execution(*running_exec_);
    running_exec_.reset();
  }
  // No abort goes out — a crashed process cannot say goodbye. The
  // Backend's timeout sweep recovers any task that was in flight.
  running_task_.reset();
  running_task_ctx_ = {};
  pending_result_.reset();
  ++result_gen_;
  ++request_gen_;
  dve_.reset();
  pending_join_.reset();
  join_ctx_ = {};
  control_ctx_ = {};
  controller_node_ = net::kInvalidNode;
  heartbeat_target_ = net::kInvalidNode;
  backend_node_ = net::kInvalidNode;
  heartbeat_interval_ = {};
  last_handled_content_ = 0;
  pending_read_content_ = 0;
  // Middleware watchdog relaunch: the trigger application starts over and
  // re-reads the on-air configuration, which re-homes it (heartbeats,
  // possibly a fresh join if a wakeup is on air).
  acquire_config();
  return true;
}

bool PnaXlet::fault_hang(sim::SimTime duration) {
  if (!started_ || hung_ || context_ == nullptr) return false;
  hung_ = true;
  // A frozen process fires no timers and services no I/O: invalidate all
  // outstanding callbacks like a crash does, but keep the state so the
  // agent *looks* alive (stale membership) until the watchdog acts.
  *alive_ = false;
  alive_ = std::make_shared<bool>(true);
  pace_pending_ = false;
  if (heartbeat_running_) {
    heartbeat_.cancel();
    heartbeat_running_ = false;
  }
  if (running_exec_) {
    context_->receiver().cancel_execution(*running_exec_);
    running_exec_.reset();
  }
  std::weak_ptr<bool> alive = alive_;
  context_->simulation().schedule_timer_in(
      duration,
      [this, alive] {
        auto guard = alive.lock();
        if (!guard || !*guard || !started_ || !hung_) return;
        // Watchdog: kill the frozen process and relaunch it.
        hung_ = false;
        fault_crash();
      },
      sim::SimTime::zero(), sim::EventPriority::kDefault);
  return true;
}

}  // namespace oddci::core
