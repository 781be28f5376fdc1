#include "dtv/receiver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace oddci::dtv {

sim::Simulation& XletContext::simulation() { return receiver_->simulation(); }

const broadcast::CarouselSnapshot* XletContext::current_carousel() const {
  return receiver_->current_carousel();
}

void XletContext::read_carousel_file(
    const std::string& name,
    std::function<void(bool, broadcast::CarouselFile)> on_done) {
  receiver_->read_carousel_file(name, std::move(on_done));
}

Receiver::Receiver(sim::Simulation& simulation, net::Network& network,
                   DeviceProfile profile, net::LinkSpec link)
    : simulation_(simulation),
      network_(network),
      profile_(std::move(profile)),
      apps_(*this),
      cpu_free_at_(simulation.now()) {
  node_id_ = network_.register_endpoint(this, link);
}

Receiver::~Receiver() {
  // Teardown is single-threaded (the kernel has stopped); talk to the
  // channel directly regardless of shard routing.
  if (channel_ != nullptr) {
    channel_->untune(listener_id_);
  }
  if (node_id_ != net::kInvalidNode && network_.attached(node_id_)) {
    network_.unregister_endpoint(node_id_);
  }
}

void Receiver::set_shard_context(sim::ShardedSimulation* sharded,
                                 std::uint32_t shard,
                                 broadcast::ListenerId stable_listener_id,
                                 util::Random* loss_rng) {
  if (stable_listener_id == 0 || loss_rng == nullptr ||
      (shard != 0 && sharded == nullptr)) {
    throw std::invalid_argument(
        "Receiver: shard context needs a stable listener id, a loss rng and "
        "(off shard 0) the sharded kernel");
  }
  sharded_ = sharded;
  shard_ = shard;
  stable_listener_id_ = stable_listener_id;
  loss_rng_ = loss_rng;
}

const broadcast::CarouselSnapshot* Receiver::current_carousel() const {
  if (!powered() || channel_ == nullptr) return nullptr;
  if (channel_->delivers_capsules()) {
    // Never dereference the live channel, which belongs to the control
    // shard: act on the retained capsule (null until the first signalling
    // delivery).
    return capsule_ != nullptr ? &capsule_->snapshot : nullptr;
  }
  return &channel_->current();
}

void Receiver::channel_tune() {
  if (shard_ == 0 || !shard_routing_live_) {
    listener_id_ = channel_->tune_with_id(stable_listener_id_, this, shard_);
    return;
  }
  // The channel lives on the control shard; mailbox FIFO order keeps
  // tune/untune sequences from one receiver in program order.
  listener_id_ = stable_listener_id_;
  sharded_->post(shard_, 0, simulation_.now(), [this, channel = channel_] {
    channel->tune_with_id(stable_listener_id_, this, shard_);
  });
}

void Receiver::channel_untune() {
  if (shard_ == 0 || !shard_routing_live_) {
    channel_->untune(listener_id_);
    return;
  }
  sharded_->post(shard_, 0, simulation_.now(),
                 [channel = channel_, id = listener_id_] {
                   channel->untune(id);
                 });
}

void Receiver::set_power_mode(PowerMode mode) {
  if (mode == power_) return;
  const PowerMode previous = power_;
  power_ = mode;
  if (recorder_ != nullptr) {
    recorder_->emit(simulation_.now(), obs::TraceEventKind::kPowerChange,
                    obs::TraceComponent::kReceiver, {}, node_id_,
                    static_cast<std::uint64_t>(mode));
  }

  if (mode == PowerMode::kOff) {
    ++session_;
    apps_.destroy_all();
    for (auto& [token, event] : running_) {
      simulation_.cancel(event);
    }
    running_.clear();
    cpu_free_at_ = simulation_.now();
    handler_ = nullptr;
    capsule_.reset();
    if (channel_ != nullptr) {
      channel_untune();
      listener_id_ = 0;
    }
    network_.unregister_endpoint(node_id_);
    return;
  }

  if (previous == PowerMode::kOff) {
    // Coming back: re-attach the return channel and re-acquire signalling.
    network_.reattach_endpoint(node_id_, this);
    cpu_free_at_ = simulation_.now();
    if (channel_ != nullptr) {
      channel_tune();
    }
  }
  // Standby <-> in-use transitions only change the slowdown of *future*
  // dispatches; jobs already running keep their speed (documented).
}

void Receiver::tune(broadcast::BroadcastMedium& channel) {
  if (channel_ == &channel) return;
  if (channel_ != nullptr) {
    untune();
  }
  channel_ = &channel;
  if (recorder_ != nullptr) {
    recorder_->emit(simulation_.now(), obs::TraceEventKind::kTuned,
                    obs::TraceComponent::kReceiver, {}, node_id_, 1);
  }
  if (powered()) {
    ++session_;  // invalidate carousel reads from the previous channel
    channel_tune();
  }
}

void Receiver::untune() {
  if (channel_ == nullptr) return;
  if (recorder_ != nullptr) {
    recorder_->emit(simulation_.now(), obs::TraceEventKind::kTuned,
                    obs::TraceComponent::kReceiver, {}, node_id_, 0);
  }
  ++session_;
  apps_.destroy_all();  // a channel change kills broadcast applications
  if (powered()) {
    channel_untune();
  }
  channel_ = nullptr;
  listener_id_ = 0;
  capsule_.reset();
}

double Receiver::scaled_seconds(double reference_seconds) const {
  if (!powered()) {
    throw std::logic_error("Receiver: cannot execute while powered off");
  }
  return reference_seconds * profile_.slowdown(power_);
}

Receiver::ExecToken Receiver::execute(double reference_seconds,
                                      std::function<void()> on_done) {
  if (reference_seconds < 0.0) {
    throw std::invalid_argument("Receiver: negative execution time");
  }
  if (!on_done) {
    throw std::invalid_argument("Receiver: empty completion callback");
  }
  const double local = scaled_seconds(reference_seconds);
  const sim::SimTime begin = std::max(simulation_.now(), cpu_free_at_);
  const sim::SimTime done = begin + sim::SimTime::from_seconds(local);
  cpu_free_at_ = done;

  const ExecToken token = next_token_++;
  const sim::EventId event = simulation_.schedule_at(
      done, [this, token, cb = std::move(on_done)] {
        running_.erase(token);
        cb();
      });
  running_.emplace(token, event);
  return token;
}

bool Receiver::cancel_execution(ExecToken token) {
  auto it = running_.find(token);
  if (it == running_.end()) return false;
  simulation_.cancel(it->second);
  running_.erase(it);
  // Note: the FIFO reservation is not reclaimed; a real STB would also not
  // compact its schedule instantaneously.
  return true;
}

void Receiver::read_carousel_file(
    const std::string& name,
    std::function<void(bool, broadcast::CarouselFile)> on_done) {
  if (!on_done) {
    throw std::invalid_argument("Receiver: empty carousel callback");
  }
  const broadcast::CarouselSnapshot* snapshot = current_carousel();
  if (snapshot == nullptr) {
    on_done(false, broadcast::CarouselFile{});
    return;
  }
  std::optional<sim::SimTime> ready;
  if (channel_->delivers_capsules()) {
    // Acquisition comes entirely from the retained capsule. Section-loss
    // extra cycles draw from this shard's loss stream, keeping each
    // shard's RNG consumption independent of the others and of the
    // channel's own stream.
    ready = broadcast::lossy_read_completion_time(
        *snapshot, name, simulation_.now(), capsule_->section_loss,
        capsule_->section_size, *loss_rng_);
  } else {
    ready = channel_->file_ready_at(name, simulation_.now());
  }
  if (!ready) {
    on_done(false, broadcast::CarouselFile{});
    return;
  }
  const broadcast::CarouselFile file = *snapshot->find(name);
  const std::uint64_t session = session_;
  simulation_.schedule_at(
      *ready, [this, session, file, cb = std::move(on_done)] {
        // Invalidated by power-off/channel change. A new carousel
        // generation does NOT abort the read as long as the module itself
        // is unchanged (same name/version/content): real DSM-CC receivers
        // keep assembling a module across unrelated carousel updates and
        // only restart on a module-version bump.
        const broadcast::CarouselSnapshot* on_air = current_carousel();
        const broadcast::CarouselFile* now_on_air =
            session_ == session && on_air != nullptr ? on_air->find(file.name)
                                                     : nullptr;
        if (now_on_air == nullptr || now_on_air->version != file.version ||
            now_on_air->content_id != file.content_id) {
          cb(false, broadcast::CarouselFile{});
          return;
        }
        cb(true, file);
      });
}

void Receiver::set_message_handler(MessageHandler handler) {
  handler_ = std::move(handler);
}

void Receiver::clear_message_handler() { handler_ = nullptr; }

void Receiver::send(net::NodeId to, net::MessagePtr message) {
  if (!powered()) return;
  network_.send(node_id_, to, std::move(message));
}

void Receiver::on_signalling(const broadcast::Ait& ait,
                             const broadcast::CarouselSnapshot& snapshot) {
  if (!powered()) return;
  autostart_from_ait(ait);
  // DESTROY/KILL codes are processed immediately.
  apps_.process_ait(ait);
  // Already-running trigger applications observe the fresh carousel.
  apps_.notify_carousel(snapshot);
}

void Receiver::on_signalling_capsule(
    const std::shared_ptr<const broadcast::SignallingCapsule>& capsule) {
  // Cross-shard deliveries can lag a power-off or channel change by up to
  // one window; drop them instead of resurrecting state.
  if (!powered() || channel_ == nullptr) return;
  capsule_ = capsule;
  autostart_from_ait(capsule->ait);
  apps_.process_ait(capsule->ait);
  apps_.notify_carousel(capsule->snapshot);
}

void Receiver::autostart_from_ait(const broadcast::Ait& ait) {
  for (const auto& entry : ait.autostart_entries()) {
    if (apps_.running(entry.application_id)) continue;
    if (entry.base_file.empty()) {
      apps_.launch(entry.application_id, entry.application_name);
      continue;
    }
    // The trigger application's code base must first be read from the
    // carousel (this is what spreads PNA launch times across receivers).
    read_carousel_file(
        entry.base_file,
        [this, entry](bool ok, const broadcast::CarouselFile&) {
          if (!ok) return;
          if (!apps_.running(entry.application_id)) {
            apps_.launch(entry.application_id, entry.application_name);
          }
        });
  }
}

void Receiver::on_message(net::NodeId from, const net::MessagePtr& message) {
  if (!powered()) return;
  if (handler_) {
    handler_(from, message);
  }
}

}  // namespace oddci::dtv
