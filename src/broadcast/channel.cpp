#include "broadcast/channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace oddci::broadcast {

BroadcastChannel::BroadcastChannel(sim::Simulation& simulation,
                                   TransportStream transport,
                                   std::uint64_t seed,
                                   sim::SimTime table_repetition)
    : simulation_(simulation),
      transport_(std::move(transport)),
      carousel_(transport_.unused()),
      table_repetition_(table_repetition),
      rng_(seed) {
  if (table_repetition <= sim::SimTime::zero()) {
    throw std::invalid_argument(
        "BroadcastChannel: table repetition must be positive");
  }
}

std::uint64_t BroadcastChannel::commit() {
  carousel_.set_rate(transport_.unused());
  // Continuous-multiplex semantics: the new generation picks up at a
  // random rotation of its cycle (the stream never "restarts"), which is
  // what gives acquisition its half-cycle average wait.
  const std::int64_t phase =
      static_cast<std::int64_t>(rng_.engine().next() >> 1);
  const std::uint64_t generation =
      carousel_.commit(simulation_.now(), phase);
  ++commit_count_;
  if (counters_ != nullptr) ++counters_->commits;
  if (recorder_ != nullptr) {
    recorder_->emit(simulation_.now(),
                    obs::TraceEventKind::kCarouselCommit,
                    obs::TraceComponent::kCarousel, {}, generation,
                    carousel_.current().files.size());
  }
  // Freeze this generation's signalling once; every delivery shares the
  // same immutable capsule.
  capsule_ = std::make_shared<const SignallingCapsule>(SignallingCapsule{
      ait_, carousel_.current(), section_loss_, section_size_});
  for (const auto& [id, listener] : listeners_) {
    (void)listener;
    schedule_acquisition(id);
  }
  return generation;
}

void BroadcastChannel::schedule_acquisition(ListenerId id) {
  if (counters_ != nullptr) ++counters_->announcements;
  // Phase delay until the receiver sees the updated tables on air.
  const double phase_s =
      rng_.uniform(0.0, table_repetition_.seconds());
  const std::uint64_t generation = carousel_.current().generation;
  simulation_.schedule_timer_in(
      sim::SimTime::from_seconds(phase_s),
      [this, id, generation] {
        auto it = listeners_.find(id);
        if (it == listeners_.end()) return;        // untuned meanwhile
        if (carousel_.current().generation != generation) {
          return;  // superseded by a newer commit; its own event will fire
        }
        // The superseded check above ran live on the channel's shard; the
        // listener gets the frozen capsule, through the mailbox when it
        // lives on another shard.
        const Listener& target = it->second;
        if (target.shard == 0) {
          target.listener->on_signalling_capsule(capsule_);
          return;
        }
        sharded_->post(0, target.shard, simulation_.now(),
                       [listener = target.listener, capsule = capsule_] {
                         listener->on_signalling_capsule(capsule);
                       });
      },
      sim::SimTime::zero(), sim::EventPriority::kDelivery);
}

void BroadcastChannel::set_section_loss(double per_section_loss,
                                        util::Bits section_size) {
  if (per_section_loss < 0.0 || per_section_loss >= 1.0) {
    throw std::invalid_argument(
        "BroadcastChannel: section loss must be in [0, 1)");
  }
  if (section_size.count() <= 0) {
    throw std::invalid_argument(
        "BroadcastChannel: section size must be positive");
  }
  section_loss_ = per_section_loss;
  section_size_ = section_size;
}

std::optional<sim::SimTime> lossy_read_completion_time(
    const CarouselSnapshot& snapshot, const std::string& name,
    sim::SimTime listen_from, double section_loss, util::Bits section_size,
    util::Random& loss_rng) {
  auto ready = snapshot.read_completion_time(name, listen_from);
  if (!ready || section_loss <= 0.0) return ready;

  const CarouselFile& file = *snapshot.find(name);
  const double u = loss_rng.uniform();
  const auto sections = static_cast<double>(
      (file.size.count() + section_size.count() - 1) / section_size.count());
  const double root = std::pow(u, 1.0 / sections);
  double passes = 1.0;
  if (root < 1.0) {
    passes = std::ceil(std::log1p(-root) / std::log(section_loss));
    passes = std::max(passes, 1.0);
  }
  return *ready +
         sim::SimTime::from_seconds((passes - 1.0) * snapshot.cycle_seconds());
}

std::optional<sim::SimTime> BroadcastChannel::file_ready_at(
    const std::string& name, sim::SimTime listen_from) {
  return lossy_read_completion_time(carousel_.current(), name, listen_from,
                                    section_loss_, section_size_, rng_);
}

ListenerId BroadcastChannel::tune(BroadcastListener* listener) {
  if (listener == nullptr) {
    throw std::invalid_argument("BroadcastChannel: null listener");
  }
  const ListenerId id = next_listener_++;
  listeners_.emplace(id, Listener{listener, 0});
  if (carousel_.has_committed()) {
    schedule_acquisition(id);
  }
  return id;
}

ListenerId BroadcastChannel::tune_with_id(ListenerId id,
                                          BroadcastListener* listener,
                                          std::uint32_t shard) {
  if (listener == nullptr) {
    throw std::invalid_argument("BroadcastChannel: null listener");
  }
  if (id == 0 || listeners_.count(id) > 0) {
    throw std::invalid_argument("BroadcastChannel: bad stable listener id");
  }
  if (shard != 0 && sharded_ == nullptr) {
    throw std::invalid_argument(
        "BroadcastChannel: off-control-shard listener needs set_sharded");
  }
  // Stay clear of the auto-assigned range so plain tune() never collides.
  next_listener_ = std::max(next_listener_, id + 1);
  listeners_.emplace(id, Listener{listener, shard});
  if (carousel_.has_committed()) {
    schedule_acquisition(id);
  }
  return id;
}

void BroadcastChannel::untune(ListenerId id) { listeners_.erase(id); }

}  // namespace oddci::broadcast
