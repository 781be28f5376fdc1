#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "broadcast/ait.hpp"
#include "broadcast/carousel.hpp"
#include "broadcast/medium.hpp"
#include "broadcast/transport_stream.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

/// One broadcast (TV) channel: a transport stream carrying A/V elementary
/// streams, PSI/SI signalling (including the AIT) and a DSM-CC object
/// carousel on the unused capacity.
///
/// Receivers `tune()` in and are notified whenever new signalling starts to
/// be transmitted. Acquisition is not instantaneous: tables repeat with a
/// configurable period, so each receiver observes a change after a random
/// phase delay in [0, repetition_period) — this models the real spread in
/// trigger-application launch times across a population of set-top boxes.
namespace oddci::broadcast {

/// Immutable copy of one generation's on-air signalling: the channel
/// (control shard) freezes its AIT, carousel snapshot and loss model at
/// every commit; receivers on every shard retain the capsule and compute
/// acquisition times from it without ever touching the live channel.
struct SignallingCapsule {
  Ait ait;
  CarouselSnapshot snapshot;
  double section_loss = 0.0;
  util::Bits section_size;
};

/// When a reader that starts listening at `listen_from` has `name` fully
/// acquired from `snapshot` under i.i.d. per-section loss `section_loss`
/// (in [0,1)): the loss-free read time plus whole extra carousel cycles.
/// With loss on, one Uniform(0,1) sample is drawn from the caller's
/// `loss_rng`, so each RNG stream's consumption order is explicit; without
/// loss (or for a file not on air) nothing is drawn. Each section needs
/// Geometric(1-p) passes and the file completes when the slowest of its k
/// sections lands: P(max passes <= m) = (1 - p^m)^k, so the pass count is
///   m = ceil( log(1 - u^(1/k)) / log(p) ).
[[nodiscard]] std::optional<sim::SimTime> lossy_read_completion_time(
    const CarouselSnapshot& snapshot, const std::string& name,
    sim::SimTime listen_from, double section_loss, util::Bits section_size,
    util::Random& loss_rng);

class BroadcastListener {
 public:
  virtual ~BroadcastListener() = default;

  /// New signalling (AIT version and/or carousel generation) acquired.
  virtual void on_signalling(const Ait& ait,
                             const CarouselSnapshot& snapshot) = 0;

  /// Capsule delivery (DTV carousel): signalling travels as a shared
  /// immutable capsule. The default unwraps to on_signalling.
  virtual void on_signalling_capsule(
      const std::shared_ptr<const SignallingCapsule>& capsule) {
    on_signalling(capsule->ait, capsule->snapshot);
  }
};

class BroadcastChannel final : public BroadcastMedium {
 public:
  BroadcastChannel(sim::Simulation& simulation, TransportStream transport,
                   std::uint64_t seed,
                   sim::SimTime table_repetition =
                       sim::SimTime::from_millis(500));

  BroadcastChannel(const BroadcastChannel&) = delete;
  BroadcastChannel& operator=(const BroadcastChannel&) = delete;

  [[nodiscard]] const TransportStream& transport() const { return transport_; }
  [[nodiscard]] util::BitRate carousel_rate() const {
    return transport_.unused();
  }

  /// Staging interface: mutate the AIT and carousel contents, then commit.
  Ait& ait() override { return ait_; }
  ObjectCarousel& carousel() { return carousel_; }
  [[nodiscard]] const ObjectCarousel& carousel() const { return carousel_; }

  void put_file(const std::string& name, util::Bits size,
                std::uint64_t content_id) override {
    carousel_.put_file(name, size, content_id);
    if (counters_ != nullptr) ++counters_->files_staged;
  }
  bool remove_file(const std::string& name) override {
    const bool removed = carousel_.remove_file(name);
    if (removed && counters_ != nullptr) ++counters_->files_removed;
    return removed;
  }
  [[nodiscard]] const CarouselSnapshot& current() const override {
    return carousel_.current();
  }

  /// Atomically start transmitting the staged carousel and current AIT.
  /// Every tuned listener is scheduled to acquire the new signalling after
  /// its own phase delay. Returns the new carousel generation.
  std::uint64_t commit() override;

  /// Attach a listener on the control shard (receiver tuned to this
  /// channel). If signalling is already on air, the listener acquires it
  /// after a phase delay.
  ListenerId tune(BroadcastListener* listener) override;

  /// Tune with a stable listener id (so the same receiver keeps its id
  /// across power cycles — cross-shard re-tunes stay deterministic) and
  /// its kernel shard, which routes capsule deliveries. Must only run on
  /// the channel's own (control) shard; a shard other than 0 needs
  /// set_sharded first.
  ListenerId tune_with_id(ListenerId id, BroadcastListener* listener,
                          std::uint32_t shard) override;

  /// Detach; pending acquisitions for this listener are dropped.
  void untune(ListenerId id) override;

  /// Attach the sharded kernel: acquisition timers stay on the channel's
  /// shard, but the capsule delivery to a listener on another shard is
  /// posted through the kernel mailbox. Call before any tune or commit.
  void set_sharded(sim::ShardedSimulation* sharded) { sharded_ = sharded; }

  [[nodiscard]] bool delivers_capsules() const override { return true; }

  [[nodiscard]] std::size_t tuned_count() const override {
    return listeners_.size();
  }

  /// Mean acquisition is 1.5 cycles; by two full cycles a clean-channel
  /// receiver has certainly seen every module once.
  [[nodiscard]] double acquisition_horizon_seconds() const override {
    if (!carousel_.has_committed()) return 0.0;
    return 2.0 * carousel_.current().cycle_seconds();
  }

  /// Broadcast reception is not loss-free: model an i.i.d. per-section
  /// loss probability (DSM-CC sections are ~4 KB). Receivers accumulate
  /// sections across cycles, so a lost section costs one extra carousel
  /// cycle for that section; a file completes when its last section lands.
  /// Default 0 (clean channel).
  void set_section_loss(
      double per_section_loss,
      util::Bits section_size = util::Bits::from_kilobytes(4));
  [[nodiscard]] double section_loss() const { return section_loss_; }

  /// When a listener that starts reading at `listen_from` will have the
  /// named carousel file fully acquired (lossy_read_completion_time over
  /// the live carousel, drawing from the channel's RNG). Receivers do not
  /// read through here: they read their capsule with their shard's loss
  /// stream, so their draws never perturb the channel's phase stream.
  [[nodiscard]] std::optional<sim::SimTime> file_ready_at(
      const std::string& name, sim::SimTime listen_from) override;

  [[nodiscard]] std::uint64_t commits() const { return commit_count_; }

 private:
  struct Listener {
    BroadcastListener* listener;
    /// Kernel shard the capsule delivery is routed to.
    std::uint32_t shard;
  };

  void schedule_acquisition(ListenerId id);

  sim::Simulation& simulation_;
  TransportStream transport_;
  Ait ait_;
  ObjectCarousel carousel_;
  sim::SimTime table_repetition_;
  double section_loss_ = 0.0;
  util::Bits section_size_ = util::Bits::from_kilobytes(4);
  util::Random rng_;
  std::unordered_map<ListenerId, Listener> listeners_;
  ListenerId next_listener_ = 1;
  std::uint64_t commit_count_ = 0;
  sim::ShardedSimulation* sharded_ = nullptr;
  /// Current generation's frozen signalling (built at every commit).
  std::shared_ptr<const SignallingCapsule> capsule_;
};

}  // namespace oddci::broadcast
