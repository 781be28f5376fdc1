#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "broadcast/channel.hpp"
#include "dtv/application_manager.hpp"
#include "dtv/device_profile.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

/// A DTV receiver (set-top box): tuner + middleware + interactive-apps
/// processor + return channel.
///
/// The receiver is the host environment for the PNA Xlet. It:
///  * tunes a broadcast medium (DTV channel, multicast group) and forwards
///    acquired AITs to its
///    ApplicationManager (AUTOSTART apps launch after their code base has
///    been read from the carousel);
///  * models the dedicated interactive-application processor as a FIFO
///    resource whose speed depends on the device profile and power mode;
///  * owns the direct (return) channel endpoint used by Xlets to talk to
///    the Controller and Backend.
namespace oddci::dtv {

class Receiver final : public broadcast::BroadcastListener,
                       public net::Endpoint {
 public:
  Receiver(sim::Simulation& simulation, net::Network& network,
           DeviceProfile profile, net::LinkSpec link);
  ~Receiver() override;

  Receiver(const Receiver&) = delete;
  Receiver& operator=(const Receiver&) = delete;

  // --- identity / capabilities -------------------------------------------
  [[nodiscard]] const DeviceProfile& profile() const { return profile_; }
  [[nodiscard]] net::NodeId node_id() const { return node_id_; }
  [[nodiscard]] sim::Simulation& simulation() { return simulation_; }
  [[nodiscard]] ApplicationManager& application_manager() { return apps_; }

  /// Attach a flight recorder: power-mode changes and tuner changes are
  /// emitted as receiver-track events (the physical causes behind member
  /// churn). nullptr detaches.
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

  // --- sharded kernel -------------------------------------------------------
  /// Place this receiver on kernel shard `shard`. `stable_listener_id` is
  /// its channel listener id for life (so re-tunes after power cycles stay
  /// deterministic); `loss_rng` is the shard's section-loss stream (shared
  /// by the shard's receivers, drawn in event order). The receiver's
  /// `simulation` reference must already be the shard's kernel. Required
  /// before tuning a capsule medium (the DTV carousel) at any shard count;
  /// `sharded` may be null for a receiver on shard 0.
  void set_shard_context(sim::ShardedSimulation* sharded, std::uint32_t shard,
                         broadcast::ListenerId stable_listener_id,
                         util::Random* loss_rng);

  /// Construction is single-threaded: until this is called, tuner changes
  /// reach the channel directly. Call once the population is built (before
  /// the first run); from then on, receivers on non-control shards post
  /// tune/untune through the kernel mailbox.
  void activate_shard_routing() { shard_routing_live_ = true; }

  [[nodiscard]] std::uint32_t shard() const { return shard_; }

  /// The carousel view this receiver acts on: the retained signalling
  /// capsule on a capsule medium (the DTV carousel), the live snapshot
  /// otherwise (IP multicast).
  [[nodiscard]] const broadcast::CarouselSnapshot* current_carousel() const;

  // --- power --------------------------------------------------------------
  [[nodiscard]] PowerMode power_mode() const { return power_; }
  /// Switching off destroys all Xlets, cancels executions and detaches the
  /// return channel. Switching on re-attaches; if a channel was tuned it is
  /// re-acquired (signalling will be re-delivered by the carousel).
  void set_power_mode(PowerMode mode);
  [[nodiscard]] bool powered() const { return power_ != PowerMode::kOff; }

  // --- tuner ----------------------------------------------------------------
  /// Tune to `channel` (replacing any previous channel; running broadcast
  /// apps are destroyed, as a real channel change does).
  void tune(broadcast::BroadcastMedium& channel);
  void untune();
  [[nodiscard]] broadcast::BroadcastMedium* tuned_channel() {
    return channel_;
  }

  // --- interactive-apps processor ------------------------------------------
  using ExecToken = std::uint64_t;
  /// Run a job that takes `reference_seconds` on the reference PC. The
  /// actual duration is scaled by the profile slowdown for the *current*
  /// power mode and serialized FIFO after previously submitted jobs.
  /// Returns a token usable with `cancel_execution`.
  ExecToken execute(double reference_seconds, std::function<void()> on_done);
  bool cancel_execution(ExecToken token);
  /// Local duration a job of `reference_seconds` takes right now.
  [[nodiscard]] double scaled_seconds(double reference_seconds) const;

  // --- carousel access (used by XletContext) --------------------------------
  void read_carousel_file(
      const std::string& name,
      std::function<void(bool ok, broadcast::CarouselFile file)> on_done);

  // --- return channel --------------------------------------------------------
  using MessageHandler =
      std::function<void(net::NodeId from, const net::MessagePtr&)>;
  /// Xlets install a handler to receive direct-channel messages.
  void set_message_handler(MessageHandler handler);
  void clear_message_handler();
  /// Send on the return channel; silently dropped if powered off.
  void send(net::NodeId to, net::MessagePtr message);

  // --- BroadcastListener ------------------------------------------------------
  void on_signalling(const broadcast::Ait& ait,
                     const broadcast::CarouselSnapshot& snapshot) override;
  void on_signalling_capsule(
      const std::shared_ptr<const broadcast::SignallingCapsule>& capsule)
      override;

  // --- net::Endpoint ----------------------------------------------------------
  void on_message(net::NodeId from, const net::MessagePtr& message) override;

 private:
  /// Bumped whenever in-flight async work must be invalidated (power off,
  /// channel change).
  std::uint64_t session_ = 0;

  void autostart_from_ait(const broadcast::Ait& ait);

  /// Tuner mutations: direct while single-threaded (or on the control
  /// shard), mailbox-posted from worker shards.
  void channel_tune();
  void channel_untune();

  sim::Simulation& simulation_;
  net::Network& network_;
  DeviceProfile profile_;
  net::NodeId node_id_ = net::kInvalidNode;
  PowerMode power_ = PowerMode::kStandby;

  broadcast::BroadcastMedium* channel_ = nullptr;
  broadcast::ListenerId listener_id_ = 0;

  ApplicationManager apps_;
  MessageHandler handler_;

  sim::SimTime cpu_free_at_;
  ExecToken next_token_ = 1;
  std::unordered_map<ExecToken, sim::EventId> running_;
  obs::FlightRecorder* recorder_ = nullptr;

  sim::ShardedSimulation* sharded_ = nullptr;
  std::uint32_t shard_ = 0;
  broadcast::ListenerId stable_listener_id_ = 0;
  util::Random* loss_rng_ = nullptr;
  bool shard_routing_live_ = false;
  /// Latest signalling capsule (capsule media): the receiver's own frozen
  /// view of what is on air, used for carousel reads and version checks.
  std::shared_ptr<const broadcast::SignallingCapsule> capsule_;
};

}  // namespace oddci::dtv
