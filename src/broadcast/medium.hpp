#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "broadcast/ait.hpp"
#include "broadcast/carousel.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

/// Abstraction over broadcast delivery technologies.
///
/// Section 3.3 of the paper lists several one-to-many substrates an OddCI
/// can be built on: digital TV in its various modalities, multicast over
/// broadband, mobile networks, IPTV. The OddCI components only need the
/// operations below; `BroadcastChannel` (DSM-CC carousel over a DTV
/// transport stream) and `MulticastChannel` (block-coded IP multicast
/// sessions) are the two provided implementations.
namespace oddci::broadcast {

class BroadcastListener;
using ListenerId = std::uint64_t;

class BroadcastMedium {
 public:
  virtual ~BroadcastMedium() = default;

  // --- signalling -----------------------------------------------------------
  /// The application-information table announced on this medium.
  virtual Ait& ait() = 0;

  // --- content staging -------------------------------------------------------
  /// Stage (or replace, bumping the version of) a file for transmission.
  virtual void put_file(const std::string& name, util::Bits size,
                        std::uint64_t content_id) = 0;
  virtual bool remove_file(const std::string& name) = 0;
  /// Atomically start transmitting the staged contents; notifies tuned
  /// listeners. Returns the new generation number.
  virtual std::uint64_t commit() = 0;

  /// Snapshot of what is currently on air.
  [[nodiscard]] virtual const CarouselSnapshot& current() const = 0;

  // --- receivers --------------------------------------------------------------
  virtual ListenerId tune(BroadcastListener* listener) = 0;
  /// Tune with a caller-chosen stable id and the listener's kernel shard
  /// (used to route deliveries). Media that do not support sharding fall
  /// back to a plain tune and ignore both.
  virtual ListenerId tune_with_id(ListenerId id, BroadcastListener* listener,
                                  std::uint32_t shard) {
    (void)id;
    (void)shard;
    return tune(listener);
  }
  virtual void untune(ListenerId id) = 0;
  [[nodiscard]] virtual std::size_t tuned_count() const = 0;
  /// True when every signalling delivery arrives as a frozen
  /// SignallingCapsule that listeners read files from (the DTV carousel);
  /// false when listeners read the live medium (IP multicast, which is
  /// single-shard only).
  [[nodiscard]] virtual bool delivers_capsules() const { return false; }

  /// When a receiver that starts listening at `listen_from` has fully
  /// acquired the named file (technology-specific; may be stochastic).
  [[nodiscard]] virtual std::optional<sim::SimTime> file_ready_at(
      const std::string& name, sim::SimTime listen_from) = 0;

  /// Upper-bound estimate of how long a willing receiver needs to acquire
  /// everything currently on air — the Controller waits this long before
  /// concluding a wakeup was ignored rather than still in flight.
  [[nodiscard]] virtual double acquisition_horizon_seconds() const = 0;

  // --- observability ----------------------------------------------------------
  /// Attach shared broadcast counters (commits, staged/removed files,
  /// per-listener announcements). nullptr detaches. The cells must outlive
  /// the medium; all media of one system may share one block.
  void set_counters(obs::BroadcastCounters* counters) { counters_ = counters; }

  /// Attach a flight recorder: every commit() is emitted as an
  /// infrastructure-level carousel.commit event (the broadcast plane is
  /// one-to-many, so cycle events are not tied to a single trace).
  /// nullptr detaches.
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

 protected:
  obs::BroadcastCounters* counters_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace oddci::broadcast
