#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mcast/multicast_router.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "traffic/fluid_engine.hpp"
#include "traffic/layer_spec.hpp"
#include "transport/demux.hpp"

namespace tsim::transport {

/// A multicast receiver host for one session: manages cumulative layer
/// subscription (joining/leaving one group per layer), tracks per-window loss
/// via RTP-style sequence-number gaps, and mails RTCP-like reports to the
/// domain controller as real unicast packets (they share queues with data and
/// can be lost).
///
/// Under the fluid traffic engine the endpoint pulls rather than being
/// pushed to: it reads the engine's whole byte/packet/loss totals for its
/// subscribed layers (traffic::FluidEngine::member_totals) and folds what
/// they gained since the last fold into the open report window. Loss arrives
/// pre-computed from the fluid loss fractions, so the sequence-gap machinery
/// stays idle. One running baseline, the summed totals of the subscribed
/// layers as of the last fold, is kept up to date on join, leave and window
/// close; every read adds what is pending beyond it, so the endpoint shows
/// the same integers a per-step push would have, and everything downstream —
/// reports, ReceiverAgent, ControllerAgent — is unchanged.
class ReceiverEndpoint {
 public:
  struct Config {
    net::NodeId node{net::kInvalidNode};
    net::SessionId session{0};
    traffic::LayerSpec layers{};
    net::NodeId controller{net::kInvalidNode};  ///< report destination; kInvalidNode disables reports
    sim::Time report_period{sim::Time::seconds(1)};
    int initial_subscription{1};
    sim::Time start{sim::Time::zero()};
    /// When set, the receiver leaves all groups and stops reporting at this
    /// time (models receiver churn; the controller sees the departure through
    /// the next topology snapshot).
    sim::Time stop{sim::Time::max()};
  };

  ReceiverEndpoint(sim::Simulation& simulation, net::Network& network,
                   mcast::MulticastRouter& mcast, PacketDemux& demux, Config config);

  /// Joins the initial layers and starts the report timer at config.start.
  void start();

  /// Makes the endpoint read its fluid deliveries from `engine` (fluid
  /// scenarios; call before start()). The engine must outlive the endpoint's
  /// last read.
  void attach_fluid(const traffic::FluidEngine* engine) { fluid_ = engine; }

  /// Moves the subscription to exactly `level` layers (clamped to
  /// [0, num_layers]), joining or leaving groups as needed.
  void set_subscription(int level);
  [[nodiscard]] int subscription() const { return subscription_; }

  /// False once config.stop has passed (the receiver has left the session).
  [[nodiscard]] bool active() const { return active_; }

  /// Stats of the current (in-progress) report window.
  struct WindowStats {
    units::PacketCount received_packets{};
    units::PacketCount lost_packets{};
    units::Bytes bytes{};
    [[nodiscard]] units::LossFraction loss_rate() const {
      return units::LossFraction::from_counts(lost_packets, received_packets + lost_packets);
    }
  };
  [[nodiscard]] WindowStats window() const;
  [[nodiscard]] const WindowStats& last_completed_window() const { return last_window_; }
  [[nodiscard]] units::Bytes total_bytes() const {
    return total_bytes_ + fluid_pending().bytes;
  }
  [[nodiscard]] units::PacketCount total_packets() const {
    return total_packets_ + fluid_pending().received;
  }
  [[nodiscard]] units::PacketCount total_lost_packets() const { return total_lost_packets_; }
  /// Lifetime loss fraction: loss of the closed windows over everything
  /// received plus that loss.
  [[nodiscard]] units::LossFraction lifetime_loss_rate() const {
    return units::LossFraction::from_counts(total_lost_packets_,
                                            total_packets() + total_lost_packets_);
  }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Invoked whenever the subscription level changes: (time, old, new).
  void on_subscription_change(std::function<void(sim::Time, int, int)> cb) {
    change_callbacks_.push_back(std::move(cb));
  }

  /// Invoked when a Suggestion addressed to this receiver+session arrives.
  void on_suggestion(std::function<void(const net::Suggestion&)> cb) {
    suggestion_callbacks_.push_back(std::move(cb));
  }

 private:
  struct LayerTrack;
  using FluidTotals = traffic::FluidEngine::MemberTotals;

  void handle_data(const net::Packet& packet);
  void handle_suggestion(const net::Packet& packet);
  void close_window();
  void send_report();
  /// Adds `track`'s sequence-gap loss for the current window to window_.
  void fold_track_loss(const LayerTrack& track);
  /// The fluid engine's totals for this node in `layer`'s group; zero
  /// without a fluid engine.
  [[nodiscard]] FluidTotals fluid_layer_totals(int layer) const;
  /// What the subscribed layers gained since the last fold: their summed
  /// totals minus fluid_seen_. Zero without a fluid engine.
  [[nodiscard]] FluidTotals fluid_pending() const;
  /// Credits fluid_pending() to the open window and the lifetime totals
  /// exactly as handle_data does per packet (lost feeds
  /// window_.lost_packets; close_window folds it into the lifetime total,
  /// same as sequence-gap loss), and advances fluid_seen_ past it.
  void fold_fluid();

  struct LayerTrack {
    bool active{false};
    bool have_prev_max{false};
    std::uint32_t prev_max_seq{0};  ///< highest seq at the end of last window
    bool have_window_max{false};
    std::uint32_t window_max_seq{0};
    std::uint64_t window_received{0};
  };

  sim::Simulation& simulation_;
  net::Network& network_;
  mcast::MulticastRouter& mcast_;
  Config config_;
  int subscription_{0};
  bool active_{false};
  /// Set once the stop-time handler closed the final window; later timer
  /// firings must not overwrite last_window_ or reschedule.
  bool stopped_{false};
  std::vector<LayerTrack> tracks_;
  WindowStats window_{};
  WindowStats last_window_{};
  sim::Time window_start_{};
  units::Bytes total_bytes_{};
  units::PacketCount total_packets_{};
  units::PacketCount total_lost_packets_{};
  std::uint32_t report_seq_{0};
  const traffic::FluidEngine* fluid_{nullptr};
  /// Summed fluid totals of the subscribed layers as of the last fold: join
  /// adds the joining layer's current totals and leave subtracts the leaving
  /// layer's. One sum rather than a baseline per layer keeps it at 24 bytes
  /// per endpoint.
  FluidTotals fluid_seen_{};
  std::vector<std::function<void(sim::Time, int, int)>> change_callbacks_;
  std::vector<std::function<void(const net::Suggestion&)>> suggestion_callbacks_;
};

}  // namespace tsim::transport
