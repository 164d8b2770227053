#include "transport/receiver_endpoint.hpp"

#include <algorithm>
#include <variant>

namespace tsim::transport {

namespace {
/// Credits fluid volume to a window's counters.
void add_fluid(ReceiverEndpoint::WindowStats& window,
               const traffic::FluidEngine::MemberTotals& fluid) {
  window.received_packets += fluid.received;
  window.lost_packets += fluid.lost;
  window.bytes += fluid.bytes;
}
}  // namespace

ReceiverEndpoint::ReceiverEndpoint(sim::Simulation& simulation, net::Network& network,
                                   mcast::MulticastRouter& mcast, PacketDemux& demux,
                                   Config config)
    : simulation_{simulation},
      network_{network},
      mcast_{mcast},
      config_{config},
      tracks_(static_cast<std::size_t>(config.layers.num_layers)) {
  demux.add_handler(net::PacketKind::kData,
                    [this](const net::PacketRef& p) { handle_data(*p); });
  demux.add_handler(net::PacketKind::kSuggestion,
                    [this](const net::PacketRef& p) { handle_suggestion(*p); });
}

void ReceiverEndpoint::start() {
  simulation_.at(config_.start, [this]() {
    active_ = true;
    window_start_ = simulation_.now();
    set_subscription(config_.initial_subscription);
    simulation_.after(config_.report_period, [this]() { close_window(); });
  });
  if (config_.stop != sim::Time::max()) {
    simulation_.at(config_.stop, [this]() {
      // Close the final (partial) window — folding its sequence-gap loss and
      // mailing the last report — while the layer tracks still exist. Leaving
      // the groups first wipes the tracks, so the loss accrued since the last
      // window close would be silently discarded.
      close_window();
      stopped_ = true;
      active_ = false;
      set_subscription(0);  // leave every group
    });
  }
}

void ReceiverEndpoint::set_subscription(int level) {
  level = std::clamp(level, 0, config_.layers.num_layers);
  if (level == subscription_) return;
  const int old = subscription_;

  if (level > subscription_) {
    for (int l = subscription_ + 1; l <= level; ++l) {
      mcast_.join(config_.node, net::GroupAddr{config_.session, static_cast<net::LayerId>(l)});
      tracks_[l - 1].active = true;
      // Fluid volume the layer's group delivered here before this join is
      // not ours: start the layer at its current totals.
      fluid_seen_ += fluid_layer_totals(l);
      // Sequence tracking restarts: packets sent while unsubscribed must not
      // count as loss.
      tracks_[l - 1].have_prev_max = false;
      tracks_[l - 1].have_window_max = false;
      tracks_[l - 1].window_received = 0;
    }
  } else {
    for (int l = subscription_; l > level; --l) {
      mcast_.leave(config_.node, net::GroupAddr{config_.session, static_cast<net::LayerId>(l)});
      // Fold the departing layer's sequence-gap loss into the current window
      // before wiping the track. A receiver backs off *because* of loss, so
      // discarding the dropped layer's gap here under-reports exactly when
      // the controller most needs the signal.
      fold_track_loss(tracks_[l - 1]);
      // Dropping the layer from both the baseline and the summed totals
      // keeps what it had pending; what it gains from now on is never read.
      fluid_seen_ -= fluid_layer_totals(l);
      tracks_[l - 1] = LayerTrack{};
    }
  }
  subscription_ = level;
  for (const auto& cb : change_callbacks_) cb(simulation_.now(), old, level);
}

void ReceiverEndpoint::handle_data(const net::Packet& packet) {
  if (!packet.multicast || packet.group.session != config_.session) return;
  const int layer = packet.group.layer;
  if (layer < 1 || layer > config_.layers.num_layers) return;
  LayerTrack& track = tracks_[layer - 1];
  if (!track.active) return;  // stale delivery after a leave

  ++track.window_received;
  if (!track.have_window_max || packet.seq > track.window_max_seq) {
    track.window_max_seq = packet.seq;
    track.have_window_max = true;
  }
  ++window_.received_packets;
  window_.bytes += units::Bytes{packet.size_bytes};
  ++total_packets_;
  total_bytes_ += units::Bytes{packet.size_bytes};
}

ReceiverEndpoint::WindowStats ReceiverEndpoint::window() const {
  WindowStats window = window_;
  add_fluid(window, fluid_pending());
  return window;
}

ReceiverEndpoint::FluidTotals ReceiverEndpoint::fluid_layer_totals(int layer) const {
  if (fluid_ == nullptr) return {};
  const std::uint32_t gid =
      network_.find_group_id(net::GroupAddr{config_.session, static_cast<net::LayerId>(layer)});
  return fluid_->member_totals(gid, config_.node);
}

ReceiverEndpoint::FluidTotals ReceiverEndpoint::fluid_pending() const {
  if (fluid_ == nullptr) return {};
  // Only subscribed layers are read, so whatever the engine still delivers
  // to this node after a leave is never counted.
  FluidTotals now{};
  for (int l = 1; l <= config_.layers.num_layers; ++l) {
    if (tracks_[l - 1].active) now += fluid_layer_totals(l);
  }
  now -= fluid_seen_;
  return now;
}

void ReceiverEndpoint::fold_fluid() {
  const FluidTotals pending = fluid_pending();
  add_fluid(window_, pending);
  total_packets_ += pending.received;
  total_bytes_ += pending.bytes;
  fluid_seen_ += pending;
}

void ReceiverEndpoint::handle_suggestion(const net::Packet& packet) {
  if (!active_) return;  // a stale suggestion must not resubscribe a leaver
  const auto* suggestion = std::get_if<net::Suggestion>(&packet.control);
  if (suggestion == nullptr) return;
  if (suggestion->receiver != config_.node || suggestion->session != config_.session) return;
  for (const auto& cb : suggestion_callbacks_) cb(*suggestion);
}

void ReceiverEndpoint::fold_track_loss(const LayerTrack& track) {
  if (!track.active) return;
  if (track.have_prev_max && track.have_window_max &&
      track.window_max_seq > track.prev_max_seq) {
    const std::uint64_t expected = track.window_max_seq - track.prev_max_seq;
    if (expected > track.window_received) {
      window_.lost_packets += units::PacketCount{expected - track.window_received};
    }
  }
}

void ReceiverEndpoint::close_window() {
  if (stopped_) return;  // the final window was closed at config_.stop
  fold_fluid();
  // Derive per-layer expected counts from seq-number progress (RTP
  // receiver-report style) and fold into window loss.
  for (LayerTrack& track : tracks_) {
    if (!track.active) continue;
    fold_track_loss(track);
    if (track.have_window_max) {
      track.prev_max_seq = track.window_max_seq;
      track.have_prev_max = true;
    }
    track.have_window_max = false;
    track.window_received = 0;
  }
  total_lost_packets_ += window_.lost_packets;

  if (active_ && config_.controller != net::kInvalidNode) send_report();

  last_window_ = window_;
  window_ = WindowStats{};
  window_start_ = simulation_.now();
  if (active_ || simulation_.now() < config_.stop) {
    simulation_.after(config_.report_period, [this]() { close_window(); });
  }
}

void ReceiverEndpoint::send_report() {
  net::Packet packet;
  packet.kind = net::PacketKind::kReport;
  packet.size_bytes = net::kReportPacketBytes;
  packet.src = config_.node;
  packet.dst = config_.controller;
  packet.control = net::ReceiverReport{.receiver = config_.node,
                                       .session = config_.session,
                                       .subscription = subscription_,
                                       .loss_rate = window_.loss_rate(),
                                       .bytes_received = window_.bytes,
                                       .received_packets = window_.received_packets,
                                       .lost_packets = window_.lost_packets,
                                       .window_start = window_start_,
                                       .window_end = simulation_.now(),
                                       .report_seq = report_seq_++};
  network_.send_unicast(packet);
}

}  // namespace tsim::transport
