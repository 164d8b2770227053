#include "control/controller_agent.hpp"

#include <algorithm>
#include <utility>
#include <variant>

namespace tsim::control {

ControllerAgent::ControllerAgent(sim::Simulation& simulation, net::Network& network,
                                 topo::TopologyProvider& discovery,
                                 transport::PacketDemux& demux, Config config)
    : simulation_{simulation},
      network_{network},
      discovery_{discovery},
      config_{config},
      algorithm_{config.params, simulation.rng_stream("controller")} {
  demux.add_handler(net::PacketKind::kReport,
                    [this](const net::PacketRef& p) { handle_report(*p); });
}

void ControllerAgent::register_receiver(net::SessionId session, net::NodeId receiver) {
  const auto [it, first] = registered_.try_emplace(session);
  if (first) {
    discovery_.track_session(session,
                             static_cast<net::LayerId>(config_.params.layers.num_layers));
  }
  std::vector<Receiver>& row = receivers_[session];
  if (row.size() <= receiver) {
    row.resize(std::max<std::size_t>(receiver + 1, network_.node_count()));
  }
  if (std::exchange(row[receiver].registered, true)) return;
  it->second.push_back(receiver);
}

ReceiverAgent* ControllerAgent::register_receiver(transport::ReceiverEndpoint& endpoint) {
  register_receiver(endpoint.config().session, endpoint.config().node);
  return nullptr;
}

void ControllerAgent::start() {
  simulation_.at(config_.start, [this]() { run_interval(); });
}

void ControllerAgent::set_enabled(bool enabled) {
  if (enabled == enabled_) return;
  enabled_ = enabled;
  if (!enabled_) {
    ++outages_;
    // The process died: its in-memory report history dies with it. The
    // ledger, wire counters and registrations survive by design (see the
    // header contract): they are the durable record, not learned state.
    for (auto& [session, row] : receivers_) {
      for (Receiver& receiver : row) receiver.reports.clear();
    }
  }
}

ControllerStats ControllerAgent::stats() const {
  ControllerStats s;
  s.reports_received = reports_received_;
  s.suggestions_sent = suggestions_sent_;
  s.intervals_run = epoch_;
  s.outages = outages_;
  return s;
}

std::size_t ControllerAgent::report_history_size() const {
  std::size_t n = 0;
  for (const auto& [session, row] : receivers_) {
    for (const Receiver& receiver : row) n += receiver.reports.size();
  }
  return n;
}

void ControllerAgent::register_border_receiver(net::SessionId session, net::NodeId border) {
  register_receiver(session, border);
  receivers_[session][border].border = true;
}

bool ControllerAgent::is_border(net::SessionId session, net::NodeId node) const {
  const auto it = receivers_.find(session);
  return it != receivers_.end() && node < it->second.size() && it->second[node].border;
}

net::DomainSummary ControllerAgent::build_session_summary(net::SessionId session,
                                                          sim::Time window_end) const {
  net::DomainSummary summary{.direction = net::DomainSummary::Direction::kDemand,
                             .session = session,
                             .window_start = window_end - config_.params.interval,
                             .window_end = window_end};

  const auto it = registered_.find(session);
  if (it == registered_.end()) return summary;
  const std::vector<Receiver>& row = receivers_.at(session);
  bool have_shared = false;
  for (const net::NodeId receiver : it->second) {
    // Borders of *our* children already stand in for whole subtrees; folding
    // them into our own upstream summary would double-count and hide which
    // loss is locally fixable, so only direct receivers aggregate.
    if (row[receiver].border) continue;
    const ReportAggregate agg = aggregate_reports(row[receiver], window_end);
    if (!agg.valid) continue;
    ++summary.receiver_count;
    summary.subscription = std::max(summary.subscription, agg.subscription);
    if (agg.bytes > summary.bytes_received) summary.bytes_received = agg.bytes;
    // Minimum loss across receivers: the component every receiver shares,
    // i.e. the part this domain cannot fix below its border.
    if (!have_shared || agg.loss_rate.value() < summary.shared_loss.value()) {
      have_shared = true;
      summary.shared_loss = agg.loss_rate;
      summary.received_packets = agg.received;
      summary.lost_packets = agg.lost;
    }
  }
  return summary;
}

void ControllerAgent::ingest_border_summary(const net::DomainSummary& summary) {
  if (!enabled_) return;  // a dead controller reads nothing off the wire
  remember(net::ReceiverReport{
      .receiver = summary.border, .session = summary.session,
      .subscription = summary.subscription, .loss_rate = summary.shared_loss,
      .bytes_received = summary.bytes_received, .received_packets = summary.received_packets,
      .lost_packets = summary.lost_packets, .window_start = summary.window_start,
      .window_end = summary.window_end, .report_seq = summary.summary_seq});
}

void ControllerAgent::set_session_cap(net::SessionId session, int cap) {
  if (cap <= 0) {
    session_caps_.erase(session);
  } else {
    session_caps_[session] = cap;
  }
}

int ControllerAgent::session_cap(net::SessionId session) const {
  const auto it = session_caps_.find(session);
  return it == session_caps_.end() ? 0 : it->second;
}

int ControllerAgent::capped_subscription(const core::Prescription& prescription) const {
  const int cap = session_cap(prescription.session);
  return cap > 0 ? std::min(prescription.subscription, cap) : prescription.subscription;
}

void ControllerAgent::handle_report(const net::Packet& packet) {
  if (!enabled_) return;  // a dead controller reads nothing off the wire
  const auto* report = std::get_if<net::ReceiverReport>(&packet.control);
  if (report == nullptr) return;
  ++reports_received_;
  ledger_.on_report(*report);
  remember(*report);
}

void ControllerAgent::remember(const net::ReceiverReport& report) {
  const auto it = receivers_.find(report.session);
  if (it == receivers_.end() || report.receiver >= it->second.size()) return;
  // Exact: every aggregate_reports scan ends at window_end - 3 * interval with
  // window_end >= now - info_staleness, and time only moves forward.
  const sim::Time horizon =
      simulation_.now() - config_.info_staleness - config_.params.interval * 3;
  const auto stale = [&](const net::ReceiverReport& r) { return r.window_end <= horizon; };
  std::vector<net::ReceiverReport>& reports = it->second[report.receiver].reports;
  reports.erase(reports.begin(), std::ranges::find_if_not(reports, stale));
  reports.push_back(report);
}

ControllerAgent::ReportAggregate ControllerAgent::aggregate_reports(
    const Receiver& receiver, sim::Time window_end) const {
  ReportAggregate agg;

  // Fold in the newest reports that ended by `window_end` (staleness already
  // folded in by the caller) until they cover one algorithm interval.
  // Receivers may report more often than the algorithm runs (several small
  // windows per interval) or a report may have been lost to congestion (the
  // previous one stands in) — reports ride the data path and arrive a few
  // hundred ms late, so exact alignment can never be assumed.
  const sim::Time oldest_usable = window_end - config_.params.interval * 3;
  units::Bytes bytes{};
  units::PacketCount received{};
  units::PacketCount lost{};
  sim::Time span_end{};
  sim::Time span_start{};
  for (auto rit = receiver.reports.rbegin(); rit != receiver.reports.rend(); ++rit) {
    const net::ReceiverReport& r = *rit;
    if (r.window_end > window_end) continue;
    if (r.window_end <= oldest_usable) break;
    if (!agg.valid) {
      agg.valid = true;
      agg.subscription = r.subscription;  // newest report wins
      span_end = r.window_end;
    }
    bytes += r.bytes_received;
    received += r.received_packets;
    lost += r.lost_packets;
    span_start = r.window_start;
    if (span_end - span_start >= config_.params.interval) break;
  }
  if (agg.valid) {
    // Normalize the covered span to one interval so the algorithm's
    // bandwidth arithmetic (bytes * 8 / interval) stays correct when the
    // reporting cadence differs from the algorithm cadence.
    const double span_s = std::max((span_end - span_start).as_seconds(), 1e-9);
    const double scale = config_.params.interval.as_seconds() / span_s;
    agg.bytes = units::Bytes{
        static_cast<std::uint64_t>(static_cast<double>(bytes.count()) * scale)};
    agg.loss_rate = units::LossFraction::from_counts(lost, received + lost);
    agg.received = received;
    agg.lost = lost;
  }
  return agg;
}

void ControllerAgent::run_interval() {
  if (!enabled_) {
    // Keep the interval clock ticking through the outage so the epoch
    // counter stays monotonic and the restart resumes on the same cadence.
    ++epoch_;
    simulation_.after(config_.params.interval, [this]() { run_interval(); });
    return;
  }
  ++epoch_;
  const sim::Time now = simulation_.now();
  const sim::Time report_cutoff = now - config_.info_staleness;

  // The input's buffers are kept across intervals: each session's node
  // vector is cleared and refilled, so a steady tree allocates nothing.
  core::AlgorithmInput& input = input_;
  input.window = config_.params.interval;
  std::size_t used = 0;

  for (auto& [session, row] : receivers_) {
    const topo::TopologySnapshot* snap = discovery_.snapshot(session);
    if (snap == nullptr || snap->source == net::kInvalidNode) continue;

    if (used == input.sessions.size()) input.sessions.emplace_back();
    core::SessionInput& session_input = input.sessions[used];
    session_input.session = session;
    session_input.source = snap->source;
    session_input.nodes.clear();

    // Collect tree nodes from the snapshot's edges (plus the source): the
    // source unrooted, each edge's child under its parent, then each edge's
    // parent unrooted (edges may mention parents the snapshot didn't root —
    // stale artifacts; TreeIndex drops anything unreachable from the source).
    // A node's first mention wins, and nodes go out in NodeId order, so the
    // algorithm input never depends on hash-table layout (determinism lint).
    tree_nodes_.clear();
    const auto mention = [this](net::NodeId node, net::NodeId parent) {
      tree_nodes_.push_back(
          {node, static_cast<std::uint32_t>(tree_nodes_.size()), parent});
    };
    mention(snap->source, net::kInvalidNode);
    for (const auto& [parent, child] : snap->edges) mention(child, parent);
    for (const auto& [parent, child] : snap->edges) mention(parent, net::kInvalidNode);
    std::sort(tree_nodes_.begin(), tree_nodes_.end(),
              [](const TreeNode& a, const TreeNode& b) {
                return a.node != b.node ? a.node < b.node : a.order < b.order;
              });

    for (const net::NodeId receiver : snap->receivers) {
      if (receiver < row.size()) row[receiver].in_snapshot = epoch_;
    }

    for (std::size_t k = 0; k < tree_nodes_.size(); ++k) {
      const net::NodeId node = tree_nodes_[k].node;
      if (k > 0 && tree_nodes_[k - 1].node == node) continue;  // a later mention
      core::SessionNodeInput n;
      n.node = node;
      n.parent = tree_nodes_[k].parent;
      // Border pseudo-receivers are routers, never group members, so they are
      // admitted by registration alone; real receivers need both.
      if (node < row.size() && row[node].registered &&
          (row[node].in_snapshot == epoch_ || row[node].border)) {
        const ReportAggregate agg = aggregate_reports(row[node], report_cutoff);
        n.is_receiver = true;
        n.loss_rate = agg.loss_rate;
        n.bytes_received = agg.bytes;
        n.subscription = std::max(agg.subscription, 1);
      }
      session_input.nodes.push_back(n);
    }
    if (session_input.nodes.size() > 1) ++used;
  }
  // Sessions only shrink when one loses its snapshot or its tree.
  input.sessions.resize(used);

  if (!input.sessions.empty()) {
    last_output_ = algorithm_.run_interval(input, now);
    if (audit_hook_) audit_hook_(input, last_output_);
    for (const core::Prescription& p : last_output_.prescriptions) {
      if (border_hook_ && is_border(p.session, p.receiver)) {
        // A border's prescription is the cap we grant the child domain; it
        // goes to the DomainManager hook instead of onto the wire.
        core::Prescription capped = p;
        capped.subscription = capped_subscription(p);
        border_hook_(capped);
      } else {
        send_suggestion(p);
      }
    }
  }

  simulation_.after(config_.params.interval, [this]() { run_interval(); });
}

void ControllerAgent::send_suggestion(const core::Prescription& prescription) {
  net::Packet packet;
  packet.kind = net::PacketKind::kSuggestion;
  packet.size_bytes = net::kSuggestionPacketBytes;
  packet.src = config_.node;
  packet.dst = prescription.receiver;
  packet.control = net::Suggestion{.receiver = prescription.receiver,
                                   .session = prescription.session,
                                   .subscription = capped_subscription(prescription),
                                   .epoch = epoch_};
  network_.send_unicast(packet);
  ++suggestions_sent_;
}

}  // namespace tsim::control
