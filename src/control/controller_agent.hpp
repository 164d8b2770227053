#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "control/accounting.hpp"
#include "control/adaptation_controller.hpp"
#include "core/toposense.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "topo/provider.hpp"
#include "transport/demux.hpp"

namespace tsim::control {

/// The paper's per-domain controller agent. An application-level entity at
/// one node that (1) receives RTCP-like receiver reports, (2) pulls session
/// tree snapshots from the topology discovery tool, (3) runs TopoSense once
/// per interval, and (4) unicasts subscription suggestions back to the
/// receivers. All of its traffic traverses the simulated network and competes
/// with data, so reports and suggestions can be lost, as in the paper's
/// simulations.
///
/// In a multi-domain deployment (control::DomainManager) each domain runs one
/// agent over its own receivers only. A child domain appears to its parent as
/// a single pseudo-receiver at the domain's border node, fed by periodic
/// DomainSummary exchanges instead of raw reports (register_border_receiver /
/// ingest_border_summary), and the parent's prescription for that border
/// comes back as a subscription cap the child clamps its own prescriptions
/// to (set_session_cap).
///
/// Per session it keeps one NodeId-indexed row of receiver state. A report is
/// dropped once its window ended by now - info_staleness - 3 * interval.
class ControllerAgent final : public AdaptationController {
 public:
  struct Config {
    net::NodeId node{net::kInvalidNode};
    core::Params params{};
    /// Loss/report staleness, fixed per run: intervals only read reports whose
    /// window ended at or before now - info_staleness (Fig 10 pairs this with
    /// the DiscoveryService's topology staleness).
    sim::Time info_staleness{sim::Time::zero()};
    /// First interval. Offset from the receivers' report period so a run
    /// always has fresh reports to read.
    sim::Time start{sim::Time::milliseconds(2500)};
  };

  ControllerAgent(sim::Simulation& simulation, net::Network& network,
                  topo::TopologyProvider& discovery, transport::PacketDemux& demux,
                  Config config);

  /// Receivers register on session join (§II); registration is a direct call
  /// because the paper treats it as out-of-band setup. A repeat registration
  /// of the same (session, receiver) is ignored. Reports for a session with
  /// no registered receiver are billed but not kept.
  void register_receiver(net::SessionId session, net::NodeId receiver);

  /// AdaptationController: registers by the endpoint's (session, node). The
  /// bare agent installs no per-receiver watchdog (TopoSenseDomain does).
  ReceiverAgent* register_receiver(transport::ReceiverEndpoint& endpoint) override;

  /// Starts the periodic algorithm runs at config.start.
  void start() override;

  /// The bare agent owns no per-receiver policy agents.
  void start_receiver_policies() override {}

  /// Fault hook: while disabled the controller neither consumes reports nor
  /// computes/sends suggestions (its interval timer keeps ticking so a
  /// restart needs no rescheduling).
  ///
  /// Restart semantics (pinned by tests/fault): disabling models the process
  /// dying, so the in-memory report history dies with it and must be
  /// re-learned after a restart (report_history_size() drops to zero, and the
  /// first post-restart intervals run on whatever fresh reports have arrived
  /// since). The accounting ledger() and the reports_received /
  /// suggestions_sent / intervals_run counters are durable billing and audit
  /// records — deliberately *retained* across outages, as a billing system
  /// that forgot charges on every crash would be useless. Session caps and
  /// border registrations (multi-domain state) are configuration, not learned
  /// state, and also survive.
  void set_enabled(bool enabled) override;
  [[nodiscard]] bool enabled() const override { return enabled_; }
  [[nodiscard]] std::uint64_t outages() const { return outages_; }
  [[nodiscard]] ControllerStats stats() const override;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const core::TopoSense& algorithm() const { return algorithm_; }
  [[nodiscard]] const core::AlgorithmOutput& last_output() const { return last_output_; }
  [[nodiscard]] std::uint64_t reports_received() const { return reports_received_; }
  [[nodiscard]] std::uint64_t suggestions_sent() const { return suggestions_sent_; }
  [[nodiscard]] std::uint64_t intervals_run() const { return epoch_; }

  /// Reports currently held in the learning history (all receivers). Zero
  /// right after an outage began — see set_enabled.
  [[nodiscard]] std::size_t report_history_size() const;

  /// Usage accounting built from the received reports (§II billing).
  [[nodiscard]] const AccountingLedger& ledger() const { return ledger_; }

  /// --- Inter-domain summary support (driven by DomainManager) -------------

  /// Declares `border` a pseudo-receiver of `session`: it participates in the
  /// algorithm like a registered receiver, but its "reports" are synthesized
  /// from child-domain summaries and its prescriptions go to the border hook
  /// instead of onto the wire as suggestions.
  void register_border_receiver(net::SessionId session, net::NodeId border);
  [[nodiscard]] bool is_border(net::SessionId session, net::NodeId node) const;

  /// Aggregates this domain's knowledge of `session` into a child->parent
  /// summary (see net::DomainSummary for the semantics of each field).
  /// `window_end` bounds which reports are folded in, exactly like an
  /// algorithm interval would.
  [[nodiscard]] net::DomainSummary build_session_summary(net::SessionId session,
                                                         sim::Time window_end) const;

  /// Folds a child-domain demand summary into the report history as a
  /// synthetic report from the border pseudo-receiver. Does not touch the
  /// billing ledger or reports_received (those count real wire reports; the
  /// child domain already bills its own receivers).
  void ingest_border_summary(const net::DomainSummary& summary);

  /// Upstream ceiling for `session` from the parent domain's prescription for
  /// our border; every outgoing prescription of the session is clamped to it.
  /// cap <= 0 removes the cap.
  void set_session_cap(net::SessionId session, int cap);
  [[nodiscard]] int session_cap(net::SessionId session) const;  ///< 0 = uncapped

  /// Receives every prescription addressed to a border pseudo-receiver (in
  /// place of a wire suggestion). DomainManager turns these into downstream
  /// cap summaries.
  using BorderHook = std::function<void(const core::Prescription&)>;
  void set_border_hook(BorderHook hook) { border_hook_ = std::move(hook); }

  /// Registered receivers by session, in registration order. DomainManager
  /// reads this to know which sessions the domain participates in.
  [[nodiscard]] const std::map<net::SessionId, std::vector<net::NodeId>>& registered() const {
    return registered_;
  }

  /// Invoked after every enabled interval that ran the algorithm, with the
  /// exact input and output of that pass. The invariant auditor hangs its
  /// controller-postcondition checks here; the hook must not mutate agent
  /// state.
  using AuditHook = std::function<void(const core::AlgorithmInput&, const core::AlgorithmOutput&)>;
  void set_audit_hook(AuditHook hook) { audit_hook_ = std::move(hook); }

 private:
  void handle_report(const net::Packet& packet);
  void run_interval();
  void send_suggestion(const core::Prescription& prescription);
  /// The prescription's subscription after the session cap (if any).
  [[nodiscard]] int capped_subscription(const core::Prescription& prescription) const;

  /// One node's state in one session; only its reports die in an outage.
  struct Receiver {
    bool registered{false};
    bool border{false};
    std::uint32_t in_snapshot{0};  ///< epoch_ of the last snapshot listing it
    std::vector<net::ReceiverReport> reports;  ///< newest at the back
  };
  /// Prunes the reports no interval can read, then appends `report`.
  void remember(const net::ReceiverReport& report);

  /// Aggregate of the reports of one receiver that fall inside the algorithm
  /// window (respecting staleness).
  struct ReportAggregate {
    bool valid{false};
    units::LossFraction loss_rate{};
    units::Bytes bytes{};
    units::PacketCount received{};
    units::PacketCount lost{};
    int subscription{1};
  };
  [[nodiscard]] ReportAggregate aggregate_reports(const Receiver& receiver,
                                                  sim::Time window_end) const;

  sim::Simulation& simulation_;
  net::Network& network_;
  topo::TopologyProvider& discovery_;
  Config config_;
  core::TopoSense algorithm_;
  /// Registered receivers in registration order, read by registered().
  std::map<net::SessionId, std::vector<net::NodeId>> registered_;
  /// Per session, a row sized to the node count at its first registration.
  /// Ordered: run_interval iterates it, and the session order must not
  /// depend on hash-table layout (determinism lint).
  std::map<net::SessionId, std::vector<Receiver>> receivers_;
  core::AlgorithmOutput last_output_;
  /// run_interval scratch, kept for its capacity: the algorithm input, and
  /// every (node, parent) mention of one session's snapshot, in mention order.
  core::AlgorithmInput input_;
  struct TreeNode {
    net::NodeId node;
    std::uint32_t order;
    net::NodeId parent;
  };
  std::vector<TreeNode> tree_nodes_;
  AccountingLedger ledger_;
  std::uint64_t reports_received_{0};
  std::uint64_t suggestions_sent_{0};
  std::uint32_t epoch_{0};
  bool enabled_{true};
  std::uint64_t outages_{0};
  AuditHook audit_hook_;

  /// --- multi-domain state (empty and inert in single-domain runs) ---------
  std::map<net::SessionId, int> session_caps_;
  BorderHook border_hook_;
};

}  // namespace tsim::control
