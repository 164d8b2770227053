#include "control/controller_agent.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "control/receiver_agent.hpp"
#include "mcast/multicast_router.hpp"
#include "topo/discovery.hpp"
#include "topo/provider.hpp"
#include "sim/simulation.hpp"
#include "traffic/layered_source.hpp"
#include "transport/receiver_endpoint.hpp"

namespace tsim::control {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

/// Minimal end-to-end control loop: src --10 Mbps-- r --bottleneck-- rcv,
/// with the controller at src.
struct ControlFixture : ::testing::Test {
  sim::Simulation simulation{21};
  net::Network network{simulation};
  net::NodeId src{network.add_node("src")};
  net::NodeId r{network.add_node("r")};
  net::NodeId rcv{network.add_node("rcv")};
  mcast::MulticastRouter mcast{simulation, network, {1_s}};
  transport::DemuxRegistry demuxes{network};
  std::unique_ptr<topo::DiscoveryService> discovery;
  std::unique_ptr<ControllerAgent> controller;
  std::unique_ptr<traffic::LayeredSource> source;
  std::unique_ptr<transport::ReceiverEndpoint> endpoint;
  std::unique_ptr<ReceiverAgent> agent;

  void build(double bottleneck_bps, Time staleness = Time::zero(),
             Time report_period = 2_s) {
    network.add_duplex_link(src, r, tsim::units::BitsPerSec{10e6}, 200_ms, 30);
    network.add_duplex_link(r, rcv, tsim::units::BitsPerSec{bottleneck_bps}, 200_ms, 30);
    network.compute_routes();
    mcast.set_session_source(0, src);

    discovery = std::make_unique<topo::DiscoveryService>(
        simulation, mcast, topo::DiscoveryService::Config{1_s, staleness});

    ControllerAgent::Config ccfg;
    ccfg.node = src;
    ccfg.info_staleness = staleness;
    ccfg.params.interval = 2_s;
    controller = std::make_unique<ControllerAgent>(simulation, network, *discovery,
                                                   demuxes.at(src), ccfg);
    controller->register_receiver(0, rcv);

    traffic::LayeredSource::Config scfg;
    scfg.session = 0;
    scfg.node = src;
    scfg.model = traffic::TrafficModel::kCbr;
    source = std::make_unique<traffic::LayeredSource>(simulation, network, scfg);

    transport::ReceiverEndpoint::Config ecfg;
    ecfg.node = rcv;
    ecfg.session = 0;
    ecfg.controller = src;
    ecfg.report_period = report_period;
    endpoint = std::make_unique<transport::ReceiverEndpoint>(simulation, network, mcast,
                                                             demuxes.at(rcv), ecfg);
    agent = std::make_unique<ReceiverAgent>(simulation, *endpoint, 2_s);

    discovery->start();
    controller->start();
    source->start();
    endpoint->start();
    agent->start();
  }
};

TEST_F(ControlFixture, ReportsFlowToController) {
  build(10e6);
  simulation.run_until(20_s);
  EXPECT_GT(controller->reports_received(), 5u);

  // A kReport packet without a ReceiverReport payload is not counted.
  const std::uint64_t received = controller->reports_received();
  net::Packet p;
  p.kind = net::PacketKind::kReport;
  p.src = rcv;
  p.dst = src;
  demuxes.at(src).dispatch(net::PacketRef::make(net::Packet{p}));
  p.control = net::Suggestion{.receiver = rcv, .session = 0, .subscription = 1};
  demuxes.at(src).dispatch(net::PacketRef::make(std::move(p)));
  EXPECT_EQ(controller->reports_received(), received);
}

TEST_F(ControlFixture, SuggestionsDriveSubscriptionUp) {
  build(10e6);  // no bottleneck: should reach all 6 layers
  simulation.run_until(60_s);
  EXPECT_EQ(endpoint->subscription(), 6);
  EXPECT_GT(controller->suggestions_sent(), 0u);
  EXPECT_GT(agent->suggestions_applied(), 0u);
}

TEST_F(ControlFixture, ConvergesNearBottleneckOptimal) {
  build(256e3);  // optimal 3 layers
  simulation.run_until(300_s);
  EXPECT_GE(endpoint->subscription(), 2);
  EXPECT_LE(endpoint->subscription(), 4);
  // Loss must be controlled after convergence: check recent window.
  EXPECT_LT(endpoint->last_completed_window().loss_rate().value(), 0.3);
}

TEST_F(ControlFixture, IntervalsKeepRunning) {
  build(10e6);
  simulation.run_until(50_s);
  // Controller starts at 2.5 s with a 2 s interval: ~24 runs by 50 s.
  EXPECT_GE(controller->intervals_run(), 20u);
  EXPECT_LE(controller->intervals_run(), 25u);
}

TEST_F(ControlFixture, LastOutputHasDiagnostics) {
  build(10e6);
  simulation.run_until(20_s);
  ASSERT_FALSE(controller->last_output().diagnostics.empty());
  EXPECT_FALSE(controller->last_output().prescriptions.empty());
}

TEST_F(ControlFixture, StaleInfoStillConverges) {
  build(10e6, 4_s);
  simulation.run_until(120_s);
  EXPECT_GE(endpoint->subscription(), 5);
}

TEST_F(ControlFixture, SubIntervalReportingStillConverges) {
  // Receivers reporting twice per algorithm interval: the controller folds
  // multiple small windows into one interval-equivalent aggregate.
  build(10e6, Time::zero(), 1_s);
  simulation.run_until(60_s);
  EXPECT_EQ(endpoint->subscription(), 6);
  // Twice the report traffic reached the controller.
  EXPECT_GT(controller->reports_received(), 45u);
}

TEST_F(ControlFixture, SlowReportingStillConverges) {
  // Reports every 4 s against a 2 s interval: the controller reuses the
  // last report for the in-between runs instead of treating the receiver
  // as silent.
  build(10e6, Time::zero(), 4_s);
  simulation.run_until(90_s);
  EXPECT_EQ(endpoint->subscription(), 6);
}

TEST_F(ControlFixture, StalenessBeyondOldHistoryCapsStillSuggests) {
  // Topology and reports 150 s out of date: more than a 128-snapshot or a
  // 64-report (one per 2 s) count cap would keep. The histories live as long
  // as staleness needs, so the controller keeps prescribing.
  build(10e6, 150_s);
  simulation.run_until(300_s);
  const std::uint64_t before = controller->suggestions_sent();
  simulation.run_until(600_s);
  EXPECT_GT(controller->suggestions_sent(), before);
  // ceil((150 s + 3 * 2 s) / 2 s) + 1 reports per receiver at most.
  EXPECT_LE(controller->report_history_size(), 79u);
}

/// Discovery stand-in serving a hand-built snapshot, so a test decides
/// exactly which nodes the tree and the receiver set contain.
class FixedSnapshotProvider final : public topo::TopologyProvider {
 public:
  void track_session(net::SessionId /*session*/, net::LayerId /*max_layer*/) override {
    ++track_calls;
  }
  void start() override {}
  [[nodiscard]] const topo::TopologySnapshot* snapshot(net::SessionId session) const override {
    return session == snap.session ? &snap : nullptr;
  }

  topo::TopologySnapshot snap;
  int track_calls{0};
};

/// A bare ControllerAgent over a star src -> {a, b, c} whose snapshot tree
/// holds all three leaves; the audit hook captures the first interval's
/// algorithm input.
struct MembershipFixture : ::testing::Test {
  sim::Simulation simulation{3};
  net::Network network{simulation};
  net::NodeId src{network.add_node("src")};
  net::NodeId a{network.add_node("a")};
  net::NodeId b{network.add_node("b")};
  net::NodeId c{network.add_node("c")};
  transport::DemuxRegistry demuxes{network};
  FixedSnapshotProvider discovery;
  std::unique_ptr<ControllerAgent> controller;
  std::optional<core::AlgorithmInput> first_input;

  void SetUp() override {
    for (const net::NodeId leaf : {a, b, c}) {
      network.add_duplex_link(src, leaf, tsim::units::BitsPerSec{10e6}, 10_ms, 30);
      discovery.snap.edges.emplace_back(src, leaf);
    }
    network.compute_routes();
    discovery.snap.session = 0;
    discovery.snap.source = src;

    ControllerAgent::Config cfg;
    cfg.node = src;
    cfg.start = 1_s;
    controller = std::make_unique<ControllerAgent>(simulation, network, discovery,
                                                   demuxes.at(src), cfg);
    controller->set_audit_hook(
        [this](const core::AlgorithmInput& input, const core::AlgorithmOutput&) {
          if (!first_input) first_input = input;
        });
  }

  /// Runs the first interval and returns whether `node` entered the
  /// algorithm as a receiver.
  bool admitted(net::NodeId node) {
    if (!first_input) {
      controller->start();
      simulation.run_until(1500_ms);
    }
    if (!first_input || first_input->sessions.size() != 1) {
      ADD_FAILURE() << "no algorithm input for session 0";
      return false;
    }
    for (const core::SessionNodeInput& n : first_input->sessions.front().nodes) {
      if (n.node == node) return n.is_receiver;
    }
    ADD_FAILURE() << "node " << node << " missing from the algorithm input";
    return false;
  }
};

TEST_F(MembershipFixture, DuplicateRegistrationIsIgnoredAndOrderKept) {
  controller->register_receiver(0, c);
  controller->register_receiver(0, a);
  controller->register_receiver(0, c);
  controller->register_receiver(0, b);
  controller->register_receiver(0, a);
  const auto& registered = controller->registered();
  ASSERT_EQ(registered.size(), 1u);
  EXPECT_EQ(registered.at(0), (std::vector<net::NodeId>{c, a, b}));
}

TEST_F(MembershipFixture, DiscoveryTracksEachSessionOnce) {
  controller->register_receiver(0, a);
  controller->register_receiver(0, b);
  controller->register_receiver(0, a);
  EXPECT_EQ(discovery.track_calls, 1);
  controller->register_receiver(1, a);
  EXPECT_EQ(discovery.track_calls, 2);
}

TEST_F(MembershipFixture, SnapshotReceiverThatNeverRegisteredIsNotAdmitted) {
  discovery.snap.receivers = {a, b};
  controller->register_receiver(0, a);
  EXPECT_TRUE(admitted(a));
  EXPECT_FALSE(admitted(b));
}

TEST_F(MembershipFixture, RegisteredNodeMissingFromSnapshotIsNotAdmitted) {
  discovery.snap.receivers = {a};
  controller->register_receiver(0, a);
  controller->register_receiver(0, c);
  EXPECT_TRUE(admitted(a));
  EXPECT_FALSE(admitted(c));
}

TEST(ReceiverAgentTest, UnilateralDropOnSuggestionSilence) {
  // No controller at all: the agent must eventually shed layers when the
  // subscription overloads the bottleneck.
  sim::Simulation simulation{5};
  net::Network network{simulation};
  const net::NodeId src = network.add_node("src");
  const net::NodeId rcv = network.add_node("rcv");
  network.add_duplex_link(src, rcv, tsim::units::BitsPerSec{128e3}, 200_ms, 10);  // ~1.5 layers
  network.compute_routes();
  mcast::MulticastRouter mcast{simulation, network, {}};
  mcast.set_session_source(0, src);
  transport::DemuxRegistry demuxes{network};

  traffic::LayeredSource::Config scfg;
  scfg.session = 0;
  scfg.node = src;
  traffic::LayeredSource source{simulation, network, scfg};

  transport::ReceiverEndpoint::Config ecfg;
  ecfg.node = rcv;
  ecfg.session = 0;
  ecfg.controller = net::kInvalidNode;  // reports disabled
  ecfg.initial_subscription = 4;
  transport::ReceiverEndpoint endpoint{simulation, network, mcast, demuxes.at(rcv), ecfg};

  ReceiverAgent agent{simulation, endpoint, 2_s};  // 6 s silence horizon

  source.start();
  endpoint.start();
  agent.start();
  simulation.run_until(120_s);
  EXPECT_LT(endpoint.subscription(), 4);
  EXPECT_GT(agent.unilateral_actions(), 0u);
}

}  // namespace
}  // namespace tsim::control
