#include "transport/tcp_flow.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "sim/simulation.hpp"

namespace tsim::transport {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

struct TcpFixture : ::testing::Test {
  sim::Simulation simulation{41};
  net::Network network{simulation};
  net::NodeId a{network.add_node("a")};
  net::NodeId b{network.add_node("b")};
  DemuxRegistry demuxes{network};

  void link(double bps, Time latency = 20_ms, std::size_t queue = 30) {
    network.add_duplex_link(a, b, tsim::units::BitsPerSec{bps}, latency, queue);
    network.compute_routes();
  }

  TcpFlow::Config config(std::uint64_t transfer = 0) {
    TcpFlow::Config cfg;
    cfg.src = a;
    cfg.dst = b;
    cfg.transfer_bytes = transfer;
    return cfg;
  }
};

TEST_F(TcpFixture, SaturatesAnEmptyLink) {
  link(1e6);
  TcpFlow flow{simulation, network, demuxes, config()};
  flow.start();
  simulation.run_until(60_s);
  // Long-lived Reno on a clean 1 Mbps link with adequate buffering gets most
  // of the capacity (ACK-clocked sawtooth).
  EXPECT_GT(flow.mean_goodput_bps(), 0.7e6);
  EXPECT_LE(flow.mean_goodput_bps(), 1.0e6 + 1.0);
}

TEST_F(TcpFixture, SegmentsWithoutATcpPayloadAreIgnored) {
  link(1e6);
  TcpFlow flow{simulation, network, demuxes, config()};
  int acks_at_a = 0;
  demuxes.at(a).add_handler(net::PacketKind::kTcpAck,
                            [&](const net::PacketRef&) { ++acks_at_a; });
  for (const net::PacketKind kind : {net::PacketKind::kTcpData, net::PacketKind::kTcpAck}) {
    const bool data = kind == net::PacketKind::kTcpData;
    const net::NodeId to = data ? b : a;
    net::Packet p;
    p.kind = kind;
    p.src = data ? a : b;
    p.dst = to;
    demuxes.at(to).dispatch(net::PacketRef::make(net::Packet{p}));
    p.control = net::Suggestion{};
    demuxes.at(to).dispatch(net::PacketRef::make(std::move(p)));
  }
  simulation.run_until(1_s);
  // Only the two injected ACKs reach a: the receiver acknowledged nothing.
  EXPECT_EQ(acks_at_a, 2);
  EXPECT_EQ(flow.delivered_bytes(), 0u);
  EXPECT_EQ(flow.cwnd_packets(), 1.0);
}

TEST_F(TcpFixture, BoundedTransferCompletes) {
  link(1e6);
  TcpFlow flow{simulation, network, demuxes, config(500'000)};
  flow.start();
  simulation.run_until(60_s);
  EXPECT_TRUE(flow.finished());
  EXPECT_GE(flow.delivered_bytes(), 500'000u);
  EXPECT_GT(flow.completion_time(), Time::zero());
  EXPECT_LT(flow.completion_time(), 20_s);
}

TEST_F(TcpFixture, LossTriggersRetransmitsAndStillDelivers) {
  link(200e3, 20_ms, 4);  // small buffer: self-induced drops
  TcpFlow flow{simulation, network, demuxes, config(1'000'000)};
  flow.start();
  simulation.run_until(120_s);
  EXPECT_TRUE(flow.finished());
  EXPECT_GT(flow.retransmits(), 0u);
  // Goodput still lands in the ballpark of the link rate.
  const double transfer_time = (flow.completion_time() - Time::zero()).as_seconds();
  EXPECT_NEAR(1'000'000 * 8.0 / transfer_time, 200e3, 80e3);
}

TEST_F(TcpFixture, TwoFlowsShareRoughlyFairly) {
  link(1e6, 20_ms, 40);
  TcpFlow f1{simulation, network, demuxes, config()};
  // Second flow in the reverse registration order but same path: use another
  // pair of nodes to avoid demux cross-talk.
  const auto c = network.add_node("c");
  const auto d = network.add_node("d");
  network.add_duplex_link(c, a, tsim::units::BitsPerSec{10e6}, 1_ms, 100);
  network.add_duplex_link(a, c, tsim::units::BitsPerSec{10e6}, 1_ms, 100);
  network.add_duplex_link(b, d, tsim::units::BitsPerSec{10e6}, 1_ms, 100);
  network.add_duplex_link(d, b, tsim::units::BitsPerSec{10e6}, 1_ms, 100);
  network.compute_routes();
  TcpFlow::Config cfg2;
  cfg2.src = c;
  cfg2.dst = d;
  TcpFlow f2{simulation, network, demuxes, cfg2};

  f1.start();
  f2.start();
  simulation.run_until(120_s);
  const double g1 = f1.mean_goodput_bps();
  const double g2 = f2.mean_goodput_bps();
  EXPECT_GT(g1, 0.2e6);
  EXPECT_GT(g2, 0.2e6);
  // Rough fairness: neither flow gets more than ~3.5x the other.
  EXPECT_LT(std::max(g1, g2) / std::min(g1, g2), 3.5);
}

TEST_F(TcpFixture, RespectsStartTime) {
  link(1e6);
  TcpFlow::Config cfg = config();
  cfg.start = 30_s;
  TcpFlow flow{simulation, network, demuxes, cfg};
  flow.start();
  simulation.run_until(29_s);
  EXPECT_EQ(flow.delivered_bytes(), 0u);
  simulation.run_until(60_s);
  EXPECT_GT(flow.delivered_bytes(), 0u);
}

TEST_F(TcpFixture, CwndGrowsFromSlowStart) {
  link(10e6, 5_ms, 100);
  TcpFlow flow{simulation, network, demuxes, config()};
  flow.start();
  simulation.run_until(2_s);
  EXPECT_GT(flow.cwnd_packets(), 4.0);
}

}  // namespace
}  // namespace tsim::transport
