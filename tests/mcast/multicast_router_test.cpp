#include "mcast/multicast_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/simulation.hpp"

namespace tsim::mcast {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

/// star: src -> r -> {a, b}; all duplex 10 Mbps, 10 ms.
struct McastFixture : ::testing::Test {
  sim::Simulation simulation{1};
  net::Network network{simulation};
  net::NodeId src{network.add_node("src")};
  net::NodeId r{network.add_node("r")};
  net::NodeId a{network.add_node("a")};
  net::NodeId b{network.add_node("b")};
  MulticastRouter router{simulation, network, {1_s}};

  McastFixture() {
    network.add_duplex_link(src, r, tsim::units::BitsPerSec{10e6}, 10_ms);
    network.add_duplex_link(r, a, tsim::units::BitsPerSec{10e6}, 10_ms);
    network.add_duplex_link(r, b, tsim::units::BitsPerSec{10e6}, 10_ms);
    network.compute_routes();
    router.set_session_source(0, src);
  }

  net::Packet packet(net::GroupAddr group) {
    net::Packet p;
    p.kind = net::PacketKind::kData;
    p.size_bytes = 1000;
    p.src = src;
    p.multicast = true;
    p.group = group;
    return p;
  }
};

TEST_F(McastFixture, JoinWithoutSourceThrows) {
  EXPECT_THROW(router.join(a, net::GroupAddr{9, 1}), std::logic_error);
}

TEST_F(McastFixture, MembershipReflectsJoinAndLeave) {
  const net::GroupAddr g{0, 1};
  EXPECT_FALSE(router.is_member(a, g));
  router.join(a, g);
  EXPECT_TRUE(router.is_member(a, g));
  router.leave(a, g);
  EXPECT_FALSE(router.is_member(a, g));  // local delivery stops immediately
}

TEST_F(McastFixture, TreeSpansJoinedMembers) {
  const net::GroupAddr g{0, 1};
  router.join(a, g);
  router.join(b, g);
  const GroupTree* tree = router.tree(g);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->source, src);
  EXPECT_EQ(tree->edges.size(), 3u);  // src->r, r->a, r->b
  ASSERT_EQ(tree->fan.size(), network.node_count());
  EXPECT_EQ(tree->fan[a].deliver_locally, 1);
  EXPECT_EQ(tree->fan[b].deliver_locally, 1);
  EXPECT_EQ(tree->fan[src].count, 1u);
  EXPECT_EQ(tree->fan[r].count, 2u);
}

TEST_F(McastFixture, PacketsReachAllMembers) {
  const net::GroupAddr g{0, 1};
  router.join(a, g);
  router.join(b, g);
  int at_a = 0;
  int at_b = 0;
  network.set_local_sink(a, [&](const net::PacketRef&) { ++at_a; });
  network.set_local_sink(b, [&](const net::PacketRef&) { ++at_b; });
  network.send_multicast(packet(g));
  simulation.run_until(1_s);
  EXPECT_EQ(at_a, 1);
  EXPECT_EQ(at_b, 1);
}

TEST_F(McastFixture, NonMembersGetNothing) {
  const net::GroupAddr g{0, 1};
  router.join(a, g);
  int at_b = 0;
  network.set_local_sink(b, [&](const net::PacketRef&) { ++at_b; });
  network.send_multicast(packet(g));
  simulation.run_until(1_s);
  EXPECT_EQ(at_b, 0);
}

TEST_F(McastFixture, LeaveLatencyKeepsTrafficFlowingUpstream) {
  const net::GroupAddr g{0, 1};
  router.join(a, g);
  simulation.run_until(1_s);
  router.leave(a, g);

  // Immediately after the leave the branch is still grafted (IGMP
  // last-member query pending): packets still cross r -> a.
  const GroupTree* tree = router.tree(g);
  ASSERT_NE(tree, nullptr);
  ASSERT_GT(tree->fan.size(), a);
  EXPECT_EQ(tree->fan[a].deliver_locally, 0);
  EXPECT_EQ(tree->edges.size(), 2u);  // src->r, r->a still forwarding

  // After leave_latency (1 s) the branch is pruned.
  simulation.run_until(Time::seconds(2.5));
  const GroupTree* pruned = router.tree(g);
  ASSERT_NE(pruned, nullptr);
  EXPECT_TRUE(pruned->edges.empty());
}

TEST_F(McastFixture, LeaveDuringRejoinGraftKeepsEarlierForwardWindow) {
  // active -> leave (forward window opens) -> rejoin inside that window ->
  // leave again. The second leave opens a later window; the branch forwards
  // until it ends, not until the first one does.
  const net::GroupAddr g{0, 1};
  router.join(a, g);
  simulation.run_until(100_ms);
  router.leave(a, g);            // forward_until = 1.1s
  simulation.run_until(500_ms);
  router.join(a, g);             // rejoin inside the first window
  ASSERT_TRUE(router.is_member(a, g));
  simulation.run_until(600_ms);
  router.leave(a, g);            // forward_until = 1.6s
  EXPECT_FALSE(router.is_member(a, g));
  simulation.run_until(1300_ms);  // past the first window, inside the second
  const GroupTree* tree = router.tree(g);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->edges.size(), 2u);  // src->r, r->a still forwarding
  EXPECT_EQ(tree->fan[a].deliver_locally, 0);
  simulation.run_until(2_s);          // past the second window: branch pruned
  const GroupTree* pruned = router.tree(g);
  ASSERT_NE(pruned, nullptr);
  EXPECT_TRUE(pruned->edges.empty());
}

TEST_F(McastFixture, MembersListsActiveOnly) {
  const net::GroupAddr g{0, 1};
  router.join(a, g);
  router.join(b, g);
  router.leave(b, g);
  EXPECT_EQ(router.members(g), (std::vector<net::NodeId>{a}));
}

TEST_F(McastFixture, SessionTreeOverlaysLayers) {
  router.join(a, net::GroupAddr{0, 1});
  router.join(a, net::GroupAddr{0, 2});
  router.join(b, net::GroupAddr{0, 1});
  const auto edges = router.session_tree_edges(0, 6);
  // Overlay is the union: src->r, r->a, r->b.
  EXPECT_EQ(edges.size(), 3u);
}

TEST_F(McastFixture, DuplicateJoinIsIdempotent) {
  const net::GroupAddr g{0, 1};
  router.join(a, g);
  router.join(a, g);
  EXPECT_EQ(router.members(g).size(), 1u);
}

TEST_F(McastFixture, LeaveOfUnknownGroupIsNoOp) {
  router.leave(a, net::GroupAddr{0, 5});
  SUCCEED();
}

TEST_F(McastFixture, SourceAsMemberDeliversLocally) {
  const net::GroupAddr g{0, 1};
  router.join(src, g);
  int at_src = 0;
  network.set_local_sink(src, [&](const net::PacketRef&) { ++at_src; });
  network.send_multicast(packet(g));
  simulation.run_until(1_s);
  EXPECT_EQ(at_src, 1);
}

}  // namespace
}  // namespace tsim::mcast
