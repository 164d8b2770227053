// Oracle test for MulticastRouter's tree rebuild. The reference below is the
// straightforward construction: RoutingTable::path for every member that
// carries traffic, every hop into a std::set, and the CSR fan laid out from
// the set's (parent, child) order. Seeded joins, leaves, leave-latency
// expiries and link failures/repairs run on a tiered tree, a star and an
// equal-cost mesh read from the topology language; after every rebuild the
// router's tree must equal the reference field for field.
#include "mcast/multicast_router.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "scenarios/topology_file.hpp"
#include "sim/simulation.hpp"

namespace tsim::mcast {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;
using Edge = std::pair<net::NodeId, net::NodeId>;

constexpr net::LayerId kLayers = 3;
constexpr Time kLeaveLatency = 400_ms;

/// What the test knows of one member of one group, kept with the router's
/// semantics (instant grafts): a join makes the member local and forwarded
/// to for good, a leave stops local delivery now and forwarding after
/// kLeaveLatency.
struct MemberMirror {
  bool local{false};
  Time forward_until{Time::zero()};
};
using GroupMirror = std::map<net::NodeId, MemberMirror>;

struct ReferenceTree {
  std::vector<Edge> edges;
  std::vector<GroupTree::FanSlot> fan;
  std::vector<net::LinkId> fan_links;
};

/// The tree the router must build: per-member paths merged in a std::set.
ReferenceTree reference_rebuild(const net::Network& network, net::NodeId source,
                                const GroupMirror& members, Time now) {
  ReferenceTree ref;
  ref.fan.assign(network.node_count(), {});
  const net::RoutingTable& routes = network.routes();
  std::set<Edge> edge_set;
  for (const auto& [member, ms] : members) {
    if (!ms.local && !(ms.forward_until > now)) continue;
    if (ms.local) ref.fan[member].deliver_locally = 1;
    if (member == source) continue;
    const std::vector<net::NodeId> path = routes.path(source, member);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) edge_set.emplace(path[i], path[i + 1]);
  }
  for (const auto& [parent, child] : edge_set) {
    ref.edges.emplace_back(parent, child);
    GroupTree::FanSlot& slot = ref.fan[parent];
    if (slot.count == 0) slot.offset = static_cast<std::uint32_t>(ref.fan_links.size());
    ++slot.count;
    ref.fan_links.push_back(routes.next_hop(parent, child));
  }
  return ref;
}

::testing::AssertionResult matches_reference(const GroupTree& tree, const ReferenceTree& ref) {
  if (tree.edges != ref.edges) {
    return ::testing::AssertionFailure()
           << "edges differ: " << tree.edges.size() << " built, " << ref.edges.size()
           << " expected";
  }
  if (tree.fan_links != ref.fan_links) return ::testing::AssertionFailure() << "fan_links differ";
  if (tree.fan.size() != ref.fan.size()) {
    return ::testing::AssertionFailure() << "fan has " << tree.fan.size() << " slots, expected "
                                         << ref.fan.size();
  }
  for (net::NodeId node = 0; node < ref.fan.size(); ++node) {
    const GroupTree::FanSlot& got = tree.fan[node];
    const GroupTree::FanSlot& want = ref.fan[node];
    if (got.offset != want.offset || got.count != want.count ||
        got.deliver_locally != want.deliver_locally) {
      return ::testing::AssertionFailure()
             << "fan slot of node " << node << " is " << got.offset << "+" << got.count
             << " deliver " << int{got.deliver_locally} << ", expected " << want.offset << "+"
             << want.count << " deliver " << int{want.deliver_locally};
    }
  }
  return ::testing::AssertionSuccess();
}

/// A built topology: the session source, the nodes that may join, and the
/// duplex links churn may fail and repair.
struct Topology {
  net::NodeId source{net::kInvalidNode};
  std::vector<net::NodeId> receivers;
  std::vector<std::pair<net::LinkId, net::LinkId>> links;
};

const units::BitsPerSec kRate{10e6};

/// source -> national -> 3 regionals -> 3 locals each -> 4 receivers each.
Topology build_tiered(net::Network& network) {
  Topology topo;
  topo.source = network.add_node("source");
  auto add_child = [&](net::NodeId parent, int ms) {
    const net::NodeId child = network.add_node();
    topo.links.push_back(network.add_duplex_link(parent, child, kRate, Time::milliseconds(ms)));
    return child;
  };
  const net::NodeId national = add_child(topo.source, 5);
  for (int r = 0; r < 3; ++r) {
    const net::NodeId regional = add_child(national, 10 + r);
    for (int l = 0; l < 3; ++l) {
      const net::NodeId local = add_child(regional, 20 + l);
      for (int i = 0; i < 4; ++i) topo.receivers.push_back(add_child(local, 30 + i));
    }
  }
  return topo;
}

/// source -> hub -> 200 receivers on identical links.
Topology build_star(net::Network& network) {
  Topology topo;
  topo.source = network.add_node("source");
  const net::NodeId hub = network.add_node("hub");
  topo.links.push_back(network.add_duplex_link(topo.source, hub, kRate, 5_ms));
  for (int i = 0; i < 200; ++i) {
    const net::NodeId receiver = network.add_node();
    topo.links.push_back(network.add_duplex_link(hub, receiver, kRate, 10_ms));
    topo.receivers.push_back(receiver);
  }
  return topo;
}

/// Two layers of a mesh with equal latencies everywhere, so most receivers
/// have several shortest paths and each hop's own routing row picks among
/// them.
constexpr const char* kEqualCostMesh = R"(
node s
node a
node b
node c
node d
node e
node r0
node r1
node r2
node r3
node r4
node r5
node r6
node r7
link s a 10Mbps 10ms
link s b 10Mbps 10ms
link a c 10Mbps 10ms
link b c 10Mbps 10ms
link a d 10Mbps 10ms
link b d 10Mbps 10ms
link c e 10Mbps 10ms
link d e 10Mbps 10ms
link c r0 10Mbps 10ms
link c r1 10Mbps 10ms
link c r2 10Mbps 10ms
link d r3 10Mbps 10ms
link d r4 10Mbps 10ms
link e r5 10Mbps 10ms
link e r6 10Mbps 10ms
link r2 r3 10Mbps 10ms
link r6 r7 10Mbps 10ms
source 0 s
controller s
receiver r0 0
)";

Topology build_from_file(net::Network& network) {
  const scenarios::ParseResult parsed = scenarios::parse_topology(kEqualCostMesh);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  Topology topo;
  if (!parsed.ok()) return topo;
  std::map<std::string, net::NodeId> ids;
  for (const std::string& name : parsed.description->nodes) ids[name] = network.add_node(name);
  for (const auto& link : parsed.description->links) {
    topo.links.push_back(
        network.add_duplex_link(ids.at(link.a), ids.at(link.b), link.bandwidth, link.latency));
  }
  topo.source = ids.at("s");
  for (const auto& [name, id] : ids) {
    if (name != "s") topo.receivers.push_back(id);
  }
  return topo;
}

/// Runs `steps` seeded churn operations and checks every rebuild against the
/// reference; returns the number of rebuilds seen.
std::uint64_t churn_against_reference(Topology (*build)(net::Network&), std::uint64_t seed,
                                      int steps) {
  sim::Simulation simulation{seed};
  net::Network network{simulation};
  const Topology topo = build(network);
  network.compute_routes();
  MulticastRouter router{simulation, network, {kLeaveLatency}};
  router.set_session_source(0, topo.source);

  std::map<net::GroupAddr, GroupMirror> mirror;
  std::uint64_t rebuilds = 0;
  router.set_audit_hook([&](net::GroupAddr group, const GroupTree& tree) {
    ++rebuilds;
    EXPECT_EQ(tree.source, topo.source);
    EXPECT_EQ(tree.built_topology_version, network.topology_version());
    EXPECT_TRUE(
        matches_reference(tree, reference_rebuild(network, topo.source, mirror[group],
                                                  simulation.now())))
        << "seed " << seed << ", layer " << int{group.layer} << ", t=" << simulation.now().as_seconds();
  });

  // The source itself joins now and then: its slot delivers locally and its
  // own path contributes no edge.
  std::vector<net::NodeId> candidates = topo.receivers;
  candidates.push_back(topo.source);
  std::mt19937_64 rng{seed};
  auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };

  for (int step = 0; step < steps; ++step) {
    const net::NodeId member = candidates[pick(candidates.size())];
    const net::GroupAddr group{0, static_cast<net::LayerId>(1 + pick(kLayers))};
    const std::size_t op = pick(20);
    if (op < 8) {
      router.join(member, group);
      MemberMirror& ms = mirror[group][member];
      if (!ms.local) ms = MemberMirror{true, Time::max()};
    } else if (op < 13) {
      router.leave(member, group);
      const auto it = mirror[group].find(member);
      if (it != mirror[group].end() && it->second.local) {
        it->second = MemberMirror{false, simulation.now() + kLeaveLatency};
      }
    } else if (op < 15) {
      // Fail or repair one duplex link; partitioned members must be skipped.
      const auto [ab, ba] = topo.links[pick(topo.links.size())];
      const bool up = !network.link(ab).is_up();
      network.link(ab).set_up(up);
      network.link(ba).set_up(up);
      network.on_topology_changed();
    } else {
      // Long enough steps that leave latencies expire in between.
      simulation.run_until(simulation.now() + Time::milliseconds(1 + pick(250)));
    }
    EXPECT_EQ(router.is_member(member, group), mirror[group][member].local);

    if (pick(3) == 0) {
      for (net::LayerId layer = 1; layer <= kLayers; ++layer) {
        (void)router.tree(net::GroupAddr{0, layer});
      }
    }
    if (pick(8) == 0) {
      std::set<Edge> merged;
      for (net::LayerId layer = 1; layer <= kLayers; ++layer) {
        const GroupTree* tree = router.tree(net::GroupAddr{0, layer});
        if (tree != nullptr) merged.insert(tree->edges.begin(), tree->edges.end());
      }
      EXPECT_EQ(router.session_tree_edges(0, kLayers),
                std::vector<Edge>(merged.begin(), merged.end()))
          << "seed " << seed << ", step " << step;
    }
  }

  // Repair everything and let every leave expire: the final trees hold only
  // the local members.
  for (const auto& [ab, ba] : topo.links) {
    network.link(ab).set_up(true);
    network.link(ba).set_up(true);
  }
  network.on_topology_changed();
  simulation.run_until(simulation.now() + kLeaveLatency + 1_ms);
  for (net::LayerId layer = 1; layer <= kLayers; ++layer) {
    const net::GroupAddr group{0, layer};
    const GroupTree* tree = router.tree(group);
    if (tree == nullptr) continue;
    EXPECT_TRUE(matches_reference(
        *tree, reference_rebuild(network, topo.source, mirror[group], simulation.now())));
  }
  return rebuilds;
}

TEST(TreeRebuildOracle, TieredTreeMatchesReferenceUnderChurn) {
  for (const std::uint64_t seed : {1U, 2U, 3U}) {
    EXPECT_GT(churn_against_reference(build_tiered, seed, 600), 150u) << "seed " << seed;
  }
}

TEST(TreeRebuildOracle, StarMatchesReferenceUnderChurn) {
  for (const std::uint64_t seed : {4U, 5U, 6U}) {
    EXPECT_GT(churn_against_reference(build_star, seed, 600), 150u) << "seed " << seed;
  }
}

TEST(TreeRebuildOracle, EqualCostMeshMatchesReferenceUnderChurn) {
  for (const std::uint64_t seed : {7U, 8U, 9U}) {
    EXPECT_GT(churn_against_reference(build_from_file, seed, 600), 150u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tsim::mcast
