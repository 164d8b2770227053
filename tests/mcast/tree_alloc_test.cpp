// Runtime check that a multicast tree rebuild reuses its storage. On the
// paper's tiered 8x5x25 tree, every receiver joins three layers; warm-up churn
// grows the trees' arrays and the router's scratch to their largest size.
// After that, leave / leave-latency expiry / re-join cycles, each forcing
// rebuilds through tree(), must not allocate and must hold the live heap
// steady. The counting operator new lives in tests/support/alloc_counter.cpp;
// this binary has its own ctest label (`alloc`) because the replacement
// applies to the whole process.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "../support/alloc_counter.hpp"
#include "mcast/multicast_router.hpp"
#include "sim/simulation.hpp"

namespace tsim::mcast {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

TEST(TreeAlloc, RebuildCyclesOnTieredTreeDoNotAllocate) {
  sim::Simulation simulation{1};
  net::Network network{simulation};
  MulticastRouter router{simulation, network, {100_ms}};
  const units::BitsPerSec rate{10e6};
  const net::NodeId source = network.add_node("source");
  const net::NodeId national = network.add_node("national");
  network.add_duplex_link(source, national, rate, 5_ms);
  std::vector<net::NodeId> receivers;
  auto add_child = [&](net::NodeId parent) {
    const net::NodeId child = network.add_node();
    network.add_duplex_link(parent, child, rate, 10_ms);
    return child;
  };
  for (int r = 0; r < 8; ++r) {
    const net::NodeId regional = add_child(national);
    for (int l = 0; l < 5; ++l) {
      const net::NodeId local = add_child(regional);
      for (int i = 0; i < 25; ++i) receivers.push_back(add_child(local));
    }
  }
  network.compute_routes();
  router.set_session_source(0, source);
  const net::GroupAddr groups[] = {{0, 1}, {0, 2}, {0, 3}};
  for (const net::GroupAddr group : groups) {
    for (const net::NodeId receiver : receivers) router.join(receiver, group);
  }
  std::uint64_t rebuilds = 0;
  router.set_audit_hook([&rebuilds](net::GroupAddr, const GroupTree&) { ++rebuilds; });

  // One cycle: a receiver leaves (rebuild: still forwarded to), its leave
  // latency expires (rebuild: pruned), and it joins again (rebuild: full).
  std::size_t next = 0;
  auto cycle = [&]() {
    const net::NodeId receiver = receivers[next % receivers.size()];
    const net::GroupAddr group = groups[next % 3];
    ++next;
    router.leave(receiver, group);
    (void)router.tree(group);
    simulation.run_until(simulation.now() + 150_ms);
    (void)router.tree(group);
    router.join(receiver, group);
    (void)router.tree(group);
  };
  for (int i = 0; i < 50; ++i) cycle();

  const std::uint64_t rebuilds_before = rebuilds;
  const std::uint64_t allocations_before = testing::allocations();
  const std::int64_t live_before = testing::live_bytes();
  for (int i = 0; i < 200; ++i) cycle();
  const std::uint64_t allocations = testing::allocations() - allocations_before;
  const std::int64_t live_after = testing::live_bytes();

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(live_after, live_before)
      << "live heap moved from " << live_before << " to " << live_after << " bytes";
  EXPECT_EQ(rebuilds - rebuilds_before, 600u);
  const GroupTree* tree = router.tree(groups[0]);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->edges.size(), 1u + 8u + 8u * 5u + receivers.size());
}

}  // namespace
}  // namespace tsim::mcast
