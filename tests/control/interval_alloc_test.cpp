// Runtime counterpart of the hot-path contract for the controller interval.
// ControllerAgent::run_interval turns one topology snapshot per session into
// the algorithm input and runs TopoSense on it. The per-node work must reuse
// buffers, so what one interval allocates may grow with the tree only through
// amortized vector growth, not once per node. The fixture is a star of N
// registered leaves behind one hub with no data traffic, so no receiver ever
// drops a layer and no backoff entry (which would scale with receivers) is
// created. A unicast filter swallows the suggestions, so the network does no
// per-receiver work either. The counting operator new lives in
// tests/support/alloc_counter.cpp; this binary has its own ctest label
// (`alloc`) because the replacement applies to the whole process.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../support/alloc_counter.hpp"
#include "control/controller_agent.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "topo/provider.hpp"
#include "transport/demux.hpp"

namespace tsim::control {
namespace {

using namespace tsim::sim::time_literals;

/// A fixed snapshot of session 0: source -> hub -> each leaf.
class StarTopology final : public topo::TopologyProvider {
 public:
  StarTopology(net::NodeId source, net::NodeId hub, const std::vector<net::NodeId>& leaves) {
    snapshot_.source = source;
    snapshot_.edges.emplace_back(source, hub);
    for (const net::NodeId leaf : leaves) snapshot_.edges.emplace_back(hub, leaf);
    snapshot_.receivers = leaves;
  }
  void track_session(net::SessionId /*session*/, net::LayerId /*max_layer*/) override {}
  void start() override {}
  [[nodiscard]] const topo::TopologySnapshot* snapshot(net::SessionId session) const override {
    return session == snapshot_.session ? &snapshot_ : nullptr;
  }

 private:
  topo::TopologySnapshot snapshot_;
};

struct IntervalCost {
  std::uint64_t allocations{0};
  std::uint64_t suggestions{0};
};

/// Allocations and suggestions of the third controller interval (t = 6.5 s)
/// over a star of `leaves` receivers.
IntervalCost third_interval(int leaves) {
  sim::Simulation simulation{1};
  net::Network network{simulation};
  const net::NodeId source = network.add_node("source");
  const net::NodeId hub = network.add_node("hub");
  std::vector<net::NodeId> receivers;
  receivers.reserve(static_cast<std::size_t>(leaves));
  for (int i = 0; i < leaves; ++i) receivers.push_back(network.add_node("r" + std::to_string(i)));
  network.compute_routes();
  std::uint64_t suggestions = 0;
  network.set_unicast_filter([&suggestions](const net::Packet& packet) {
    if (packet.kind == net::PacketKind::kSuggestion) ++suggestions;
    return false;
  });
  transport::DemuxRegistry demuxes{network};
  StarTopology topology{source, hub, receivers};

  ControllerAgent::Config cfg;
  cfg.node = source;
  ControllerAgent agent{simulation, network, topology, demuxes.at(source), cfg};
  for (const net::NodeId r : receivers) agent.register_receiver(0, r);
  agent.start();

  // Intervals run at 2.5 s, 4.5 s and 6.5 s.
  simulation.run_until(6_s);
  const std::uint64_t allocations_before = testing::allocations();
  const std::uint64_t suggestions_before = suggestions;
  simulation.run_until(7_s);
  return {testing::allocations() - allocations_before, suggestions - suggestions_before};
}

TEST(IntervalAlloc, PerIntervalAllocationsDoNotScaleWithNodes) {
  const IntervalCost small = third_interval(1000);
  const IntervalCost large = third_interval(10000);
  EXPECT_EQ(small.suggestions, 1000u);
  EXPECT_EQ(large.suggestions, 10000u);
  EXPECT_LT(large.allocations, 2 * small.allocations)
      << "N = 1000: " << small.allocations << " allocations, N = 10000: "
      << large.allocations;
}

}  // namespace
}  // namespace tsim::control
