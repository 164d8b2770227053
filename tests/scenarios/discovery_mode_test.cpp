// End-to-end runs with the packet-based mtrace discovery tool instead of the
// oracle sampler: the controller must still converge, with discovery traffic
// riding the simulated network.
#include <gtest/gtest.h>

#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"
#include "topo/mtrace.hpp"

namespace tsim::scenarios {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

TEST(DiscoveryModeTest, MtraceDrivenControlConverges) {
  ScenarioConfig config;
  config.seed = 61;
  config.duration = 240_s;
  config.control.discovery = DiscoveryMode::kMtrace;
  auto s = ScenarioBuilder(config).topology_a(TopologyAOptions{}).build();
  s->run();
  for (const auto& r : s->results()) {
    const double mean = r.timeline.mean_level(120_s, 240_s);
    EXPECT_GE(mean, 1.8) << r.name;
    EXPECT_LT(r.timeline.relative_deviation(r.optimal, 120_s, 240_s), 0.7) << r.name;
  }
}

TEST(DiscoveryModeTest, MtraceTrafficIsLinearInReceivers) {
  ScenarioConfig config;
  config.seed = 62;
  config.duration = 60_s;
  config.control.discovery = DiscoveryMode::kMtrace;
  TopologyAOptions small;
  small.receivers_per_set = 1;
  TopologyAOptions big;
  big.receivers_per_set = 4;

  auto s1 = ScenarioBuilder(config).topology_a(small).build();
  auto s2 = ScenarioBuilder(config).topology_a(big).build();
  s1->run();
  s2->run();
  const auto* d1 = dynamic_cast<topo::MtraceDiscovery*>(s1->discovery());
  const auto* d2 = dynamic_cast<topo::MtraceDiscovery*>(s2->discovery());
  ASSERT_NE(d1, nullptr);
  ASSERT_NE(d2, nullptr);
  EXPECT_GT(d1->queries_sent(), 0u);
  // 4x the receivers -> 4x the queries (same rounds).
  EXPECT_EQ(d2->queries_sent(), d1->queries_sent() * 4);
}

TEST(DiscoveryModeTest, OracleAndMtraceAgreeOnSteadyTopology) {
  // In a quiet network (no congestion losing discovery packets), both
  // providers should converge to the same tree for the same scenario.
  ScenarioConfig oracle_cfg;
  oracle_cfg.seed = 63;
  oracle_cfg.duration = 60_s;
  auto oracle = ScenarioBuilder(oracle_cfg).topology_a(TopologyAOptions{}).build();

  ScenarioConfig mtrace_cfg = oracle_cfg;
  mtrace_cfg.control.discovery = DiscoveryMode::kMtrace;
  auto mtrace = ScenarioBuilder(mtrace_cfg).topology_a(TopologyAOptions{}).build();

  oracle->run_until(30_s);
  mtrace->run_until(30_s);
  const auto* so = oracle->discovery()->snapshot(0);
  const auto* sm = mtrace->discovery()->snapshot(0);
  ASSERT_NE(so, nullptr);
  ASSERT_NE(sm, nullptr);
  EXPECT_EQ(so->receivers, sm->receivers);
  EXPECT_EQ(so->edges, sm->edges);
}

}  // namespace
}  // namespace tsim::scenarios
