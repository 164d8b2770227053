// Fluid integerization accumulators across multicast tree rebuilds. The
// fluid engine carries each (group, link) cell's and each member's sub-packet
// remainder from step to step. A rebuild re-lays the tree's CSR arrays, so
// the remainders must be keyed by link and node id: a run that rebuilds every
// tree on every step must credit exactly what an unforced run credits.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"

namespace tsim::scenarios {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

/// Everything the fluid engine credits: endpoint totals, the per-(group,
/// link) ground-truth cells and the per-link counters.
struct Credited {
  std::vector<std::uint64_t> endpoint_totals;
  std::vector<std::uint64_t> group_cells;
  std::vector<std::uint64_t> link_counters;
  std::uint64_t tree_rebuilds{0};
};

/// Marks every tree dirty once per fluid step, half a step before the step
/// runs, so each step walks freshly rebuilt trees.
struct RebuildForcer {
  Scenario* scenario;
  Time period;

  void arm(Time first) {
    scenario->simulation().at(first, [this]() { fire(); });
  }
  void fire() {
    scenario->multicast().on_topology_change();
    scenario->simulation().after(period, [this]() { fire(); });
  }
};

ScenarioConfig fluid_config() {
  ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.duration = 30_s;
  cfg.traffic.engine = TrafficEngine::kFluid;
  return cfg;
}

/// A 2-receiver-per-set Topology A whose receiver 0 leaves down to the base
/// layer at 8 s and rejoins its initial layers at 12 s, with no controller,
/// so only that leave and rejoin change the trees.
void leave_then_rejoin(Scenario& s) {
  transport::ReceiverEndpoint* endpoint = s.endpoints().front().get();
  const int initial = s.config().control.initial_subscription;
  s.simulation().at(8_s + 30_ms, [endpoint]() { endpoint->set_subscription(1); });
  s.simulation().at(12_s + 30_ms, [endpoint, initial]() {
    endpoint->set_subscription(initial);
  });
}

Credited run(ScenarioConfig cfg, bool force_rebuilds, bool with_leave_rejoin) {
  auto scenario = ScenarioBuilder(cfg).topology_a(TopologyAOptions{}).build();
  Credited out;
  scenario->multicast().set_audit_hook(
      [&out](net::GroupAddr, const mcast::GroupTree&) { ++out.tree_rebuilds; });
  RebuildForcer forcer{scenario.get(), cfg.traffic.fluid_step};
  if (force_rebuilds) {
    forcer.arm(Time::nanoseconds(cfg.traffic.fluid_step.as_nanoseconds() / 2));
  }
  if (with_leave_rejoin) leave_then_rejoin(*scenario);
  scenario->run_until(cfg.duration);

  for (const auto& endpoint : scenario->endpoints()) {
    out.endpoint_totals.push_back(endpoint->total_packets().count());
    out.endpoint_totals.push_back(endpoint->total_lost_packets().count());
    out.endpoint_totals.push_back(endpoint->total_bytes().count());
  }
  const net::Network& network = scenario->network();
  for (std::uint32_t gid = 0; gid < network.group_stats_count(); ++gid) {
    for (net::LinkId link = 0; link < network.link_count(); ++link) {
      out.group_cells.push_back(network.group_delivered_cell(gid, link));
      out.group_cells.push_back(network.group_dropped_cell(gid, link));
    }
  }
  for (net::LinkId link = 0; link < network.link_count(); ++link) {
    const net::LinkHot& hot = network.link_hot(link);
    out.link_counters.push_back(hot.delivered_bytes);
    out.link_counters.push_back(hot.delivered_packets);
    out.link_counters.push_back(hot.dropped_bytes);
    out.link_counters.push_back(hot.dropped_packets);
  }
  return out;
}

void expect_same_credit(const Credited& unforced, const Credited& forced) {
  // Every step of the forced run rebuilt every live tree.
  EXPECT_GT(forced.tree_rebuilds, 2 * unforced.tree_rebuilds);
  EXPECT_EQ(forced.endpoint_totals, unforced.endpoint_totals);
  EXPECT_EQ(forced.group_cells, unforced.group_cells);
  EXPECT_EQ(forced.link_counters, unforced.link_counters);
}

TEST(FluidAccumulatorTest, ClosedLoopCreditsSurviveTreeRebuildEveryStep) {
  const ScenarioConfig cfg = fluid_config();
  const Credited unforced = run(cfg, false, false);
  const Credited forced = run(cfg, true, false);
  ASSERT_FALSE(unforced.endpoint_totals.empty());
  EXPECT_GT(unforced.endpoint_totals.front(), 0u);
  expect_same_credit(unforced, forced);
}

TEST(FluidAccumulatorTest, LeaveThenRejoinCreditsSurviveTreeRebuildEveryStep) {
  ScenarioConfig cfg = fluid_config();
  cfg.control.kind = ControllerKind::kNone;
  cfg.control.initial_subscription = 3;
  const Credited unforced = run(cfg, false, true);
  const Credited forced = run(cfg, true, true);
  expect_same_credit(unforced, forced);

  // The leave really cut receiver 0 off its upper layers for a while: it
  // received fewer bytes than its set-mate, which never left.
  ASSERT_GE(unforced.endpoint_totals.size(), 6u);
  EXPECT_LT(unforced.endpoint_totals[2], unforced.endpoint_totals[5]);
}

}  // namespace
}  // namespace tsim::scenarios
