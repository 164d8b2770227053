#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"

#include <gtest/gtest.h>

namespace tsim::scenarios {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

ScenarioConfig quick_config() {
  ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.duration = 60_s;
  return cfg;
}

TEST(ScenarioBuildTest, TopologyAHasExpectedShape) {
  TopologyAOptions opt;
  opt.receivers_per_set = 2;
  auto s = ScenarioBuilder(quick_config()).topology_a(opt).build();
  // source, r0, r1, r2 + 4 receivers.
  EXPECT_EQ(s->network().node_count(), 8u);
  EXPECT_EQ(s->results().size(), 4u);
  EXPECT_EQ(s->results()[0].optimal, 3);  // 256 Kbps -> 3 layers
  EXPECT_EQ(s->results()[2].optimal, 5);  // 1 Mbps -> 5 layers
  EXPECT_NE(s->controller(), nullptr);
  EXPECT_EQ(s->sources().size(), 1u);
}

TEST(ScenarioBuildTest, TopologyBHasExpectedShape) {
  TopologyBOptions opt;
  opt.sessions = 4;
  auto s = ScenarioBuilder(quick_config()).topology_b(opt).build();
  // ra, rb + 4 sources + 4 receivers.
  EXPECT_EQ(s->network().node_count(), 10u);
  EXPECT_EQ(s->results().size(), 4u);
  EXPECT_EQ(s->sources().size(), 4u);
  for (const auto& r : s->results()) EXPECT_EQ(r.optimal, 4);
}

TEST(ScenarioBuildTest, WatchdogHorizonIsThreeControllerIntervals) {
  // The watchdog is wired to the controller's interval, never configured on
  // its own: three missed intervals of silence, whatever the interval.
  ScenarioConfig fast = quick_config();
  fast.params.interval = 1_s;
  auto s = ScenarioBuilder(fast).topology_a(TopologyAOptions{}).build();
  ASSERT_EQ(s->receiver_agents().size(), s->results().size());
  for (const auto* agent : s->receiver_agents()) EXPECT_EQ(agent->silence_horizon(), 3_s);

  auto d = ScenarioBuilder(quick_config()).topology_a(TopologyAOptions{}).build();
  ASSERT_EQ(d->receiver_agents().size(), d->results().size());
  for (const auto* agent : d->receiver_agents()) EXPECT_EQ(agent->silence_horizon(), 6_s);
}

TEST(ScenarioBuildTest, ControllerKindNoneRunsOpenLoop) {
  ScenarioConfig cfg = quick_config();
  cfg.control.kind = ControllerKind::kNone;
  auto s = ScenarioBuilder(cfg).topology_a(TopologyAOptions{}).build();
  EXPECT_EQ(s->controller(), nullptr);
  s->run();
  for (const auto& r : s->results()) {
    EXPECT_EQ(r.final_subscription, 1);  // nothing ever adapts
  }
}

TEST(ScenarioBuildTest, ReceiverDrivenBaselineAdapts) {
  ScenarioConfig cfg = quick_config();
  cfg.duration = 120_s;
  cfg.control.kind = ControllerKind::kReceiverDriven;
  auto s = ScenarioBuilder(cfg).topology_a(TopologyAOptions{}).build();
  s->run();
  int total = 0;
  for (const auto& r : s->results()) total += r.final_subscription;
  EXPECT_GT(total, 4);  // receivers climbed above the base layer
}

TEST(ScenarioRunTest, TimelinesRecordStartupJoin) {
  auto s = ScenarioBuilder(quick_config()).topology_a(TopologyAOptions{}).build();
  s->run();
  for (const auto& r : s->results()) {
    EXPECT_GE(r.timeline.change_count(Time::zero(), 60_s), 1);  // 0 -> 1 at start
    EXPECT_GE(r.final_subscription, 1);
  }
}

TEST(ScenarioRunTest, RunUntilIsMonotonicAndResumable) {
  auto s = ScenarioBuilder(quick_config()).topology_a(TopologyAOptions{}).build();
  s->run_until(10_s);
  const int early = s->results()[0].final_subscription;
  s->run_until(60_s);
  EXPECT_GE(s->results()[0].final_subscription, 1);
  EXPECT_GE(early, 1);
}

TEST(ScenarioRunTest, DeterministicAcrossIdenticalRuns) {
  auto a = ScenarioBuilder(quick_config()).topology_b(TopologyBOptions{}).build();
  auto b = ScenarioBuilder(quick_config()).topology_b(TopologyBOptions{}).build();
  a->run();
  b->run();
  for (std::size_t i = 0; i < a->results().size(); ++i) {
    EXPECT_EQ(a->results()[i].final_subscription, b->results()[i].final_subscription);
    EXPECT_EQ(a->results()[i].timeline.points().size(), b->results()[i].timeline.points().size());
  }
}

TEST(ScenarioRunTest, DifferentSeedsDiverge) {
  ScenarioConfig c1 = quick_config();
  ScenarioConfig c2 = quick_config();
  c2.seed = 1234;
  c1.traffic.model = traffic::TrafficModel::kVbr;
  c2.traffic.model = traffic::TrafficModel::kVbr;
  c1.duration = c2.duration = 120_s;
  auto a = ScenarioBuilder(c1).topology_b(TopologyBOptions{}).build();
  auto b = ScenarioBuilder(c2).topology_b(TopologyBOptions{}).build();
  a->run();
  b->run();
  // Some observable difference in the change histories.
  bool diverged = false;
  for (std::size_t i = 0; i < a->results().size(); ++i) {
    if (a->results()[i].timeline.points() != b->results()[i].timeline.points()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace tsim::scenarios
