// Full-system integration tests: these run the actual paper scenarios for a
// few simulated minutes and assert the qualitative properties the paper
// claims. They are the closest thing to the evaluation section inside ctest;
// the benches extend them to the full 1200 s sweeps.
#include <gtest/gtest.h>

#include <numeric>

#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"

namespace tsim::scenarios {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

ScenarioConfig config(traffic::TrafficModel model, Time duration) {
  ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.traffic.model = model;
  cfg.duration = duration;
  return cfg;
}

TEST(IntegrationTopologyA, HeterogeneousSetsConvergeNearTheirOptima) {
  auto s = ScenarioBuilder(config(traffic::TrafficModel::kCbr, 300_s)).topology_a(TopologyAOptions{}).build();
  s->run();
  // Paper claim (from [5], re-verified here): each set converges towards its
  // own bottleneck's optimum; after the convergence phase the deviation over
  // the second half of the run is small.
  for (const auto& r : s->results()) {
    const double dev = r.timeline.relative_deviation(r.optimal, 150_s, 300_s);
    EXPECT_LT(dev, 0.45) << r.name << " optimal=" << r.optimal;
    const double mean = r.timeline.mean_level(150_s, 300_s);
    EXPECT_NEAR(mean, r.optimal, 1.2) << r.name;
  }
}

TEST(IntegrationTopologyA, IntraSessionFairnessWithinSets) {
  TopologyAOptions opt;
  opt.receivers_per_set = 4;
  auto s = ScenarioBuilder(config(traffic::TrafficModel::kCbr, 300_s)).topology_a(opt).build();
  s->run();
  // Receivers within a set share the bottleneck: their time-average levels
  // should be close to one another.
  const auto& res = s->results();
  for (int set = 0; set < 2; ++set) {
    std::vector<double> means;
    for (int i = 0; i < 4; ++i) {
      const auto& r = res[set * 4 + i];
      means.push_back(r.timeline.mean_level(150_s, 300_s));
    }
    const double lo = *std::min_element(means.begin(), means.end());
    const double hi = *std::max_element(means.begin(), means.end());
    EXPECT_LT(hi - lo, 1.5) << "set " << set;
  }
}

TEST(IntegrationTopologyA, CongestionIsControlled) {
  auto s = ScenarioBuilder(config(traffic::TrafficModel::kCbr, 300_s)).topology_a(TopologyAOptions{}).build();
  s->run();
  // Sustained uncontrolled overload would push lifetime loss towards the
  // over-subscription ratio (>30%); control keeps it modest.
  for (const auto& r : s->results()) {
    EXPECT_LT(r.loss_overall, 0.15) << r.name;
  }
}

TEST(IntegrationTopologyB, SessionsShareTheLinkFairly) {
  TopologyBOptions opt;
  opt.sessions = 4;
  auto s = ScenarioBuilder(config(traffic::TrafficModel::kCbr, 300_s)).topology_b(opt).build();
  s->run();
  double total_dev = 0.0;
  for (const auto& r : s->results()) {
    total_dev += r.timeline.relative_deviation(r.optimal, 150_s, 300_s);
  }
  EXPECT_LT(total_dev / 4.0, 0.5);
}

TEST(IntegrationTopologyB, VbrAlsoConverges) {
  TopologyBOptions opt;
  opt.sessions = 2;
  ScenarioConfig cfg = config(traffic::TrafficModel::kVbr, 300_s);
  cfg.traffic.peak_to_mean = 3.0;
  auto s = ScenarioBuilder(cfg).topology_b(opt).build();
  s->run();
  // Time-averaged levels (an instantaneous check can catch a receiver
  // mid-probe-collapse): each session must sit well above the base layer
  // over the second half.
  for (const auto& r : s->results()) {
    const double mean = r.timeline.mean_level(150_s, 300_s);
    EXPECT_GE(mean, 1.5) << r.name;  // VBR at ~96% mean utilization sits below the CBR optimum
    EXPECT_LE(mean, 6.0) << r.name;
  }
}

TEST(IntegrationStability, SubscriptionIsMostlyStableAfterConvergence) {
  auto s = ScenarioBuilder(config(traffic::TrafficModel::kCbr, 400_s)).topology_a(TopologyAOptions{}).build();
  s->run();
  for (const auto& r : s->results()) {
    // Long stable spells interspersed with short join/leave probes: mean gap
    // between changes in the steady half must be well above the 2 s interval.
    const double gap = r.timeline.mean_time_between_changes_s(200_s, 400_s);
    EXPECT_GT(gap, 6.0) << r.name;
  }
}

TEST(IntegrationStaleness, ModerateStalenessDegradesGracefully) {
  ScenarioConfig fresh = config(traffic::TrafficModel::kCbr, 300_s);
  ScenarioConfig stale = fresh;
  stale.control.info_staleness = 8_s;
  auto a = ScenarioBuilder(fresh).topology_a(TopologyAOptions{}).build();
  auto b = ScenarioBuilder(stale).topology_a(TopologyAOptions{}).build();
  a->run();
  b->run();
  double dev_fresh = 0.0;
  double dev_stale = 0.0;
  for (std::size_t i = 0; i < a->results().size(); ++i) {
    dev_fresh += a->results()[i].timeline.relative_deviation(a->results()[i].optimal,
                                                             100_s, 300_s);
    dev_stale += b->results()[i].timeline.relative_deviation(b->results()[i].optimal,
                                                             100_s, 300_s);
  }
  // Stale info still converges (the paper: works acceptably up to ~8 s);
  // it must not be catastrophically worse.
  EXPECT_LT(dev_stale / 4.0, 1.0);
}

}  // namespace
}  // namespace tsim::scenarios
