// Runtime counterpart of the hot-path contract for the fluid datapath. A
// 10k-receiver fluid star held at five layers with no controller runs to
// steady state; after that, fluid steps and report-window closes (with the
// endpoints folding their fluid member totals) must not allocate at all, and
// the bytes the process holds must not grow with simulated time. The
// counting operator new lives in tests/support/alloc_counter.cpp; this binary
// has its own ctest label (`alloc`) because the replacement applies to the
// whole process.
#include <cstdint>

#include <gtest/gtest.h>

#include "../support/alloc_counter.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"

namespace tsim::scenarios {
namespace {

using namespace tsim::sim::time_literals;

TEST(FluidAlloc, SteadyStateFluidStarDoesNotAllocate) {
  ScenarioConfig config;
  config.seed = 1;
  config.duration = 5_s;
  config.traffic.engine = TrafficEngine::kFluid;
  config.control.kind = ControllerKind::kNone;
  config.control.initial_subscription = 5;
  StarOptions star;
  star.receivers = 10'000;
  auto scenario = ScenarioBuilder(config).star(star).build();
  const transport::ReceiverEndpoint& first = *scenario->endpoints().front();

  // Warm-up: every receiver joined, every tree built, two windows closed.
  scenario->run_until(2_s + 50_ms);
  const std::uint64_t steps_before = scenario->fluid_engine()->steps_executed();
  const std::uint64_t packets_before = first.total_packets().count();
  const std::uint64_t allocations_before = testing::allocations();
  const std::int64_t live_before = testing::live_bytes();

  // 20 fluid steps and the window closes at 3 s and 4 s.
  scenario->run_until(4_s + 50_ms);
  const std::uint64_t allocations = testing::allocations() - allocations_before;
  const std::int64_t live_after = testing::live_bytes();

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(live_after, live_before)
      << "live heap moved from " << live_before << " to " << live_after << " bytes";
  EXPECT_EQ(scenario->fluid_engine()->steps_executed() - steps_before, 20u);
  EXPECT_GT(first.total_packets().count(), packets_before);
  EXPECT_GT(first.last_completed_window().received_packets.count(), 0u);
}

}  // namespace
}  // namespace tsim::scenarios
