// Runtime counterpart of the hot-path contract for the fluid datapath. A
// 10k-receiver fluid star held at five layers with no controller runs to
// steady state; after that, fluid steps and report-window closes (with the
// endpoints folding their fluid member totals) must not allocate at all, and
// the bytes the process holds must not grow with simulated time. With the
// controller on, the heap must stay bounded over a long horizon. The
// counting operator new lives in tests/support/alloc_counter.cpp; this binary
// has its own ctest label (`alloc`) because the replacement applies to the
// whole process.
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "../support/alloc_counter.hpp"
#include "control/controller_agent.hpp"
#include "core/types.hpp"
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

/// Live bytes net of the receivers' subscription timelines, which grow by
/// design (one point per subscription change).
std::int64_t live_bytes_net_of_timelines(const Scenario& scenario) {
  std::int64_t timelines = 0;
  for (const ReceiverResult& r : scenario.results()) {
    timelines += static_cast<std::int64_t>(r.timeline.points().capacity() *
                                           sizeof(std::pair<sim::Time, int>));
  }
  return testing::live_bytes() - timelines;
}

TEST(FluidAlloc, ControllerOnFluidStarHeapIsBoundedInSimulatedTime) {
  ScenarioConfig config;
  config.seed = 1;
  config.duration = 131_s;
  config.traffic.engine = TrafficEngine::kFluid;
  StarOptions star;
  star.receivers = 10'000;
  auto scenario = ScenarioBuilder(config).star(star).build();
  const control::ControllerAgent& controller = *scenario->controller();
  const sim::Scheduler& scheduler = scenario->simulation().scheduler();
  const auto receivers = static_cast<std::size_t>(star.receivers);
  const auto nodes = static_cast<std::size_t>(receivers + 1);

  // A report is kept until its window end falls to now - info_staleness -
  // 3 * interval, and a receiver reports once per report period (the
  // interval when the config leaves it zero): 4 reports at most.
  const double interval_s = config.params.interval.as_seconds();
  const double report_period_s = interval_s;
  const auto reports_per_receiver =
      static_cast<std::size_t>(std::ceil(
          (config.control.info_staleness.as_seconds() + 3 * interval_s) / report_period_s)) +
      1;

  std::int64_t net_at_32 = 0;
  std::size_t slots_at_32 = 0;
  for (const sim::Time t : {4_s + 50_ms, 32_s + 50_ms, 130_s + 50_ms}) {
    scenario->run_until(t);
    EXPECT_LE(controller.report_history_size(), receivers * reports_per_receiver)
        << "at " << t.as_seconds() << " s";
    if (t == 32_s + 50_ms) {
      net_at_32 = live_bytes_net_of_timelines(*scenario);
      slots_at_32 = scheduler.slot_pool_size();
    }
  }
  ASSERT_GT(controller.suggestions_sent(), 0u);

  // By 32 s the receivers have joined every layer group they probe, so each
  // group is interned, sized in the fluid engine and has a tree. What may
  // still move between 32.05 s and 130.05 s, and its ceiling:
  //  * report rows reaching full capacity: receivers * bit_ceil(4) reports;
  //  * malloc's rounding of each timeline buffer, which the netting above
  //    does not see: under 32 B per receiver;
  //  * the scheduler. Its drain buffer and overflow heap each hold at most
  //    the pending population, which never exceeds the slot pool, in a
  //    vector of at most twice that capacity (24-byte entries); its bucket
  //    ring is at most 65536 12-byte buckets plus their occupancy bits; and
  //    a slot pool that grows to P holds at most 2P slots (a callback plus a
  //    generation and a flag within its alignment), nodes (24 B) and
  //    free-list indices (4 B);
  //  * what is rebuilt each interval or sample: the last algorithm output
  //    (a prescription and a diagnostics row per node) and the held
  //    snapshot (an edge and a receiver per node), each in a vector of at
  //    most twice its size.
  // The 64-report and 128-snapshot count caps this replaced held ~50 MB
  // more at 130 s than at 32 s.
  const std::size_t slots = scheduler.slot_pool_size();
  const std::size_t rows = receivers * std::bit_ceil(reports_per_receiver) *
                           sizeof(net::ReceiverReport);
  const std::size_t entry_bytes = 24;
  std::size_t scheduler_bytes = 2 * (2 * slots * entry_bytes) + 65536 * 12 + 65536 / 8;
  if (slots > slots_at_32) {
    using Callback = sim::Scheduler::Callback;
    scheduler_bytes += 2 * slots * (sizeof(Callback) + alignof(Callback) + entry_bytes + 4);
  }
  const std::size_t rebuilt =
      2 * nodes * (sizeof(core::Prescription) + sizeof(core::NodeDiagnostics)) +
      2 * nodes * (sizeof(std::pair<net::NodeId, net::NodeId>) + sizeof(net::NodeId));
  const std::size_t timeline_rounding = receivers * 32;
  const auto bound =
      static_cast<std::int64_t>(rows + timeline_rounding + scheduler_bytes + rebuilt);
  const std::int64_t growth = live_bytes_net_of_timelines(*scenario) - net_at_32;
  EXPECT_LE(growth, bound) << "net live heap grew " << growth << " bytes from 32 s to 130 s";
}

}  // namespace
}  // namespace tsim::scenarios
