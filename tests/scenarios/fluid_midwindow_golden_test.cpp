// Golden fingerprint of what ReceiverEndpoint exposes *during* a fluid run.
//
// The benchmark fingerprints read endpoint totals only once a run is over.
// This test pins every endpoint read at many points inside the run: off the
// step grid (every 70 ms, in the middle of fluid steps and report windows),
// and on every multiple of the fluid step twice over, once before and once
// after the step and any report-window close that share the timestamp. The
// topology has two sessions whose receivers share a node, a receiver that
// stops, one that starts late (so its windows close half a second off the
// others), a scripted mid-window leave and rejoin, and a leave landing on a
// window close.
//
// If this test fails after an INTENTIONAL behaviour change, re-record: copy
// the printed fingerprint and note the behaviour change in the commit message.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "scenarios/scenario.hpp"
#include "scenarios/topology_file.hpp"
#include "transport/receiver_endpoint.hpp"

namespace tsim::scenarios {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Recorded with push-based fluid delivery (FluidEngine calling into every
/// endpoint once per step), before endpoints read member totals themselves.
constexpr std::uint64_t kGoldenFingerprint = 0x51203d3304a2da34ull;

/// s0 and s1 each source one session over their own fat link into r; both
/// sessions share the thin r-a link (receivers a/0 and a/1 on one node) and
/// the thinner r-b link, where b/0 stops at 7.45 s and b/1 starts at 0.5 s.
constexpr const char* kTopology = R"(
node s0
node s1
node r
node a
node b
link s0 r 3Mbps 20ms
link s1 r 3Mbps 20ms
link r a 700kbps 30ms queue 15
link r b 300kbps 40ms queue 10
source 0 s0
source 1 s1
receiver a 0
receiver a 1
receiver b 0 stop 7.45
receiver b 1 start 0.5
controller s0
traffic fluid step 0.1
)";

constexpr Time kDuration = 12_s;

class Recorder {
 public:
  explicit Recorder(Scenario& scenario) : scenario_{scenario} {}

  void sample() {
    ++samples_;
    for (const auto& endpoint : scenario_.endpoints()) {
      const transport::ReceiverEndpoint& e = *endpoint;
      fold(e.total_packets().count());
      fold(e.total_bytes().count());
      fold(e.total_lost_packets().count());
      fold(std::bit_cast<std::uint64_t>(e.lifetime_loss_rate().value()));
      fold_window(e.window());
      fold_window(e.last_completed_window());
      fold(static_cast<std::uint64_t>(e.subscription()));
    }
  }

  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }

 private:
  void fold(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (i * 8)) & 0xff;
      hash_ *= kFnvPrime;
    }
  }
  void fold_window(const transport::ReceiverEndpoint::WindowStats& w) {
    fold(w.received_packets.count());
    fold(w.lost_packets.count());
    fold(w.bytes.count());
  }

  Scenario& scenario_;
  std::uint64_t hash_{kFnvOffset};
  std::uint64_t samples_{0};
};

TEST(FluidMidWindowGoldenTest, EndpointReadsThroughoutTheRunMatchRecordedFingerprint) {
  const ParseResult parsed = parse_topology(kTopology);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ScenarioConfig config;
  config.seed = 2024;
  config.duration = kDuration;
  auto scenario = Scenario::from_description(config, *parsed.description);
  ASSERT_NE(scenario->fluid_engine(), nullptr);
  ASSERT_EQ(scenario->endpoints().size(), 4u);

  sim::Simulation& simulation = scenario->simulation();
  Recorder recorder{*scenario};
  const Time step = scenario->config().traffic.fluid_step;

  // Off the step grid.
  for (Time t = 70_ms; t < kDuration; t += 70_ms) {
    simulation.at(t, [&recorder]() { recorder.sample(); });
  }
  for (Time t = step; t < kDuration; t += step) {
    // Scheduled now, so it runs before the step and any window close at t
    // (both are scheduled later, and same-time events run in FIFO order).
    simulation.at(t, [&recorder]() { recorder.sample(); });
    // Scheduled 1 ns before t, so it runs after them.
    simulation.at(t - Time::nanoseconds(1), [&simulation, &recorder, t]() {
      simulation.at(t, [&recorder]() { recorder.sample(); });
    });
  }

  // Receiver a/0 drops to the base layer mid-window and rejoins mid-window.
  transport::ReceiverEndpoint* a0 = scenario->endpoints()[0].get();
  simulation.at(3_s + 230_ms, [a0]() { a0->set_subscription(1); });
  simulation.at(5_s + 610_ms, [a0]() { a0->set_subscription(4); });
  // Receiver b/1 leaves a layer exactly on one of its window closes, ahead
  // of the close and of the step sharing that timestamp.
  transport::ReceiverEndpoint* b1 = scenario->endpoints()[3].get();
  simulation.at(9_s + 500_ms, [b1]() { b1->set_subscription(b1->subscription() - 1); });

  scenario->run();

  // The run saw loss and a stopped receiver, so the reads above are not
  // trivially zero.
  std::uint64_t lost = 0;
  for (const auto& endpoint : scenario->endpoints()) {
    lost += endpoint->total_lost_packets().count();
    EXPECT_GT(endpoint->total_packets().count(), 0u);
  }
  EXPECT_GT(lost, 0u);
  EXPECT_FALSE(scenario->endpoints()[2]->active());
  EXPECT_EQ(recorder.samples(), 171u + 2u * 119u);

  EXPECT_EQ(recorder.hash(), kGoldenFingerprint)
      << "mid-window endpoint reads changed: fingerprint is 0x" << std::hex << recorder.hash();
}

}  // namespace
}  // namespace tsim::scenarios
