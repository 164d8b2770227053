// Runtime counterpart of the hot-path contract for the control path. A
// receiver endpoint reports every window to a controller node whose demux
// handler reads the ReceiverReport and answers with a Suggestion for the
// receiver's current level, which the endpoint receives and obeys. Reports
// and suggestions are plain values inside the pooled packet node, so after
// warm-up this loop must not allocate at all, and the bytes the process holds
// must not grow. The counting operator new lives in
// tests/support/alloc_counter.cpp; this binary has its own ctest label
// (`alloc`) because the replacement applies to the whole process.
#include <cstdint>
#include <variant>

#include <gtest/gtest.h>

#include "../support/alloc_counter.hpp"
#include "mcast/multicast_router.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "transport/demux.hpp"
#include "transport/receiver_endpoint.hpp"

namespace tsim::transport {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

TEST(ControlAlloc, SteadyStateReportSuggestionLoopDoesNotAllocate) {
  sim::Simulation simulation{1};
  net::Network network{simulation};
  const net::NodeId controller = network.add_node("controller");
  const net::NodeId receiver = network.add_node("receiver");
  network.add_duplex_link(controller, receiver, units::BitsPerSec{10e6}, 20_ms, 30);
  network.compute_routes();
  mcast::MulticastRouter mcast{simulation, network, {500_ms}};
  mcast.set_session_source(0, controller);
  DemuxRegistry demuxes{network};

  std::uint64_t reports = 0;
  std::uint32_t epoch = 0;
  demuxes.at(controller).add_handler(net::PacketKind::kReport, [&](const net::PacketRef& p) {
    const auto* report = std::get_if<net::ReceiverReport>(&p->control);
    if (report == nullptr) return;
    ++reports;
    net::Packet reply;
    reply.kind = net::PacketKind::kSuggestion;
    reply.size_bytes = net::kSuggestionPacketBytes;
    reply.src = controller;
    reply.dst = report->receiver;
    reply.control = net::Suggestion{.receiver = report->receiver,
                                    .session = report->session,
                                    .subscription = report->subscription,
                                    .epoch = ++epoch};
    network.send_unicast(reply);
  });

  ReceiverEndpoint::Config cfg;
  cfg.node = receiver;
  cfg.session = 0;
  cfg.controller = controller;
  cfg.report_period = 100_ms;
  cfg.initial_subscription = 2;
  ReceiverEndpoint endpoint{simulation, network, mcast, demuxes.at(receiver), cfg};
  std::uint64_t obeyed = 0;
  endpoint.on_suggestion([&](const net::Suggestion& suggestion) {
    ++obeyed;
    endpoint.set_subscription(suggestion.subscription);
  });
  endpoint.start();

  // Warm-up: the join settled, the packet pool and scheduler slots grown.
  simulation.run_until(1_s + 50_ms);
  const std::uint64_t reports_before = reports;
  const std::uint64_t obeyed_before = obeyed;
  const std::uint64_t allocations_before = testing::allocations();
  const std::int64_t live_before = testing::live_bytes();

  // 20 windows: 20 reports out, 20 suggestions back.
  simulation.run_until(3_s + 50_ms);
  const std::uint64_t allocations = testing::allocations() - allocations_before;
  const std::int64_t live_after = testing::live_bytes();

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(live_after, live_before)
      << "live heap moved from " << live_before << " to " << live_after << " bytes";
  EXPECT_EQ(reports - reports_before, 20u);
  EXPECT_EQ(obeyed - obeyed_before, 20u);
  EXPECT_EQ(endpoint.subscription(), 2);
}

}  // namespace
}  // namespace tsim::transport
