// Multiple administrative domains (paper §II, Fig 3): each domain runs its
// own controller agent over a domain-scoped topology view; domains are
// mutually unaware and control congestion independently on their subtrees.
//
// Topology:
//   source -- core --(768 Kbps)-- d1 -- 2 receivers   (domain 1, controller at d1)
//                  \-(1.5 Mbps)-- d2 -- 2 receivers   (domain 2, controller at d2)
#include <cstdio>
#include <memory>
#include <vector>

#include "control/controller_agent.hpp"
#include "control/receiver_agent.hpp"
#include "mcast/multicast_router.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "metrics/subscription_metrics.hpp"
#include "topo/discovery.hpp"
#include "traffic/layered_source.hpp"
#include "transport/demux.hpp"
#include "transport/receiver_endpoint.hpp"

int main() {
  using namespace tsim;
  using sim::Time;

  sim::Simulation simulation{404};
  net::Network network{simulation};
  mcast::MulticastRouter mcast{simulation, network};
  transport::DemuxRegistry demuxes{network};

  const auto source = network.add_node("source");
  const auto core = network.add_node("core");
  network.add_duplex_link(source, core, tsim::units::BitsPerSec{45e6}, Time::milliseconds(50), 100);

  struct Domain {
    net::NodeId router{};
    std::vector<net::NodeId> receivers;
    std::unique_ptr<topo::DiscoveryService> discovery;
    std::unique_ptr<control::ControllerAgent> controller;
    int optimal{};
  };
  std::vector<Domain> domains(2);
  const double domain_bps[2] = {768e3, 1.5e6};

  mcast.set_session_source(0, source);
  traffic::LayeredSource::Config scfg;
  scfg.session = 0;
  scfg.node = source;
  scfg.model = traffic::TrafficModel::kCbr;
  traffic::LayeredSource video{simulation, network, scfg};

  std::vector<std::unique_ptr<transport::ReceiverEndpoint>> endpoints;
  std::vector<std::unique_ptr<control::ReceiverAgent>> agents;
  std::vector<metrics::SubscriptionTimeline> timelines;
  core::Params params;

  for (int d = 0; d < 2; ++d) {
    Domain& domain = domains[d];
    domain.router = network.add_node("d" + std::to_string(d + 1));
    network.add_duplex_link(core, domain.router, tsim::units::BitsPerSec{domain_bps[d]}, Time::milliseconds(100), 50);
    domain.optimal = params.layers.max_layers_for_bandwidth(tsim::units::BitsPerSec{domain_bps[d]});
    for (int i = 0; i < 2; ++i) {
      const auto rcv = network.add_node("d" + std::to_string(d + 1) + "_r" + std::to_string(i));
      network.add_duplex_link(domain.router, rcv, tsim::units::BitsPerSec{10e6}, Time::milliseconds(20), 50);
      domain.receivers.push_back(rcv);
    }
  }
  network.compute_routes();

  for (int d = 0; d < 2; ++d) {
    Domain& domain = domains[d];

    // Domain-scoped discovery: this controller sees only its subtree.
    topo::DiscoveryService::Config dcfg;
    dcfg.domain_root = domain.router;
    dcfg.domain_nodes.insert(domain.router);
    for (const auto rcv : domain.receivers) dcfg.domain_nodes.insert(rcv);
    domain.discovery =
        std::make_unique<topo::DiscoveryService>(simulation, mcast, dcfg);

    control::ControllerAgent::Config ccfg;
    ccfg.node = domain.router;  // the controller lives on the border router
    domain.controller = std::make_unique<control::ControllerAgent>(
        simulation, network, *domain.discovery, demuxes.at(domain.router), ccfg);

    for (const auto rcv : domain.receivers) {
      transport::ReceiverEndpoint::Config ecfg;
      ecfg.node = rcv;
      ecfg.session = 0;
      ecfg.controller = domain.router;
      ecfg.report_period = ccfg.params.interval;
      endpoints.push_back(std::make_unique<transport::ReceiverEndpoint>(
          simulation, network, mcast, demuxes.at(rcv), ecfg));
      agents.push_back(std::make_unique<control::ReceiverAgent>(
          simulation, *endpoints.back(), ccfg.params.interval));
      domain.controller->register_receiver(0, rcv);
      timelines.emplace_back(Time::zero(), 0);
      const std::size_t slot = timelines.size() - 1;
      endpoints.back()->on_subscription_change(
          [&timelines, slot](Time when, int, int level) {
            timelines[slot].record(when, level);
          });
    }
    domain.discovery->start();
    domain.controller->start();
  }

  video.start();
  for (auto& e : endpoints) e->start();
  for (auto& a : agents) a->start();

  std::printf("two independent domain controllers, one session\n\n");
  simulation.run_until(Time::seconds(240));

  // Time-averaged level over the settled tail beats an instantaneous
  // snapshot (a receiver may be mid-probe at the horizon).
  auto mean_level = [&](std::size_t slot) {
    return timelines[slot].mean_level(Time::seconds(120), Time::seconds(240));
  };
  std::printf("%-8s %10s %12s %12s %16s\n", "domain", "optimal", "mean(rcv0)", "mean(rcv1)",
              "controller runs");
  std::size_t e = 0;
  for (int d = 0; d < 2; ++d) {
    std::printf("d%-7d %10d %12.2f %12.2f %16llu\n", d + 1, domains[d].optimal,
                mean_level(e), mean_level(e + 1),
                static_cast<unsigned long long>(domains[d].controller->intervals_run()));
    e += 2;
  }
  std::printf(
      "\neach controller converges its own domain to that domain's bottleneck\n"
      "optimum; neither ever saw the other's subtree (Fig 3 scalability).\n");
  return 0;
}
