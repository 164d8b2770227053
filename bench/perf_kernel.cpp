// Performance microbenchmarks (google-benchmark): the event kernel (including
// a drifting 10k-wide fan-out burst), the packet forwarding path, the
// TopoSense algorithm's scaling with tree size, the two per-layer costs of a
// 100k-receiver fluid closed loop (one controller interval, one fluid step),
// and one multicast tree rebuild.
// These guard the simulator's throughput — the figure benches run hundreds of
// simulated minutes and depend on it.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "control/controller_agent.hpp"
#include "core/toposense.hpp"
#include "mcast/multicast_router.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"
#include "sim/simulation.hpp"
#include "topo/provider.hpp"
#include "transport/demux.hpp"

namespace {

using namespace tsim;
using sim::Time;

void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    std::int64_t fired = 0;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sched.schedule_at(Time::microseconds(i), [&fired] { ++fired; });
    }
    sched.run_until(Time::seconds(std::int64_t{10}));
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerChurn)->Arg(1000)->Arg(100000);

void BM_SelfRescheduling(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    std::int64_t count = 0;
    std::function<void()> chain = [&] {
      if (++count < state.range(0)) sched.schedule_after(Time::microseconds(1), chain);
    };
    sched.schedule_at(Time::zero(), chain);
    sched.run_until(Time::seconds(std::int64_t{100}));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelfRescheduling)->Arg(100000);

void BM_SchedulerFanoutBurst(benchmark::State& state) {
  // The packet star's load shape: each iteration is one `range`-wide fan-out
  // burst whose deliveries cluster, tie and arrive out of order within
  // ~10 us, a quarter of them scheduling a follow-up 50-60 us later. One
  // scheduler lives across iterations, and the 1.23 ms burst period is
  // incommensurate with any bucket width, so the bursts drift across buckets
  // and windows. Items are executed events.
  const auto fanout = static_cast<std::uint32_t>(state.range(0));
  const Time period = Time::nanoseconds(1'234'567);
  sim::Scheduler sched;
  std::uint64_t follow_ups = 0;
  Time now = Time::zero();
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < fanout; ++i) {
      const auto offset = static_cast<std::int64_t>(1'000 + (i * 7919u) % 9973u);
      sched.schedule_at(now + Time::nanoseconds(offset), [&sched, &follow_ups, i] {
        if (i % 4 != 0) return;
        sched.schedule_after(Time::nanoseconds(50'000 + static_cast<std::int64_t>(i)),
                             [&follow_ups] { ++follow_ups; });
      });
    }
    now += period;
    sched.run_until(now);
  }
  benchmark::DoNotOptimize(follow_ups);
  state.SetItemsProcessed(static_cast<std::int64_t>(sched.executed_events()));
}
BENCHMARK(BM_SchedulerFanoutBurst)->Arg(10'000);

void BM_ScenarioSimulatedMinute(benchmark::State& state) {
  // End-to-end: one simulated minute of Topology B with `range` sessions.
  for (auto _ : state) {
    scenarios::ScenarioConfig config;
    config.seed = 1;
    config.duration = Time::seconds(std::int64_t{60});
    scenarios::TopologyBOptions topology;
    topology.sessions = static_cast<int>(state.range(0));
    auto scenario = scenarios::ScenarioBuilder(config).topology_b(topology).build();
    scenario->run();
    benchmark::DoNotOptimize(scenario->results().size());
  }
}
BENCHMARK(BM_ScenarioSimulatedMinute)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

core::AlgorithmInput fat_tree_input(int receivers) {
  core::AlgorithmInput in;
  in.window = Time::seconds(std::int64_t{1});
  core::SessionInput s;
  s.session = 0;
  s.source = 1;
  core::SessionNodeInput root;
  root.node = 1;
  root.parent = net::kInvalidNode;
  s.nodes.push_back(root);
  // Two-level tree: 16 routers, receivers spread below.
  for (int r = 0; r < 16; ++r) {
    core::SessionNodeInput router;
    router.node = static_cast<net::NodeId>(10 + r);
    router.parent = 1;
    s.nodes.push_back(router);
  }
  for (int i = 0; i < receivers; ++i) {
    core::SessionNodeInput rcv;
    rcv.node = static_cast<net::NodeId>(1000 + i);
    rcv.parent = static_cast<net::NodeId>(10 + (i % 16));
    rcv.is_receiver = true;
    rcv.loss_rate = tsim::units::LossFraction{(i % 7 == 0) ? 0.1 : 0.0};
    rcv.bytes_received = tsim::units::Bytes{28'000};
    rcv.subscription = 3;
    s.nodes.push_back(rcv);
  }
  in.sessions.push_back(s);
  return in;
}

void BM_TopoSenseInterval(benchmark::State& state) {
  core::Params params;
  core::TopoSense algo{params, sim::Rng{1}};
  const core::AlgorithmInput input = fat_tree_input(static_cast<int>(state.range(0)));
  Time t = Time::seconds(std::int64_t{1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo.run_interval(input, t));
    t += Time::seconds(std::int64_t{1});
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TopoSenseInterval)->Arg(16)->Arg(256)->Arg(4096);

/// Discovery stand-in serving one fixed snapshot for session 0.
class FixedSnapshot final : public topo::TopologyProvider {
 public:
  explicit FixedSnapshot(topo::TopologySnapshot snap) : snap_{std::move(snap)} {}
  void track_session(net::SessionId /*session*/, net::LayerId /*max_layer*/) override {}
  void start() override {}
  [[nodiscard]] const topo::TopologySnapshot* snapshot(net::SessionId session) const override {
    return session == snap_.session ? &snap_ : nullptr;
  }

 private:
  topo::TopologySnapshot snap_;
};

void BM_ControllerInterval(benchmark::State& state) {
  // One ControllerAgent interval over a `range`-receiver star: algorithm
  // input assembly from the snapshot and the report history, then
  // TopoSense::run_interval and the suggestion fan-out. Suggestions are
  // dropped at the unicast filter, so no packet events follow. The star, the
  // registrations and each interval's fresh reports are set up untimed.
  const auto receivers = static_cast<net::NodeId>(state.range(0));
  sim::Simulation simulation{1};
  net::Network network{simulation};
  const net::NodeId hub = network.add_node("hub");
  topo::TopologySnapshot snap;
  snap.source = hub;
  for (net::NodeId i = 0; i < receivers; ++i) {
    const net::NodeId leaf = network.add_node("r" + std::to_string(i));
    network.add_duplex_link(hub, leaf, units::BitsPerSec{1.2e6}, Time::milliseconds(20), 30);
    snap.edges.emplace_back(hub, leaf);
    snap.receivers.push_back(leaf);
  }
  network.add_routing_sink(hub);
  network.compute_routes();
  network.set_unicast_filter([](const net::Packet&) { return false; });
  transport::DemuxRegistry demuxes{network};
  FixedSnapshot discovery{std::move(snap)};

  control::ControllerAgent::Config cfg;
  cfg.node = hub;
  cfg.start = cfg.params.interval;
  control::ControllerAgent controller{simulation, network, discovery, demuxes.at(hub), cfg};
  const std::vector<net::NodeId>& leaves = discovery.snapshot(0)->receivers;
  for (const net::NodeId leaf : leaves) controller.register_receiver(0, leaf);
  controller.start();

  const transport::PacketDemux& demux = demuxes.at(hub);
  const Time interval = cfg.params.interval;
  Time next = cfg.start;
  for (auto _ : state) {
    state.PauseTiming();
    for (const net::NodeId leaf : leaves) {
      net::Packet packet;
      packet.kind = net::PacketKind::kReport;
      packet.src = leaf;
      packet.dst = hub;
      packet.control =
          net::ReceiverReport{.receiver = leaf,
                              .subscription = 3,
                              .loss_rate = units::LossFraction{(leaf % 7 == 0) ? 0.1 : 0.0},
                              .bytes_received = units::Bytes{28'000},
                              .received_packets = units::PacketCount{56},
                              .window_start = next - interval,
                              .window_end = next};
      demux.dispatch(net::PacketRef::make(std::move(packet)));
    }
    state.ResumeTiming();
    simulation.run_until(next);
    benchmark::DoNotOptimize(controller.last_output().prescriptions.size());
    next += interval;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ControllerInterval)->Arg(30'000)->Arg(100'000)->Unit(benchmark::kMillisecond);

void BM_FluidStep(benchmark::State& state) {
  // One fluid integration step (pass A, the per-link queue step, pass B and
  // the member credits) on a `range`-receiver fluid star held at five layers
  // with no controller. Built and warmed up untimed. The member credits are
  // dense accumulator arithmetic: no endpoint is called from the step. The
  // endpoints read their totals when their 1 s report windows close, so one
  // iteration in ten also runs every receiver's window close and its fold,
  // and the cost moved out of the step is still timed here.
  scenarios::ScenarioConfig config;
  config.seed = 1;
  config.traffic.engine = scenarios::TrafficEngine::kFluid;
  config.control.kind = scenarios::ControllerKind::kNone;
  config.control.initial_subscription = 5;
  scenarios::StarOptions star;
  star.receivers = static_cast<int>(state.range(0));
  auto scenario = scenarios::ScenarioBuilder(config).star(star).build();
  Time now = Time::seconds(std::int64_t{1});
  scenario->run_until(now);
  for (auto _ : state) {
    now += config.traffic.fluid_step;
    scenario->run_until(now);
    benchmark::DoNotOptimize(scenario->fluid_engine()->steps_executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FluidStep)->Arg(10'000)->Arg(100'000)->Unit(benchmark::kMillisecond);

void BM_TreeRebuild(benchmark::State& state) {
  // One multicast tree rebuild per iteration: on_topology_change() dirties
  // the group as a link event would, and tree() rebuilds it over every
  // member's path. 1000 receivers is the paper's tiered 8x5x25 tree; 100000
  // is the scale star, one hub fanning out to every receiver.
  sim::Simulation simulation{1};
  net::Network network{simulation};
  mcast::MulticastRouter router{simulation, network};
  const units::BitsPerSec rate{10e6};
  const Time latency = Time::milliseconds(10);
  const net::NodeId source = network.add_node("source");
  const net::NodeId hub = network.add_node("hub");
  network.add_duplex_link(source, hub, rate, latency);
  std::vector<net::NodeId> receivers;
  auto add_child = [&](net::NodeId parent) {
    const net::NodeId child = network.add_node();
    network.add_duplex_link(parent, child, rate, latency);
    return child;
  };
  if (state.range(0) == 1'000) {
    for (int r = 0; r < 8; ++r) {
      const net::NodeId regional = add_child(hub);
      for (int l = 0; l < 5; ++l) {
        const net::NodeId local = add_child(regional);
        for (int i = 0; i < 25; ++i) receivers.push_back(add_child(local));
      }
    }
  } else {
    for (std::int64_t i = 0; i < state.range(0); ++i) receivers.push_back(add_child(hub));
  }
  network.compute_routes();
  router.set_session_source(0, source);
  const net::GroupAddr group{0, 1};
  for (const net::NodeId receiver : receivers) router.join(receiver, group);
  benchmark::DoNotOptimize(router.tree(group));
  for (auto _ : state) {
    router.on_topology_change();
    benchmark::DoNotOptimize(router.tree(group));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(receivers.size()));
}
BENCHMARK(BM_TreeRebuild)->Arg(1'000)->Arg(100'000)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
