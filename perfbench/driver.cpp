// perfbench_driver: builds and runs one benchmark workload once in this
// process and prints what it measured as one JSON object on stdout.
//
//   perfbench_driver --workload <name> --seed <n> [--trace] [--small]
//
// Untraced, the simulation runs from time 0 to the horizon in one call, and
// the driver reports set-up time, run time, peak RSS, the paper's fidelity
// metrics and a fingerprint of the observable outcome. With --trace it also
// times calls into each layer from outside, through public seams only
// (decorated multicast forwarder, wrapped local sinks, marker events around
// controller intervals and fluid steps, a replayed core::TopoSense), and
// reports the per-layer counts and times under "layers". --small shrinks the
// workload for the self-test.
//
// perfbench/run.py drives this binary; see perfbench/README.md.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "control/controller_agent.hpp"
#include "core/toposense.hpp"
#include "net/network.hpp"
#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"
#include "traffic/fluid_engine.hpp"

namespace {

using tsim::sim::Time;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// --- Workloads --------------------------------------------------------------

enum class Topology { kStar, kTiered };

struct Workload {
  const char* name;
  Topology topology;
  tsim::scenarios::TrafficEngine engine;
  int receivers;  ///< star size; tiered size comes from `tiered`
  tsim::scenarios::TieredOptions tiered;
  int initial_subscription;
  Time horizon;
};

tsim::scenarios::TieredOptions tiered_shape(int regionals, int locals, int receivers) {
  tsim::scenarios::TieredOptions t;
  t.regionals = regionals;
  t.locals_per_regional = locals;
  t.receivers_per_local = receivers;
  return t;
}

/// The benchmark's workloads at full size, and at the reduced size the
/// self-test runs. Every run is one fixed simulated experiment (no arrival
/// process); only the seed varies between experiments.
std::vector<Workload> workloads(bool small) {
  using tsim::scenarios::TrafficEngine;
  const Time star_horizon = Time::seconds(std::int64_t{5});
  return {
      {"star_packet_10k", Topology::kStar, TrafficEngine::kPacket, small ? 500 : 10'000, {}, 5,
       star_horizon},
      {"star_fluid_100k", Topology::kStar, TrafficEngine::kFluid, small ? 2'000 : 100'000, {},
       5, star_horizon},
      {"tiered_1k", Topology::kTiered, TrafficEngine::kPacket, 0,
       small ? tiered_shape(2, 2, 5) : tiered_shape(8, 5, 25), 1,
       Time::seconds(std::int64_t{small ? 10 : 30})},
  };
}

std::size_t receiver_count(const Workload& w) {
  if (w.topology == Topology::kStar) return static_cast<std::size_t>(w.receivers);
  return static_cast<std::size_t>(w.tiered.regionals * w.tiered.locals_per_regional *
                                  w.tiered.receivers_per_local);
}

std::unique_ptr<tsim::scenarios::Scenario> build(const Workload& w, std::uint64_t seed) {
  tsim::scenarios::ScenarioConfig config;
  config.seed = seed;
  config.duration = w.horizon;
  config.traffic.engine = w.engine;
  config.control.initial_subscription = w.initial_subscription;
  tsim::scenarios::ScenarioBuilder builder{config};
  if (w.topology == Topology::kStar) {
    tsim::scenarios::StarOptions star;
    star.receivers = w.receivers;
    builder.star(star);
  } else {
    builder.tiered(w.tiered);
  }
  return builder.build();
}

/// --- Outcome: fingerprint, fidelity metrics, output checks -----------------

class Fnv {
 public:
  void mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ULL;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{14695981039346656037ULL};
};

/// Folds every receiver's subscription timeline and every endpoint's
/// delivered, lost and byte totals, as bench_runner's star_fluid_fingerprint
/// does: equal seeds must give equal fingerprints, traced or not.
std::uint64_t fingerprint(tsim::scenarios::Scenario& s) {
  Fnv h;
  for (const auto& r : s.results()) {
    h.mix(r.node);
    h.mix(static_cast<std::uint64_t>(r.final_subscription));
    for (const auto& [t, level] : r.timeline.points()) {
      h.mix(static_cast<std::uint64_t>(t.as_nanoseconds()));
      h.mix(static_cast<std::uint64_t>(level));
    }
  }
  for (const auto& endpoint : s.endpoints()) {
    h.mix(endpoint->total_packets().count());
    h.mix(endpoint->total_lost_packets().count());
    h.mix(endpoint->total_bytes().count());
  }
  return h.value();
}

struct Fidelity {
  double rel_dev{0.0};
  double changes_per_rcv_min{0.0};
  double loss_pct{0.0};
};

/// The paper's measures over the whole run, averaged over receivers:
/// relative deviation from the optimal subscription, subscription changes
/// per receiver per simulated minute, and lifetime loss.
Fidelity fidelity(const tsim::scenarios::Scenario& s, const Workload& w) {
  Fidelity f;
  const auto& results = s.results();
  double changes = 0.0;
  for (const auto& r : results) {
    f.rel_dev += r.timeline.relative_deviation(r.optimal, Time::zero(), w.horizon);
    changes += r.timeline.change_count(Time::zero(), w.horizon);
    f.loss_pct += r.loss_overall;
  }
  const auto n = static_cast<double>(results.size());
  const double minutes = w.horizon.as_seconds() / 60.0;
  f.rel_dev /= n;
  f.changes_per_rcv_min = changes / n / minutes;
  f.loss_pct = 100.0 * f.loss_pct / n;
  return f;
}

/// Output checks that hold for any correct run; each failure is reported by
/// name and makes the run count as failed.
std::vector<std::string> check_outputs(tsim::scenarios::Scenario& s, const Workload& w,
                                       const Fidelity& f) {
  std::vector<std::string> failures;
  if (s.results().size() != receiver_count(w)) failures.emplace_back("receiver_count");
  if (s.simulation().now() != w.horizon) failures.emplace_back("horizon_reached");
  for (const auto& r : s.results()) {
    if (!(r.loss_overall >= 0.0 && r.loss_overall <= 1.0)) {
      failures.emplace_back("loss_in_unit_range");
      break;
    }
  }
  if (!std::isfinite(f.rel_dev) || !std::isfinite(f.changes_per_rcv_min) ||
      !std::isfinite(f.loss_pct)) {
    failures.emplace_back("fidelity_finite");
  }
  // Per-link packet conservation: every packet offered to a link was
  // delivered, dropped, or is still queued or on the transmitter.
  const tsim::net::Network& net = s.network();
  for (tsim::net::LinkId id = 0; id < net.link_count(); ++id) {
    const tsim::net::LinkHot& hot = net.link_hot(id);
    const std::uint64_t on_wire = (hot.flags & tsim::net::LinkHot::kTransmitting) != 0 ? 1 : 0;
    if (hot.enqueued_packets !=
        hot.delivered_packets + hot.dropped_packets + hot.queue_len + on_wire) {
      failures.emplace_back("link_conservation");
      break;
    }
  }
  return failures;
}

/// --- Tracing: spans timed around calls into each layer ----------------------

/// steady_clock::now() cost, subtracted from every timed call.
double clock_overhead_s() {
  std::vector<double> samples(2001);
  for (double& v : samples) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    v = seconds_between(a, b);
  }
  std::nth_element(samples.begin(), samples.begin() + 1000, samples.end());
  return samples[1000];
}

/// Calls into one layer: every call is counted, one call in kSampleEvery is
/// timed (timing all of them costs more than the calls themselves on the
/// packet datapath). The layer's time is the sampled mean times the count.
struct CallSpan {
  static constexpr std::uint64_t kSampleEvery = 16;
  static inline double clock_overhead = 0.0;

  std::uint64_t calls{0};
  std::uint64_t timed{0};
  double timed_s{0.0};

  template <class F>
  void measure(F&& call) {
    if (calls++ % kSampleEvery != 0) {
      call();
      return;
    }
    const auto start = Clock::now();
    call();
    timed_s += seconds_between(start, Clock::now()) - clock_overhead;
    ++timed;
  }
  [[nodiscard]] double mean_s() const { return timed == 0 ? 0.0 : timed_s / timed; }
  [[nodiscard]] double total_s() const { return mean_s() * static_cast<double>(calls); }
};

/// Decorates the installed multicast forwarder: times route(), counts the
/// links it fans out to, and passes topology changes through.
class TimedForwarder final : public tsim::net::MulticastForwarder {
 public:
  explicit TimedForwarder(tsim::net::MulticastForwarder& inner) : inner_{inner} {}

  void route(tsim::net::NodeId node, const tsim::net::Packet& packet,
             std::vector<tsim::net::LinkId>& out_links, bool& deliver_locally) override {
    const std::size_t before = out_links.size();
    span.measure([&] { inner_.route(node, packet, out_links, deliver_locally); });
    fanout += out_links.size() - before;
  }
  void on_topology_change() override { inner_.on_topology_change(); }

  CallSpan span;
  std::uint64_t fanout{0};

 private:
  tsim::net::MulticastForwarder& inner_;
};

/// Spans opened by a marker event and closed by a later callback, e.g. a
/// controller interval (marker .. audit hook) or a fluid step (marker ..
/// closing marker).
struct MarkedSpan {
  std::uint64_t timed{0};
  double timed_s{0.0};
  bool open{false};
  Clock::time_point start{};

  void begin() {
    open = true;
    start = Clock::now();
  }
  bool end() {
    if (!open) return false;
    timed_s += seconds_between(start, Clock::now());
    ++timed;
    open = false;
    return true;
  }
  [[nodiscard]] double mean_s() const { return timed == 0 ? 0.0 : timed_s / timed; }
};

/// Everything the traced run installs and counts. Lives as long as the
/// scenario's events can call into it.
struct Tracer {
  std::unique_ptr<TimedForwarder> forwarder;
  CallSpan deliver;  ///< local sinks of every node but the controller's
  CallSpan report;   ///< the controller node's local sink
  MarkedSpan interval;
  std::uint64_t interval_calls{0};
  std::unique_ptr<tsim::core::TopoSense> replay;  ///< fresh instance, same inputs
  double core_s{0.0};
  double core_s_in_timed_intervals{0.0};
  MarkedSpan fluid;
  std::uint64_t markers{0};  ///< the tracer's own events, excluded from sim.events

  /// Chains one marker per step: each marker at `when` schedules the next at
  /// `when + step`, so it is always enqueued before (open chain) or after
  /// (close chain) the engine's own step event of that time, which the
  /// engine schedules one step ahead while it runs.
  void chain(tsim::sim::Simulation& sim, Time when, Time step, bool opens) {
    sim.at(when, [this, &sim, when, step, opens] {
      ++markers;
      if (opens) {
        fluid.begin();
      } else {
        fluid.end();
      }
      chain(sim, when + step, step, opens);
    });
  }

  void install(tsim::scenarios::Scenario& s) {
    tsim::net::Network& net = s.network();
    forwarder = std::make_unique<TimedForwarder>(s.multicast());
    net.set_multicast_forwarder(forwarder.get());

    tsim::control::ControllerAgent* agent = s.controller();
    const tsim::net::NodeId controller_node =
        agent != nullptr ? agent->config().node : tsim::net::kInvalidNode;
    for (tsim::net::NodeId id = 0; id < net.node_count(); ++id) {
      std::function<void(const tsim::net::PacketRef&)> inner = net.node(id).local_sink;
      if (!inner) continue;
      CallSpan& span = id == controller_node ? report : deliver;
      net.set_local_sink(id, [inner = std::move(inner), &span](const tsim::net::PacketRef& p) {
        span.measure([&] { inner(p); });
      });
    }

    if (agent != nullptr) {
      // A fresh TopoSense with the agent's parameters and RNG stream replays
      // each captured input. A copy of agent->algorithm() would not do: its
      // cached trees point into the original's per-node memory.
      replay = std::make_unique<tsim::core::TopoSense>(
          agent->config().params, s.simulation().rng_stream("controller"));
      tsim::sim::Simulation& sim = s.simulation();
      const Time period = agent->config().params.interval;
      // The hook runs inside the agent's interval, after the algorithm and
      // before the suggestions go out. The marker it schedules is enqueued
      // before the agent's next interval event of the same time, so it runs
      // first and opens that interval's span.
      agent->set_audit_hook([this, &sim, period](const tsim::core::AlgorithmInput& input,
                                                 const tsim::core::AlgorithmOutput&) {
        const bool timed = interval.end();
        ++interval_calls;
        const auto start = Clock::now();
        (void)replay->run_interval(input, sim.now());
        const double took = seconds_between(start, Clock::now());
        core_s += took;
        if (timed) core_s_in_timed_intervals += took;
        sim.after(period, [this] {
          ++markers;
          interval.begin();
        });
      });
    }

    if (tsim::traffic::FluidEngine* engine = s.fluid_engine()) {
      // The engine's first step is already enqueued (at one step), so that
      // step is not timed: closing markers start there, opening ones a step
      // later.
      const Time step = engine->config().step;
      chain(s.simulation(), step, step, false);
      chain(s.simulation(), step + step, step, true);
    }
  }
};

/// --- Measurement -------------------------------------------------------------

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

double heap_in_use_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

class JsonObject {
 public:
  /// Non-finite values print as NaN, which Python's json reads, so the
  /// benchmark's finiteness checks see them.
  void add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", value);
    items_.emplace_back(key, std::isfinite(value) ? buf : "NaN");
  }
  void add_raw(const std::string& key, const std::string& json) { items_.emplace_back(key, json); }
  void add_string(const std::string& key, const std::string& value) {
    items_.emplace_back(key, "\"" + value + "\"");
  }
  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i != 0) out += ", ";
      out += "\"" + items_[i].first + "\": " + items_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

std::string run(const Workload& w, std::uint64_t seed, bool trace) {
  const auto setup_start = Clock::now();
  std::unique_ptr<tsim::scenarios::Scenario> scenario = build(w, seed);
  const double setup_s = seconds_between(setup_start, Clock::now());

  Tracer tracer;
  std::uint64_t pending_peak = 0;
  double heap_growth = 0.0;
  double run_s = 0.0;
  if (!trace) {
    const auto start = Clock::now();
    scenario->run_until(w.horizon);
    run_s = seconds_between(start, Clock::now());
  } else {
    CallSpan::clock_overhead = clock_overhead_s();
    tracer.install(*scenario);
    // Slices let the driver sample the scheduler and the heap between them;
    // only the last goes through Scenario::run_until, which refreshes the
    // per-receiver results once.
    constexpr int kSlices = 50;
    double heap_mid = 0.0;
    double wall = 0.0;
    for (int k = 1; k <= kSlices; ++k) {
      const Time until = Time::nanoseconds(w.horizon.as_nanoseconds() * k / kSlices);
      const auto start = Clock::now();
      if (k < kSlices) {
        scenario->simulation().run_until(until);
      } else {
        scenario->run_until(until);
      }
      wall += seconds_between(start, Clock::now());
      pending_peak = std::max<std::uint64_t>(pending_peak,
                                             scenario->simulation().scheduler().pending_events());
      if (k == kSlices / 2) heap_mid = heap_in_use_mb();
    }
    heap_growth = (heap_in_use_mb() - heap_mid) / (w.horizon.as_seconds() / 2.0);
    run_s = wall;
  }

  const Fidelity f = fidelity(*scenario, w);
  std::vector<std::string> failures = check_outputs(*scenario, w, f);
  const std::uint64_t events =
      scenario->simulation().scheduler().executed_events() - tracer.markers;

  JsonObject out;
  out.add_string("workload", w.name);
  out.add_raw("seed", std::to_string(seed));
  out.add_raw("traced", trace ? "true" : "false");
  out.add("setup_s", setup_s);
  out.add("run_s", run_s);
  out.add("peak_rss_mb", peak_rss_mb());
  out.add("rel_dev", f.rel_dev);
  out.add("changes_per_rcv_min", f.changes_per_rcv_min);
  out.add("loss_pct", f.loss_pct);
  out.add("events", static_cast<double>(events));
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(fingerprint(*scenario)));
  out.add_string("fingerprint", fp);

  if (trace) {
    const tsim::net::Network& net = scenario->network();
    double enqueued = 0.0;
    double dropped = 0.0;
    for (tsim::net::LinkId id = 0; id < net.link_count(); ++id) {
      enqueued += static_cast<double>(net.link_hot(id).enqueued_packets);
      dropped += static_cast<double>(net.link_hot(id).dropped_packets);
    }
    const CallSpan& route = tracer.forwarder->span;
    const double interval_mean = tracer.interval.mean_s();
    const double interval_total = interval_mean * static_cast<double>(tracer.interval_calls);
    tsim::traffic::FluidEngine* engine = scenario->fluid_engine();
    const double fluid_total =
        engine != nullptr ? tracer.fluid.mean_s() * static_cast<double>(engine->steps_executed())
                          : 0.0;
    // Wall time no timed span covers: the scheduler, links, sources, timers
    // and everything else the simulation does between the layer calls. The
    // replayed core run is the tracer's own work and is taken out too.
    const double self_s = run_s - route.total_s() - tracer.deliver.total_s() -
                          tracer.report.total_s() - interval_total - fluid_total - tracer.core_s;
    const auto per = [](double total, double count) { return count > 0 ? total / count : 0.0; };
    const tsim::control::ControllerAgent* agent = scenario->controller();

    JsonObject layers;
    layers.add("sim.events", static_cast<double>(events));
    layers.add("sim.pending_peak", static_cast<double>(pending_peak));
    layers.add("sim.heap_growth_mb_per_sim_s", heap_growth);
    layers.add("sim.self_ns_per_event", per(self_s * 1e9, static_cast<double>(events)));
    layers.add("net.pkts_enqueued", enqueued);
    layers.add("net.drop_frac", per(dropped, enqueued));
    layers.add("mcast.route.calls", static_cast<double>(route.calls));
    layers.add("mcast.route.ns_per_call", route.mean_s() * 1e9);
    layers.add("mcast.route.fanout", per(static_cast<double>(tracer.forwarder->fanout),
                                         static_cast<double>(route.calls)));
    layers.add("mcast.route.s", route.total_s());
    layers.add("transport.deliver.calls", static_cast<double>(tracer.deliver.calls));
    layers.add("transport.deliver.ns_per_call", tracer.deliver.mean_s() * 1e9);
    layers.add("transport.deliver.s", tracer.deliver.total_s());
    layers.add("control.report.calls", static_cast<double>(tracer.report.calls));
    layers.add("control.report.ns_per_call", tracer.report.mean_s() * 1e9);
    layers.add("control.interval.calls", static_cast<double>(tracer.interval_calls));
    layers.add("control.interval.s_mean", interval_mean);
    layers.add("control.interval.s", interval_total);
    layers.add("control.suggestions",
               agent != nullptr ? static_cast<double>(agent->suggestions_sent()) : 0.0);
    layers.add("core.run_interval.s_mean",
               per(tracer.core_s, static_cast<double>(tracer.interval_calls)));
    layers.add("core.share_of_interval",
               per(tracer.core_s_in_timed_intervals, tracer.interval.timed_s));
    layers.add("traffic.fluid.steps",
               engine != nullptr ? static_cast<double>(engine->steps_executed()) : 0.0);
    layers.add("traffic.fluid.self_us_per_step", tracer.fluid.mean_s() * 1e6);
    out.add_raw("layers", layers.str());
  }

  std::string failed = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    failed += (i == 0 ? "\"" : ", \"") + failures[i] + "\"";
  }
  out.add_raw("check_failures", failed + "]");
  // Tearing down a 100k-receiver scenario takes longer than some of the
  // measurements; the process exits right after printing, so it is skipped.
  (void)scenario.release();
  return out.str();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload <name> --seed <n> [--trace] [--small]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool trace = false;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--small") {
      small = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  const std::vector<Workload> all = workloads(small);
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Workload& w) { return name == w.name; });
  if (it == all.end()) usage(("unknown workload '" + name + "'").c_str());

  try {
    const std::string json = run(*it, seed, trace);
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s failed: %s\n", it->name, e.what());
    return 1;
  }
  return 0;
}
