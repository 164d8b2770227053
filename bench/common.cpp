#include "common.hpp"

#include <cstdlib>
#include <utility>

namespace bench {

bool quick_mode() {
  const char* env = std::getenv("TOPOSENSE_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

tsim::sim::Time run_duration() {
  return tsim::sim::Time::seconds(std::int64_t{quick_mode() ? 200 : 1200});
}

const std::vector<TrafficCase>& traffic_cases() {
  static const std::vector<TrafficCase> cases = {
      {"CBR", tsim::traffic::TrafficModel::kCbr, 1.0},
      {"VBR(P=3)", tsim::traffic::TrafficModel::kVbr, 3.0},
      {"VBR(P=6)", tsim::traffic::TrafficModel::kVbr, 6.0},
  };
  return cases;
}

void apply(const TrafficCase& tc, tsim::scenarios::ScenarioConfig& config) {
  config.traffic.model = tc.model;
  config.traffic.peak_to_mean = tc.peak_to_mean;
}

void print_header(const std::string& figure, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("duration: %.0f s%s\n", run_duration().as_seconds(),
              quick_mode() ? " (quick mode)" : "");
  std::printf("==============================================================\n");
}

RunSummary summarize(const tsim::scenarios::Scenario& scenario, tsim::sim::Time from,
                     tsim::sim::Time to) {
  double dev = 0.0;
  int changes = 0;
  double loss = 0.0;
  for (const auto& r : scenario.results()) {
    dev += r.timeline.relative_deviation(r.optimal, from, to);
    changes += r.timeline.change_count(tsim::sim::Time::zero(), to);
    loss += r.loss_overall;
  }
  const double n = static_cast<double>(scenario.results().size());
  return {dev / n, changes, 100.0 * loss / n};
}

Stability least_stable(const tsim::scenarios::Scenario& scenario, tsim::sim::Time to) {
  Stability s{0, to.as_seconds()};
  for (const auto& r : scenario.results()) {
    const int changes = r.timeline.change_count(tsim::sim::Time::zero(), to);
    if (changes > s.max_changes) {
      s.max_changes = changes;
      s.gap_of_max_s = r.timeline.mean_time_between_changes_s(tsim::sim::Time::zero(), to);
    }
  }
  return s;
}

void run_probed(tsim::scenarios::Scenario& scenario, const std::function<void()>& probe) {
  std::function<void()> tick = [&]() {
    probe();
    scenario.simulation().after(tsim::sim::Time::seconds(1), tick);
  };
  scenario.simulation().at(tsim::sim::Time::seconds(1), tick);
  scenario.run();
}

tsim::scenarios::TopologyDescription parse_topology_or_die(std::string_view text) {
  auto parsed = tsim::scenarios::parse_topology(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "internal: %s\n", parsed.error.c_str());
    std::exit(1);
  }
  return std::move(*parsed.description);
}

}  // namespace bench
