#pragma once

// Shared plumbing for the figure and ablation experiments: run-length
// control, traffic-model iteration, the per-run reductions most rows print,
// and row printing that matches the paper's series.

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "scenarios/scenario.hpp"
#include "scenarios/scenario_builder.hpp"
#include "scenarios/topology_file.hpp"

namespace bench {

/// True when TOPOSENSE_BENCH_QUICK=1: shorter runs and sparser sweeps so the
/// whole bench suite smoke-tests in seconds.
bool quick_mode();

/// Simulated duration: the paper's 1200 s, or 200 s in quick mode.
tsim::sim::Time run_duration();

struct TrafficCase {
  const char* label;
  tsim::traffic::TrafficModel model;
  double peak_to_mean;
};

/// The paper's three traffic models: CBR, VBR(P=3), VBR(P=6).
const std::vector<TrafficCase>& traffic_cases();

/// Applies a traffic case to a scenario config.
void apply(const TrafficCase& tc, tsim::scenarios::ScenarioConfig& config);

/// Prints a standard bench header naming the figure being reproduced.
void print_header(const std::string& figure, const std::string& description);

/// Averages over a finished run's receivers.
struct RunSummary {
  double deviation;  ///< mean relative deviation over [from, to]
  int changes;       ///< subscription changes over [0, to], summed over receivers
  double loss_pct;   ///< mean overall loss, in percent
};
RunSummary summarize(const tsim::scenarios::Scenario& scenario, tsim::sim::Time from,
                     tsim::sim::Time to);

/// The least stable receiver over [0, to] (Figs 6 and 7): the most changes
/// any receiver made, and the mean time between that receiver's changes (the
/// whole span when no receiver changed).
struct Stability {
  int max_changes;
  double gap_of_max_s;
};
Stability least_stable(const tsim::scenarios::Scenario& scenario, tsim::sim::Time to);

/// Runs the scenario, calling `probe` once per simulated second from 1 s on.
void run_probed(tsim::scenarios::Scenario& scenario, const std::function<void()>& probe);

/// Parses a topology description an experiment generated itself. A parse
/// error is a bug in that experiment: it is printed and the process exits 1.
tsim::scenarios::TopologyDescription parse_topology_or_die(std::string_view text);

}  // namespace bench
