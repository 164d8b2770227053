#include "scenarios/scenario_builder.hpp"

#include <stdexcept>
#include <utility>

namespace tsim::scenarios {

void ScenarioBuilder::select(const char* what) {
  if (selected_ != nullptr) {
    throw std::logic_error(std::string{"ScenarioBuilder: topology already selected ("} +
                           selected_ + "), cannot also select " + what);
  }
  selected_ = what;
}

ScenarioBuilder& ScenarioBuilder::topology_a(const TopologyAOptions& options) {
  select("topology_a");
  topo_a_ = options;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::topology_b(const TopologyBOptions& options) {
  select("topology_b");
  topo_b_ = options;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::tiered(const TieredOptions& options) {
  select("tiered");
  tiered_ = options;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::star(const StarOptions& options) {
  select("star");
  star_ = options;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::topology(TopologyDescription description) {
  select("topology(description)");
  description_ = std::move(description);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::topology_file(const std::string& path) {
  select("topology_file");
  description_ = parse_topology_file(path);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::with_faults(const fault::FaultPlan& plan) {
  fault_plans_.push_back(plan);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::with_cross_traffic(const CrossTrafficSpec& spec) {
  cross_traffic_.push_back(spec);
  return *this;
}

std::unique_ptr<Scenario> ScenarioBuilder::build() {
  std::unique_ptr<Scenario> scenario;
  if (topo_a_) {
    scenario = Scenario::build_topology_a(config_, *topo_a_);
  } else if (topo_b_) {
    scenario = Scenario::build_topology_b(config_, *topo_b_);
  } else if (tiered_) {
    scenario = Scenario::build_tiered(config_, *tiered_);
  } else if (star_) {
    scenario = Scenario::build_star(config_, *star_);
  } else if (description_) {
    scenario = Scenario::from_description(config_, *description_);
  } else {
    throw std::logic_error(
        "ScenarioBuilder: no topology selected — call topology_a/topology_b/tiered/star/"
        "topology(...)/topology_file(...) before build()");
  }
  for (const CrossTrafficSpec& spec : cross_traffic_) scenario->add_cross_traffic(spec);
  for (const fault::FaultPlan& plan : fault_plans_) scenario->install_faults(plan);
  return scenario;
}

}  // namespace tsim::scenarios
