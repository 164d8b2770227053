#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace tsim::metrics {

/// Step-function record of a receiver's subscription level over time, plus
/// the two statistics the paper reports from it:
///  * relative deviation from the optimal subscription over an interval
///    (§IV's metric: Σ|x_i(Δt)−y_i|·‖Δt‖ / Σ y_i·‖Δt‖), and
///  * stability (number of changes and mean time between successive changes,
///    Figs 6 and 7).
class SubscriptionTimeline {
 public:
  /// `initial` is the level in force at `start`.
  SubscriptionTimeline(sim::Time start, int initial);

  /// Records a change at `when` to `level`. Times must be non-decreasing.
  void record(sim::Time when, int level);

  /// Level in force at `when`.
  [[nodiscard]] int level_at(sim::Time when) const;

  /// The paper's relative deviation from `optimal` over [from, to].
  [[nodiscard]] double relative_deviation(int optimal, sim::Time from, sim::Time to) const;

  /// Number of changes in [from, to].
  [[nodiscard]] int change_count(sim::Time from, sim::Time to) const;

  /// Mean gap between successive changes in [from, to]. With fewer than two
  /// changes the spell is fully stable and the interval length is returned.
  [[nodiscard]] double mean_time_between_changes_s(sim::Time from, sim::Time to) const;

  /// Fraction of [from, to] spent exactly at `optimal`.
  [[nodiscard]] double time_at_level_fraction(int level, sim::Time from, sim::Time to) const;

  /// Time-averaged level over [from, to]: Σ level · time_at_level_fraction
  /// over levels 0..the highest level recorded.
  [[nodiscard]] double mean_level(sim::Time from, sim::Time to) const;

  [[nodiscard]] const std::vector<std::pair<sim::Time, int>>& points() const { return points_; }

 private:
  std::vector<std::pair<sim::Time, int>> points_;  ///< (time, level), first is start
};

}  // namespace tsim::metrics
