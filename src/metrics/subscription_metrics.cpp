#include "metrics/subscription_metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tsim::metrics {

SubscriptionTimeline::SubscriptionTimeline(sim::Time start, int initial) {
  points_.emplace_back(start, initial);
}

void SubscriptionTimeline::record(sim::Time when, int level) {
  if (when < points_.back().first) {
    throw std::invalid_argument("SubscriptionTimeline::record: time went backwards");
  }
  if (points_.back().second == level) return;
  points_.emplace_back(when, level);
}

int SubscriptionTimeline::level_at(sim::Time when) const {
  int level = points_.front().second;
  for (const auto& [t, l] : points_) {
    if (t > when) break;
    level = l;
  }
  return level;
}

double SubscriptionTimeline::relative_deviation(int optimal, sim::Time from,
                                                sim::Time to) const {
  if (to <= from || optimal <= 0) return 0.0;
  double abs_weighted = 0.0;
  double opt_weighted = 0.0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const sim::Time seg_start = std::max(points_[i].first, from);
    const sim::Time seg_end =
        std::min(i + 1 < points_.size() ? points_[i + 1].first : to, to);
    if (seg_end <= seg_start) continue;
    const double dt = (seg_end - seg_start).as_seconds();
    abs_weighted += std::abs(points_[i].second - optimal) * dt;
    opt_weighted += optimal * dt;
  }
  return opt_weighted > 0.0 ? abs_weighted / opt_weighted : 0.0;
}

int SubscriptionTimeline::change_count(sim::Time from, sim::Time to) const {
  int count = 0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].first >= from && points_[i].first <= to) ++count;
  }
  return count;
}

double SubscriptionTimeline::mean_time_between_changes_s(sim::Time from, sim::Time to) const {
  std::vector<sim::Time> changes;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (points_[i].first >= from && points_[i].first <= to) changes.push_back(points_[i].first);
  }
  if (changes.size() < 2) return (to - from).as_seconds();
  double total = 0.0;
  for (std::size_t i = 1; i < changes.size(); ++i) {
    total += (changes[i] - changes[i - 1]).as_seconds();
  }
  return total / static_cast<double>(changes.size() - 1);
}

double SubscriptionTimeline::time_at_level_fraction(int level, sim::Time from,
                                                    sim::Time to) const {
  if (to <= from) return 0.0;
  double at_level = 0.0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const sim::Time seg_start = std::max(points_[i].first, from);
    const sim::Time seg_end =
        std::min(i + 1 < points_.size() ? points_[i + 1].first : to, to);
    if (seg_end <= seg_start) continue;
    if (points_[i].second == level) at_level += (seg_end - seg_start).as_seconds();
  }
  return at_level / (to - from).as_seconds();
}

double SubscriptionTimeline::mean_level(sim::Time from, sim::Time to) const {
  int max_level = 0;
  for (const auto& point : points_) max_level = std::max(max_level, point.second);
  double mean = 0.0;
  for (int level = 0; level <= max_level; ++level) {
    mean += level * time_at_level_fraction(level, from, to);
  }
  return mean;
}

}  // namespace tsim::metrics
