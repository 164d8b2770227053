#include "metrics/subscription_metrics.hpp"

#include <gtest/gtest.h>

namespace tsim::metrics {
namespace {

using namespace tsim::sim::time_literals;
using sim::Time;

TEST(TimelineTest, LevelAtFollowsSteps) {
  SubscriptionTimeline tl{Time::zero(), 1};
  tl.record(10_s, 2);
  tl.record(20_s, 3);
  EXPECT_EQ(tl.level_at(Time::zero()), 1);
  EXPECT_EQ(tl.level_at(5_s), 1);
  EXPECT_EQ(tl.level_at(10_s), 2);
  EXPECT_EQ(tl.level_at(15_s), 2);
  EXPECT_EQ(tl.level_at(25_s), 3);
}

TEST(TimelineTest, DuplicateLevelIsNotAChange) {
  SubscriptionTimeline tl{Time::zero(), 2};
  tl.record(5_s, 2);
  EXPECT_EQ(tl.change_count(Time::zero(), 10_s), 0);
}

TEST(TimelineTest, BackwardsTimeThrows) {
  SubscriptionTimeline tl{10_s, 1};
  EXPECT_THROW(tl.record(5_s, 2), std::invalid_argument);
}

TEST(TimelineTest, RelativeDeviationZeroWhenAtOptimal) {
  SubscriptionTimeline tl{Time::zero(), 4};
  EXPECT_DOUBLE_EQ(tl.relative_deviation(4, Time::zero(), 100_s), 0.0);
}

TEST(TimelineTest, RelativeDeviationExactForSteps) {
  // Level 2 for 50 s, then level 4 for 50 s; optimal 4.
  // deviation = (|2-4|*50 + 0*50) / (4*100) = 100/400 = 0.25.
  SubscriptionTimeline tl{Time::zero(), 2};
  tl.record(50_s, 4);
  EXPECT_DOUBLE_EQ(tl.relative_deviation(4, Time::zero(), 100_s), 0.25);
}

TEST(TimelineTest, RelativeDeviationRespectsWindow) {
  SubscriptionTimeline tl{Time::zero(), 2};
  tl.record(50_s, 4);
  // Window covering only the optimal spell.
  EXPECT_DOUBLE_EQ(tl.relative_deviation(4, 50_s, 100_s), 0.0);
  // Window covering only the suboptimal spell.
  EXPECT_DOUBLE_EQ(tl.relative_deviation(4, Time::zero(), 50_s), 0.5);
}

TEST(TimelineTest, OvershootCountsAsDeviationToo) {
  SubscriptionTimeline tl{Time::zero(), 6};
  // |6-4| = 2 over the whole window -> 2/4.
  EXPECT_DOUBLE_EQ(tl.relative_deviation(4, Time::zero(), 10_s), 0.5);
}

TEST(TimelineTest, EmptyWindowIsZero) {
  SubscriptionTimeline tl{Time::zero(), 1};
  EXPECT_DOUBLE_EQ(tl.relative_deviation(4, 10_s, 10_s), 0.0);
  EXPECT_DOUBLE_EQ(tl.relative_deviation(4, 10_s, 5_s), 0.0);
}

TEST(TimelineTest, ChangeCountWindowed) {
  SubscriptionTimeline tl{Time::zero(), 1};
  tl.record(10_s, 2);
  tl.record(20_s, 3);
  tl.record(30_s, 2);
  EXPECT_EQ(tl.change_count(Time::zero(), 40_s), 3);
  EXPECT_EQ(tl.change_count(15_s, 40_s), 2);
  EXPECT_EQ(tl.change_count(35_s, 40_s), 0);
}

TEST(TimelineTest, MeanGapBetweenChanges) {
  SubscriptionTimeline tl{Time::zero(), 1};
  tl.record(10_s, 2);
  tl.record(20_s, 3);
  tl.record(40_s, 2);
  // Gaps: 10, 20 -> mean 15.
  EXPECT_DOUBLE_EQ(tl.mean_time_between_changes_s(Time::zero(), 60_s), 15.0);
}

TEST(TimelineTest, MeanGapWithFewChangesIsWindowLength) {
  SubscriptionTimeline tl{Time::zero(), 1};
  EXPECT_DOUBLE_EQ(tl.mean_time_between_changes_s(Time::zero(), 60_s), 60.0);
  tl.record(10_s, 2);
  EXPECT_DOUBLE_EQ(tl.mean_time_between_changes_s(Time::zero(), 60_s), 60.0);
}

TEST(TimelineTest, TimeAtLevelFraction) {
  SubscriptionTimeline tl{Time::zero(), 4};
  tl.record(25_s, 3);
  tl.record(50_s, 4);
  EXPECT_DOUBLE_EQ(tl.time_at_level_fraction(4, Time::zero(), 100_s), 0.75);
  EXPECT_DOUBLE_EQ(tl.time_at_level_fraction(3, Time::zero(), 100_s), 0.25);
  EXPECT_DOUBLE_EQ(tl.time_at_level_fraction(1, Time::zero(), 100_s), 0.0);
}

TEST(TimelineTest, MeanLevelWeighsEachLevelByItsTime) {
  SubscriptionTimeline tl{Time::zero(), 2};
  tl.record(20_s, 4);
  tl.record(60_s, 1);
  // 20 s at 2, 40 s at 4, 40 s at 1 over 100 s: (40 + 160 + 40) / 100.
  EXPECT_DOUBLE_EQ(tl.mean_level(Time::zero(), 100_s), 2.4);
  // A window inside one spell is that spell's level.
  EXPECT_DOUBLE_EQ(tl.mean_level(25_s, 55_s), 4.0);
}

// Property: deviation scales linearly in the distance from optimal.
class DeviationLinearity : public ::testing::TestWithParam<int> {};

TEST_P(DeviationLinearity, ConstantLevel) {
  const int level = GetParam();
  SubscriptionTimeline tl{Time::zero(), level};
  const double expected = std::abs(level - 4) / 4.0;
  EXPECT_DOUBLE_EQ(tl.relative_deviation(4, Time::zero(), 77_s), expected);
}

INSTANTIATE_TEST_SUITE_P(Levels, DeviationLinearity, ::testing::Range(0, 7));

}  // namespace
}  // namespace tsim::metrics
