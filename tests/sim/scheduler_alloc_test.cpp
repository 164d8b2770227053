// Runtime counterpart of the hot-path contract for the event queue. A
// counting global operator new/delete measures what sim::Scheduler allocates
// while it runs a packet-star shaped load: 10k-wide fan-out bursts whose
// period is incommensurate with any bucket width, so they drift across the
// calendar's buckets and windows. After warm-up, further bursts must not
// allocate at all, and the bytes the scheduler holds must not grow with
// simulated time. The counting operator new lives in
// tests/support/alloc_counter.cpp; this binary has its own ctest label
// (`alloc`) because the replacement applies to the whole process.
#include <cstdint>

#include <gtest/gtest.h>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "../support/alloc_counter.hpp"

namespace tsim::sim {
namespace {

/// One source fanning out to kFanout receivers every kPeriod, over a
/// background of kTimers periodic timers. Deliveries cluster, tie and arrive
/// out of order within ~10 us, and every fourth one schedules a follow-up
/// 50-60 us later (the shape of a tx completion scheduling an arrival). The
/// timers keep ~20k events pending, so the calendar settles on a fixed large
/// geometry, and they fire every 50 us, so each window starts at a different
/// phase of the burst cycle and the bursts drift across the buckets, as they
/// do in a 10k-receiver packet star. Every callback fits SmallCallback's
/// inline storage, so the load itself allocates nothing.
class BurstLoad {
 public:
  static constexpr std::uint32_t kFanout = 10'000;
  static constexpr std::uint32_t kTimers = 20'000;
  static constexpr Time kPeriod = Time::nanoseconds(1'234'567);
  static constexpr Time kTimerPeriod = Time::seconds(std::int64_t{1});

  explicit BurstLoad(Scheduler& scheduler) : scheduler_{scheduler} {
    scheduler_.schedule_at(Time::nanoseconds(333), [this] { burst(); });
    for (std::uint32_t k = 0; k < kTimers; ++k) {
      scheduler_.schedule_at(Time::nanoseconds(std::int64_t{50'000} * k), [this] { timer(); });
    }
  }

  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }

 private:
  void burst() {
    const Time now = scheduler_.now();
    for (std::uint32_t i = 0; i < kFanout; ++i) {
      const auto offset = static_cast<std::int64_t>(1'000 + (i * 7919u) % 9973u);
      scheduler_.schedule_at(now + Time::nanoseconds(offset), [this, i] { deliver(i); });
    }
    scheduler_.schedule_after(kPeriod, [this] { burst(); });
  }

  void deliver(std::uint32_t i) {
    ++deliveries_;
    if (i % 4 == 0) {
      scheduler_.schedule_after(Time::nanoseconds(50'000 + static_cast<std::int64_t>(i)),
                                [this] { ++deliveries_; });
    }
  }

  void timer() { scheduler_.schedule_after(kTimerPeriod, [this] { timer(); }); }

  Scheduler& scheduler_;
  std::uint64_t deliveries_{0};
};

TEST(SchedulerAlloc, SteadyStateBurstsDoNotAllocate) {
  Scheduler scheduler;
  BurstLoad load{scheduler};
  scheduler.run_until(Time::milliseconds(100));  // warm-up: every high-water mark reached

  const std::uint64_t executed_before = scheduler.executed_events();
  const std::uint64_t allocations_before = testing::allocations();
  scheduler.run_until(Time::milliseconds(400));
  const std::uint64_t allocations = testing::allocations() - allocations_before;
  const std::uint64_t executed = scheduler.executed_events() - executed_before;

  EXPECT_EQ(allocations, 0u) << "over " << executed << " events";
  EXPECT_GT(executed, 240u * BurstLoad::kFanout);  // ~243 bursts
}

TEST(SchedulerAlloc, LiveBytesFlatOverLongerHorizon) {
  const std::int64_t baseline = testing::live_bytes();
  Scheduler scheduler;
  BurstLoad load{scheduler};

  scheduler.run_until(Time::milliseconds(150));
  const std::int64_t short_horizon = testing::live_bytes() - baseline;
  scheduler.run_until(Time::milliseconds(600));
  const std::int64_t long_horizon = testing::live_bytes() - baseline;

  EXPECT_EQ(long_horizon, short_horizon)
      << "scheduler memory grew from " << short_horizon << " to " << long_horizon
      << " bytes between 150 ms and 600 ms of simulated time";
  EXPECT_GT(load.deliveries(), 480u * BurstLoad::kFanout);  // ~486 bursts
}

/// Two self-rescheduling chains 1 ns apart keep exactly two events pending,
/// both in the bucket being drained, for as long as they run: each firing
/// schedules its successor behind the other chain's event. The drain buffer
/// must track those two live entries, not every entry that has passed
/// through the bucket.
TEST(SchedulerAlloc, DrainBufferTracksLiveEntriesNotBucketHistory) {
  const std::int64_t baseline = testing::live_bytes();
  Scheduler scheduler;
  std::uint64_t fired = 0;
  const auto chain = [&](auto&& self) -> void {
    ++fired;
    scheduler.schedule_after(Time::nanoseconds(1), [&self] { self(self); });
  };
  scheduler.schedule_at(Time::nanoseconds(1'000), [&] { chain(chain); });
  scheduler.schedule_at(Time::nanoseconds(1'000), [&] { chain(chain); });

  scheduler.run_until(Time::nanoseconds(2'000));
  const std::int64_t short_horizon = testing::live_bytes() - baseline;
  scheduler.run_until(Time::nanoseconds(200'000));
  const std::int64_t long_horizon = testing::live_bytes() - baseline;

  EXPECT_EQ(scheduler.pending_events(), 2u);
  EXPECT_EQ(long_horizon, short_horizon)
      << "scheduler memory grew from " << short_horizon << " to " << long_horizon
      << " bytes while two events stayed pending";
  EXPECT_GT(fired, 390'000u);
}

}  // namespace
}  // namespace tsim::sim
