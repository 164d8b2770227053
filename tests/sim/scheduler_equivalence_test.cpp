#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_scheduler.hpp"

#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace tsim::sim {
namespace {

// The calendar queue must execute the identical total order (timestamp, then
// schedule sequence) as the reference binary heap in reference_scheduler.hpp,
// so that every simulation fingerprint is independent of the queue structure.
// These tests drive both through the same randomized schedule / cancel / run
// workloads and assert the execution traces, pending counts and slot-pool
// invariants match exactly.

using testing::ReferenceScheduler;

/// Drives one scheduler through a scripted workload and records, for every
/// executed event, the (fire time, creation index) pair. Identical scripts on
/// both schedulers must produce identical traces.
template <class Sched>
class WorkloadDriver {
 public:

  /// Schedules event number `tag` at absolute `when_ns`; remembers its id so
  /// cancel_nth can target it later.
  void schedule(std::int64_t when_ns, std::uint64_t tag) {
    ids_.push_back(scheduler_.schedule_at(
        Time::nanoseconds(when_ns), [this, when_ns, tag]() {
          trace_.push_back({scheduler_.now().as_nanoseconds(), tag});
          EXPECT_EQ(scheduler_.now().as_nanoseconds(), when_ns);
        }));
  }

  void cancel_nth(std::size_t n) { scheduler_.cancel(ids_[n]); }

  void run_until(std::int64_t until_ns) {
    scheduler_.run_until(Time::nanoseconds(until_ns));
  }

  /// Slot-pool consistency: every slot is either free or owned by exactly one
  /// queued entry, and cancelled entries still hold their slots until popped.
  void check_pool_invariants() const {
    EXPECT_EQ(scheduler_.slot_pool_size(),
              scheduler_.free_slot_count() + scheduler_.queued_entries());
    EXPECT_LE(scheduler_.cancelled_pending(), scheduler_.queued_entries());
    EXPECT_EQ(scheduler_.pending_events(),
              scheduler_.queued_entries() - scheduler_.cancelled_pending());
  }

  [[nodiscard]] const Sched& scheduler() const { return scheduler_; }
  [[nodiscard]] const std::vector<std::pair<std::int64_t, std::uint64_t>>& trace() const {
    return trace_;
  }

 private:
  Sched scheduler_;
  std::vector<EventId> ids_;
  std::vector<std::pair<std::int64_t, std::uint64_t>> trace_;
};

/// One randomized schedule–cancel–run script, applied identically to both
/// drivers. Operations are drawn from a seeded Rng, so failures reproduce.
void run_random_workload(std::uint64_t seed, int operations) {
  WorkloadDriver<Scheduler> calendar;
  WorkloadDriver<ReferenceScheduler> heap;
  Rng rng{seed};

  std::int64_t horizon_ns = 0;  // both schedulers share the same clock floor
  std::uint64_t tag = 0;
  std::size_t scheduled = 0;
  for (int op = 0; op < operations; ++op) {
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.55) {
      // Schedule: cluster timestamps so same-bucket appends, in-bucket
      // ordered inserts and FIFO ties all occur, with occasional far-future
      // outliers to exercise the overflow band and window migration.
      std::int64_t when = horizon_ns;
      const double spread = rng.uniform(0.0, 1.0);
      if (spread < 0.4) {
        when += rng.uniform_int(0, 1000);              // dense cluster, many ties
      } else if (spread < 0.8) {
        when += rng.uniform_int(0, 2'000'000);         // within a typical window
      } else {
        when += rng.uniform_int(0, 400'000'000);       // far future: overflow band
      }
      calendar.schedule(when, tag);
      heap.schedule(when, tag);
      ++tag;
      ++scheduled;
    } else if (dice < 0.75 && scheduled > 0) {
      // Cancel a random already-created event (possibly already fired or
      // already cancelled — both must treat stale handles as no-ops).
      const auto n = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(scheduled) - 1));
      calendar.cancel_nth(n);
      heap.cancel_nth(n);
    } else {
      // Run forward a random amount; both clocks advance identically.
      horizon_ns += rng.uniform_int(0, 5'000'000);
      calendar.run_until(horizon_ns);
      heap.run_until(horizon_ns);
      ASSERT_EQ(calendar.trace().size(), heap.trace().size());
    }
    calendar.check_pool_invariants();
    heap.check_pool_invariants();
    ASSERT_EQ(calendar.scheduler().pending_events(), heap.scheduler().pending_events());
  }

  // Drain everything still queued.
  calendar.run_until(horizon_ns + 1'000'000'000);
  heap.run_until(horizon_ns + 1'000'000'000);

  ASSERT_EQ(calendar.trace(), heap.trace())
      << "execution order diverged for seed " << seed;
  EXPECT_EQ(calendar.scheduler().executed_events(), heap.scheduler().executed_events());
  EXPECT_EQ(calendar.scheduler().pending_events(), 0u);
  EXPECT_EQ(heap.scheduler().pending_events(), 0u);
  calendar.check_pool_invariants();
  heap.check_pool_invariants();
}

TEST(SchedulerEquivalence, RandomizedWorkloadsMatchHeapExactly) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_random_workload(seed, 400);
    if (::testing::Test::HasFailure()) {
      FAIL() << "first diverging seed: " << seed;
    }
  }
}

TEST(SchedulerEquivalence, SameTimestampFifoTieBreak) {
  // Every event at one timestamp, scheduled in interleaved order with
  // cancellations: both impls must fire survivors in schedule order.
  WorkloadDriver<Scheduler> calendar;
  WorkloadDriver<ReferenceScheduler> heap;
  constexpr std::int64_t kWhen = 5'000'000;
  for (std::uint64_t tag = 0; tag < 1000; ++tag) {
    calendar.schedule(kWhen, tag);
    heap.schedule(kWhen, tag);
  }
  for (std::size_t n = 0; n < 1000; n += 3) {
    calendar.cancel_nth(n);
    heap.cancel_nth(n);
  }
  calendar.run_until(kWhen);
  heap.run_until(kWhen);
  ASSERT_EQ(calendar.trace(), heap.trace());
  ASSERT_EQ(calendar.trace().size(), 1000u - 334u);
  EXPECT_TRUE(std::is_sorted(calendar.trace().begin(), calendar.trace().end()));
}

/// The pool must be bounded by the peak number of concurrently pending
/// events — scheduling N, draining, and scheduling N again must not grow it
/// past N.
template <class Sched>
void expect_slot_pool_bounded() {
  WorkloadDriver<Sched> driver;
  for (int round = 0; round < 5; ++round) {
    const std::int64_t base = round * 10'000'000;
    for (std::uint64_t tag = 0; tag < 500; ++tag) {
      driver.schedule(base + 1'000 + static_cast<std::int64_t>(tag), tag);
    }
    driver.run_until(base + 5'000'000);
    driver.check_pool_invariants();
  }
  EXPECT_LE(driver.scheduler().slot_pool_size(), 500u);
}

TEST(SchedulerEquivalence, SlotPoolBoundedByPeakPending) {
  expect_slot_pool_bounded<Scheduler>();
  expect_slot_pool_bounded<ReferenceScheduler>();
}

/// Callbacks that schedule and cancel from inside the run loop — the shape
/// real components (links, timers racing cancellation) produce.
template <class Sched>
std::vector<std::int64_t> reentrant_trace(std::uint64_t seed) {
  Sched scheduler;
  Rng rng{seed};
  std::vector<std::int64_t> trace;
  // Self-rescheduling chain: each firing schedules 0-2 successors at
  // randomized offsets (some same-timestamp) until a budget runs out.
  int budget = 3000;
  const auto spawn = [&](auto&& self, std::int64_t when_ns) -> void {
    scheduler.schedule_at(Time::nanoseconds(when_ns), [&, when_ns]() {
      trace.push_back(when_ns);
      if (budget <= 0) return;
      const int children = static_cast<int>(rng.uniform_int(0, 2));
      for (int c = 0; c < children; ++c) {
        --budget;
        self(self, when_ns + rng.uniform_int(0, 1'000'000));
      }
    });
  };
  for (int i = 0; i < 16; ++i) spawn(spawn, 1'000 * i);
  scheduler.run_until(Time::seconds(std::int64_t{3600}));
  EXPECT_EQ(scheduler.pending_events(), 0u);
  return trace;
}

TEST(SchedulerEquivalence, ReentrantSchedulingMatches) {
  for (const std::uint64_t seed : {7ull, 8ull, 9ull}) {
    ASSERT_EQ(reentrant_trace<Scheduler>(seed), reentrant_trace<ReferenceScheduler>(seed))
        << "reentrant divergence for seed " << seed;
  }
}

/// A packet-star shaped load: every burst fans out 10k deliveries whose
/// timestamps cluster, tie and arrive out of order; a quarter of them schedule
/// a follow-up, and the burst period is incommensurate with any bucket width,
/// so the bursts drift across many buckets and windows.
constexpr std::uint64_t kFanout = 10'000;

template <class Sched>
std::vector<std::pair<std::int64_t, std::uint64_t>> fanout_trace(int bursts) {
  Sched scheduler;
  std::vector<std::pair<std::int64_t, std::uint64_t>> trace;
  const auto burst = [&](auto&& self, int remaining) -> void {
    const std::int64_t now = scheduler.now().as_nanoseconds();
    for (std::uint64_t i = 0; i < kFanout; ++i) {
      const auto when = now + 1'000 + static_cast<std::int64_t>((i * 7919) % 9973);
      scheduler.schedule_at(Time::nanoseconds(when), [&scheduler, &trace, i]() {
        trace.emplace_back(scheduler.now().as_nanoseconds(), i);
        if (i % 4 == 0) {
          scheduler.schedule_after(Time::nanoseconds(50'000 + static_cast<std::int64_t>(i)),
                                   [&scheduler, &trace, i]() {
                                     trace.emplace_back(scheduler.now().as_nanoseconds(),
                                                        kFanout + i);
                                   });
        }
      });
    }
    if (remaining > 1) {
      scheduler.schedule_after(Time::nanoseconds(1'234'567),
                               [&self, remaining]() { self(self, remaining - 1); });
    }
  };
  scheduler.schedule_at(Time::nanoseconds(333), [&]() { burst(burst, bursts); });
  scheduler.run_until(Time::seconds(std::int64_t{10}));
  EXPECT_EQ(scheduler.pending_events(), 0u);
  EXPECT_EQ(trace.size(), static_cast<std::size_t>(bursts) * (kFanout + kFanout / 4));
  return trace;
}

TEST(SchedulerEquivalence, FanoutBurstsDriftingAcrossBucketsMatch) {
  const auto calendar = fanout_trace<Scheduler>(24);
  const auto heap = fanout_trace<ReferenceScheduler>(24);
  ASSERT_EQ(calendar.size(), heap.size());
  ASSERT_TRUE(calendar == heap) << "fan-out burst order diverged";
}

/// External scheduling at now() after next_event_time() advanced the cursor to
/// a later bucket: the calendar must return the loaded bucket to its list and
/// move the cursor back. Dense clusters (200 events within 20 us) every 2 ms
/// keep buckets far narrower than the gaps between clusters, so a run that
/// stops inside a gap leaves now() several buckets before the next cluster,
/// which the peek then loads.
template <class Sched>
std::vector<std::pair<std::int64_t, std::uint64_t>> peek_then_schedule_trace(
    std::uint64_t seed) {
  constexpr int kClusters = 200;
  constexpr std::int64_t kSpacing = 2'000'000;
  constexpr std::int64_t kClusterSpan = 20'000;
  WorkloadDriver<Sched> driver;
  Rng rng{seed};
  std::uint64_t tag = 0;
  for (int c = 0; c < kClusters; ++c) {
    for (int k = 0; k < 200; ++k) {
      driver.schedule(c * kSpacing + rng.uniform_int(0, kClusterSpan), tag++);
    }
  }
  for (int c = 0; c + 1 < kClusters; ++c) {
    const std::int64_t now =
        c * kSpacing + kClusterSpan + 1 + rng.uniform_int(0, kSpacing - 2 * kClusterSpan);
    driver.run_until(now);
    const Time next = driver.scheduler().next_event_time();
    EXPECT_GE(next, driver.scheduler().now());
    driver.schedule(now, tag++);
    // A few more between now() and just past the peeked event, ties included.
    const std::int64_t ahead = next.as_nanoseconds() - now;
    const int extra = static_cast<int>(rng.uniform_int(0, 3));
    for (int k = 0; k < extra; ++k) {
      driver.schedule(now + rng.uniform_int(0, ahead + 5'000), tag++);
    }
    if (rng.uniform(0.0, 1.0) < 0.2) driver.cancel_nth(static_cast<std::size_t>(tag - 1));
    driver.check_pool_invariants();
  }
  driver.run_until(kClusters * kSpacing);
  EXPECT_EQ(driver.scheduler().pending_events(), 0u);
  return driver.trace();
}

TEST(SchedulerEquivalence, ExternalScheduleAfterPeekMatches) {
  for (const std::uint64_t seed : {3ull, 4ull, 5ull}) {
    ASSERT_EQ(peek_then_schedule_trace<Scheduler>(seed),
              peek_then_schedule_trace<ReferenceScheduler>(seed))
        << "peek-then-schedule divergence for seed " << seed;
  }
}

}  // namespace
}  // namespace tsim::sim
