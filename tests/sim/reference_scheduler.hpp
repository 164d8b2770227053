#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace tsim::sim::testing {

/// Reference event queue for the lockstep equivalence tests: a plain binary
/// min-heap on (timestamp, schedule sequence), with the same slot pool,
/// EventId encoding and pool accessors as sim::Scheduler. Every correct queue
/// executes that total order, so sim::Scheduler's calendar must reproduce
/// this one's traces exactly.
class ReferenceScheduler {
 public:
  using Callback = SmallCallback;

  EventId schedule_at(Time when, Callback cb) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot].cancelled = false;
    slots_[slot].cb = std::move(cb);
    heap_.push_back(Entry{when.as_nanoseconds(), next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), kMinFirst);
    return EventId{(static_cast<std::uint64_t>(slots_[slot].generation) << 32) | (slot + 1)};
  }

  EventId schedule_after(Time delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  void cancel(EventId id) {
    if (id.value == 0) return;
    const std::uint32_t slot = static_cast<std::uint32_t>(id.value & 0xFFFFFFFFu) - 1;
    const auto generation = static_cast<std::uint32_t>(id.value >> 32);
    if (slot >= slots_.size() || slots_[slot].generation != generation) return;
    if (!slots_[slot].cancelled) {
      slots_[slot].cancelled = true;
      ++cancelled_pending_;
    }
  }

  void run_until(Time until) {
    while (!heap_.empty() && heap_.front().when_ns <= until.as_nanoseconds()) {
      std::pop_heap(heap_.begin(), heap_.end(), kMinFirst);
      const Entry entry = heap_.back();
      heap_.pop_back();
      Slot& slot = slots_[entry.slot];
      Callback cb = std::move(slot.cb);
      slot.cb = Callback{};
      const bool cancelled = slot.cancelled;
      slot.cancelled = false;
      ++slot.generation;
      free_slots_.push_back(entry.slot);
      if (cancelled) {
        --cancelled_pending_;
        continue;
      }
      now_ = Time::nanoseconds(entry.when_ns);
      ++executed_;
      cb();
    }
    if (now_ < until) now_ = until;
  }

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] Time next_event_time() const {
    return heap_.empty() ? Time::max() : Time::nanoseconds(heap_.front().when_ns);
  }
  [[nodiscard]] std::size_t pending_events() const { return heap_.size() - cancelled_pending_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  [[nodiscard]] std::size_t slot_pool_size() const { return slots_.size(); }
  [[nodiscard]] std::size_t free_slot_count() const { return free_slots_.size(); }
  [[nodiscard]] std::size_t queued_entries() const { return heap_.size(); }
  [[nodiscard]] std::size_t cancelled_pending() const { return cancelled_pending_; }

 private:
  struct Entry {
    std::int64_t when_ns;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    std::uint32_t generation{1};
    bool cancelled{false};
    Callback cb;
  };
  /// std::push_heap/pop_heap build a max-heap; inverting (when, seq) puts
  /// the minimum at the front.
  static constexpr auto kMinFirst = [](const Entry& a, const Entry& b) {
    return a.when_ns != b.when_ns ? b.when_ns < a.when_ns : b.seq < a.seq;
  };

  Time now_{Time::zero()};
  std::uint64_t next_seq_{0};
  std::uint64_t executed_{0};
  std::size_t cancelled_pending_{0};
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace tsim::sim::testing
