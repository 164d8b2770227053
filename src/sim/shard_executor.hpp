#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/hotpath.hpp"
#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace tsim::sim {

/// Conservative-lookahead parallel runner for a set of otherwise independent
/// Simulations ("shards"). Each shard keeps its own single-threaded Scheduler
/// — nothing inside a shard changes — and the executor advances all shards in
/// lock-step windows no wider than the smallest cross-shard channel latency.
/// Any event a shard emits for another shard during a window therefore lands
/// at or after the *next* window boundary, so shards never see each other
/// mid-window and every window can run on its own thread.
///
/// Determinism contract:
///  - A single registered shard runs through the plain `Simulation::run_until`
///    path, bit-for-bit identical to not using the executor at all.
///  - Multi-shard runs are bit-for-bit identical for every thread count
///    (including 1): each shard's intra-window execution is sequential, and
///    handoffs are merged at the barrier in (when, channel id, post sequence)
///    order by a single thread before any shard resumes.
///
/// Handoffs are *actions*, not packets: the poster captures whatever state it
/// needs **by value** and the action runs later on the destination shard's
/// thread (see net::ShardLink for the packet adapter). Captured state must not
/// reference source-shard objects — PacketRef, for one, is backed by a
/// thread-local pool and must never cross shards.
///
/// Threading model (statically enforced — see docs/sharding.md): everything
/// the worker pool shares is guarded by `mutex_` and annotated TS_GUARDED_BY,
/// so a Clang `-Wthread-safety` build proves lock discipline at compile time;
/// the TSan shard gate in CI validates the same contract dynamically.
class ShardExecutor {
 public:
  struct Config {
    /// Worker threads for shard windows. 0 picks min(shards, hardware
    /// concurrency); 1 runs shards sequentially on the calling thread (same
    /// results, no pool).
    std::size_t threads{0};
  };

  /// A one-way handoff queue between two shards with a fixed minimum latency.
  /// post() is legal only from the source shard's thread while its window is
  /// running (each channel has exactly one posting shard, so no lock is
  /// needed); the executor drains every channel at the window barrier, on the
  /// barrier thread, after every worker has parked — the two phases never
  /// overlap, which is why `outbox_` needs no capability of its own.
  class Channel {
   public:
    Channel(const Channel&) = delete;
    Channel& operator=(const Channel&) = delete;

    /// Queues `action` to run in the destination shard at absolute time
    /// `when`. The lookahead contract requires `when >= post time + latency()`
    /// — the barrier throws std::logic_error on violations rather than
    /// silently reordering history.
    void post(Time when, std::function<void()> action) {
      outbox_.push_back(Message{when, next_seq_++, std::move(action)});
    }

    [[nodiscard]] Time latency() const { return latency_; }
    [[nodiscard]] std::size_t source() const { return from_; }
    [[nodiscard]] std::size_t destination() const { return to_; }
    [[nodiscard]] std::uint64_t posted() const { return next_seq_; }

   private:
    friend class ShardExecutor;
    struct Message {
      Time when{};
      std::uint64_t seq{0};
      std::function<void()> action;
    };

    Channel(std::size_t id, std::size_t from, std::size_t to, Time latency)
        : id_{id}, from_{from}, to_{to}, latency_{latency} {}

    std::size_t id_;
    std::size_t from_;
    std::size_t to_;
    Time latency_;
    std::uint64_t next_seq_{0};
    std::vector<Message> outbox_;
  };

  ShardExecutor() = default;
  explicit ShardExecutor(Config config) : config_{config} {}
  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;
  ~ShardExecutor();

  /// Registers a shard; returns its index. All shards must be registered
  /// before the first run_until. The executor does not own the Simulation.
  std::size_t add_shard(Simulation& shard);

  /// Declares a handoff channel from shard `from` to shard `to` whose
  /// messages take at least `latency` to arrive. The smallest latency across
  /// all channels becomes the window width (the conservative lookahead).
  /// Throws std::invalid_argument on self-loops, unknown shards, or a
  /// non-positive latency.
  Channel& connect(std::size_t from, std::size_t to, Time latency);

  /// Advances every shard to `end` (events at exactly `end` execute, matching
  /// Simulation::run_until). Callable repeatedly with increasing bounds.
  /// If a window or the barrier throws (worker error, lookahead violation),
  /// the pool is stopped and joined before the exception propagates, so the
  /// executor is left destructible and restartable with no joinable threads.
  HOT_PATH_EXEMPT(
      "coordinator entry: owns per-window pool setup/teardown, not per-event work; it is "
      "reached from the hot worker loop only through name over-approximation of "
      "Simulation::run_until on the claimed shard")
  void run_until(Time end);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Time lookahead() const { return lookahead_; }
  /// Scheduler events executed, summed over all shards.
  [[nodiscard]] std::uint64_t executed_events() const;
  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }

 private:
  void run_window(Time bound) TS_EXCLUDES(mutex_);
  void drain_channels(std::int64_t bound_ns);
  void stop_pool() TS_EXCLUDES(mutex_);
  /// Runs one window per generation after `seen`, until stopping_.
  void worker_loop(std::uint64_t seen) TS_EXCLUDES(mutex_);
  HOT_PATH void run_claimed_shards(Time bound) TS_EXCLUDES(mutex_);

  /// --- barrier-thread state (never touched by workers) --------------------
  Config config_;
  std::vector<Simulation*> shards_;  ///< shard *slots* are claimed via next_shard_
  std::vector<std::unique_ptr<Channel>> channels_;
  Time lookahead_{Time::max()};
  std::int64_t cursor_ns_{0};  ///< next window start
  std::uint64_t windows_{0};
  std::uint64_t delivered_{0};
  std::vector<std::thread> workers_;  ///< spawned/joined by the barrier thread only

  /// --- state shared with the worker pool, all guarded by mutex_ -----------
  core::Mutex mutex_;
  core::ConditionVariable work_ready_;
  core::ConditionVariable window_done_;
  std::uint64_t generation_ TS_GUARDED_BY(mutex_){0};
  std::size_t running_workers_ TS_GUARDED_BY(mutex_){0};
  std::size_t next_shard_ TS_GUARDED_BY(mutex_){0};  ///< claim cursor
  Time window_bound_ TS_GUARDED_BY(mutex_){};
  bool stopping_ TS_GUARDED_BY(mutex_){false};
  std::vector<std::exception_ptr> worker_errors_ TS_GUARDED_BY(mutex_);
};

}  // namespace tsim::sim
