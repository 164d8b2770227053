#include "sim/shard_executor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace tsim::sim {

ShardExecutor::~ShardExecutor() { stop_pool(); }

std::size_t ShardExecutor::add_shard(Simulation& shard) {
  shards_.push_back(&shard);
  return shards_.size() - 1;
}

ShardExecutor::Channel& ShardExecutor::connect(std::size_t from, std::size_t to, Time latency) {
  if (from >= shards_.size() || to >= shards_.size()) {
    throw std::invalid_argument{"ShardExecutor::connect: unknown shard index"};
  }
  if (from == to) {
    throw std::invalid_argument{"ShardExecutor::connect: self-loop channel"};
  }
  if (latency <= Time::zero()) {
    throw std::invalid_argument{"ShardExecutor::connect: latency must be positive"};
  }
  channels_.push_back(
      std::unique_ptr<Channel>{new Channel{channels_.size(), from, to, latency}});
  lookahead_ = std::min(lookahead_, latency);
  return *channels_.back();
}

void ShardExecutor::run_until(Time end) {
  if (shards_.empty()) return;

  // One shard: the plain sequential path, bit-for-bit identical to running
  // the Simulation directly (no windows, no barrier, no pool).
  if (shards_.size() == 1) {
    shards_.front()->run_until(end);
    return;
  }

  // Any throw below (a worker error surfaced at the barrier, or a lookahead
  // violation in drain_channels) must stop and join the pool exactly once
  // before propagating: the destructor's stop_pool() then sees no joinable
  // workers, and the executor stays usable after the caller catches.
  try {
    const std::int64_t end_ns = end.as_nanoseconds();

    // No channels: the shards are fully independent — one window to the end.
    if (channels_.empty()) {
      run_window(end);
      ++windows_;
      return;
    }

    while (cursor_ns_ <= end_ns) {
      // Events with when < bound run this window; run_until is inclusive, so
      // the shards advance to bound - 1ns. The final window runs through `end`
      // itself (bound = end + 1), matching plain run_until semantics.
      const std::int64_t bound_ns =
          std::min(cursor_ns_ + lookahead_.as_nanoseconds(), end_ns + 1);
      run_window(Time::nanoseconds(bound_ns - 1));
      drain_channels(bound_ns);
      cursor_ns_ = bound_ns;
      ++windows_;
    }
  } catch (...) {
    stop_pool();
    throw;
  }
}

void ShardExecutor::run_claimed_shards(Time bound) {
  for (;;) {
    std::size_t index = 0;
    {
      // HOTPATH_ALLOW(lock: shard-claim handshake — one short critical section per shard per window, never per event)
      core::LockGuard lock{mutex_};
      if (next_shard_ >= shards_.size()) return;
      index = next_shard_++;
    }
    try {
      shards_[index]->run_until(bound);
    } catch (...) {
      // HOTPATH_ALLOW(lock: worker-error capture; runs only when a shard's window throws)
      core::LockGuard lock{mutex_};
      // HOTPATH_ALLOW(container-growth: worker-error capture; runs only when a shard's window throws)
      worker_errors_.push_back(std::current_exception());
    }
  }
}

void ShardExecutor::run_window(Time bound) {
  const std::size_t threads =
      config_.threads != 0
          ? config_.threads
          : std::max<std::size_t>(1, std::min<std::size_t>(
                                         shards_.size(), std::thread::hardware_concurrency()));

  if (threads <= 1) {
    // Sequential windows: identical results, no pool machinery.
    for (Simulation* shard : shards_) shard->run_until(bound);
    return;
  }

  if (workers_.empty()) {
    const std::size_t spawn = std::min(threads, shards_.size());
    // A respawned pool (after a failed run) starts from the current
    // generation: a worker that took an older generation for a fresh window
    // would run shards to a stale bound and decrement running_workers_ for a
    // window it was never counted in, and the barrier could wait forever.
    std::uint64_t spawned_at = 0;
    {
      core::LockGuard lock{mutex_};
      stopping_ = false;
      spawned_at = generation_;
    }
    workers_.reserve(spawn);
    for (std::size_t i = 0; i < spawn; ++i) {
      workers_.emplace_back([this, spawned_at] { worker_loop(spawned_at); });
    }
  }

  {
    core::LockGuard lock{mutex_};
    next_shard_ = 0;
    window_bound_ = bound;
    running_workers_ = workers_.size();
    ++generation_;
  }
  work_ready_.notify_all();

  core::UniqueLock lock{mutex_};
  while (running_workers_ != 0) window_done_.wait(lock);
  if (!worker_errors_.empty()) {
    std::exception_ptr first = worker_errors_.front();
    worker_errors_.clear();
    std::rethrow_exception(first);
  }
}

void ShardExecutor::worker_loop(std::uint64_t seen) {
  for (;;) {
    Time bound{};
    {
      core::UniqueLock lock{mutex_};
      while (!stopping_ && generation_ == seen) work_ready_.wait(lock);
      if (stopping_) return;
      seen = generation_;
      bound = window_bound_;
    }
    run_claimed_shards(bound);
    {
      core::LockGuard lock{mutex_};
      if (--running_workers_ == 0) window_done_.notify_all();
    }
  }
}

void ShardExecutor::drain_channels(std::int64_t bound_ns) {
  // Deterministic merge: every pending handoff, ordered by (when, channel id,
  // post sequence). Channel ids and per-channel sequences are stable across
  // runs and thread counts, so the injection order — and therefore the
  // destination scheduler's tie-breaking sequence numbers — is too.
  struct Pending {
    std::int64_t when_ns;
    std::size_t channel;
    std::uint64_t seq;
    std::function<void()>* action;
  };
  std::vector<Pending> pending;
  for (const std::unique_ptr<Channel>& channel : channels_) {
    for (Channel::Message& message : channel->outbox_) {
      const std::int64_t when_ns = message.when.as_nanoseconds();
      if (when_ns < bound_ns) {
        throw std::logic_error{
            "ShardExecutor: channel " + std::to_string(channel->id_) + " posted an action at " +
            message.when.to_string() +
            ", inside the current window — lookahead contract violated"};
      }
      pending.push_back(Pending{when_ns, channel->id_, message.seq, &message.action});
    }
  }
  std::sort(pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
    if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
    if (a.channel != b.channel) return a.channel < b.channel;
    return a.seq < b.seq;
  });
  for (const Pending& entry : pending) {
    Simulation& destination = *shards_[channels_[entry.channel]->to_];
    destination.at(Time::nanoseconds(entry.when_ns), std::move(*entry.action));
    ++delivered_;
  }
  for (const std::unique_ptr<Channel>& channel : channels_) channel->outbox_.clear();
}

std::uint64_t ShardExecutor::executed_events() const {
  std::uint64_t total = 0;
  for (const Simulation* shard : shards_) total += shard->scheduler().executed_events();
  return total;
}

void ShardExecutor::stop_pool() {
  {
    core::LockGuard lock{mutex_};
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

}  // namespace tsim::sim
