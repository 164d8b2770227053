#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace tsim::sim {

namespace {

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

/// std::push_heap/pop_heap build a max-heap under their comparator; inverting
/// Entry's total order makes the (when, seq) minimum the heap front.
constexpr auto kMinFirst = [](const auto& a, const auto& b) { return b < a; };

}  // namespace

// --- slot pool --------------------------------------------------------------

EventId Scheduler::schedule_at(Time when, Callback cb) {
  if (when < now_) {
    // HOTPATH_ALLOW(throw-expr: scheduling into the past is a programming error; the guard costs one predicted-not-taken branch per schedule)
    throw std::invalid_argument("Scheduler::schedule_at: time is in the past");
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    // HOTPATH_ALLOW(container-growth: slot-pool high-water growth; slots recycle through free_slots_, so steady state never reallocates)
    slots_.push_back(Slot{});
    // HOTPATH_ALLOW(container-growth: the bucket-list node array grows with the slot pool, index for index, and recycles with it)
    nodes_.push_back(Node{});
  }
  slots_[slot].cancelled = false;
  slots_[slot].cb = std::move(cb);
  push_entry(Entry{when.as_nanoseconds(), next_seq_++, slot});
  return EventId{encode(slot, slots_[slot].generation)};
}

EventId Scheduler::schedule_after(Time delay, Callback cb) {
  return schedule_at(now_ + delay, std::move(cb));
}

void Scheduler::cancel(EventId id) {
  if (id.value == 0) return;
  const std::uint32_t slot = static_cast<std::uint32_t>(id.value & 0xFFFFFFFFu) - 1;
  const std::uint32_t generation = static_cast<std::uint32_t>(id.value >> 32);
  // Stale handles (event already fired, or never existed) miss on the
  // generation check and are dropped — no tombstone accumulates.
  if (slot >= slots_.size() || slots_[slot].generation != generation) return;
  if (!slots_[slot].cancelled) {
    slots_[slot].cancelled = true;
    ++cancelled_pending_;
  }
}

bool Scheduler::take_front(Callback& out, Time& when) {
  return resolve_entry(pop_min(), out, when);
}

bool Scheduler::resolve_entry(const Entry& entry, Callback& out, Time& when) {
  const std::uint32_t slot = entry.slot;
  const bool cancelled = slots_[slot].cancelled;
  if (cancelled) {
    slots_[slot].cancelled = false;
    slots_[slot].cb = Callback{};
    --cancelled_pending_;
  } else {
    out = std::move(slots_[slot].cb);
    when = Time::nanoseconds(entry.when_ns);
  }
  ++slots_[slot].generation;  // invalidate outstanding handles to this event
  // HOTPATH_ALLOW(container-growth: returns a slot to the free list; capacity is bounded by the slot pool's own high-water mark)
  free_slots_.push_back(slot);
  return !cancelled;
}

// --- queue structure --------------------------------------------------------

void Scheduler::push_entry(Entry entry) {
  ++entries_;
  if (entries_ == 1) {
    // Empty queue: re-anchor the window at this event so small workloads and
    // fresh simulations never pay a migration.
    start_window(entry.when_ns);
    insert_into_bucket(entry, 0);
    return;
  }
  if (entry.when_ns < win_start_ns_) {
    // Only reachable by external scheduling after run_until() advanced the
    // clock into a gap before the current window (never from callbacks, whose
    // now() is inside the window). Rebuild around the new minimum.
    // HOTPATH_ALLOW(container-growth: cold re-base feeding rebuild_window; see the exemption on that function)
    overflow_.push_back(entry);
    std::push_heap(overflow_.begin(), overflow_.end(), kMinFirst);
    rebuild_window();
    return;
  }
  const std::size_t idx = bucket_index(entry.when_ns);
  if (idx < bucket_count_) {
    insert_into_bucket(entry, idx);
  } else {
    // HOTPATH_ALLOW(container-growth: far-future park into the overflow heap; capacity persists across migrations and is bounded by peak pending)
    overflow_.push_back(entry);
    std::push_heap(overflow_.begin(), overflow_.end(), kMinFirst);
  }
}

void Scheduler::insert_into_bucket(Entry entry, std::size_t idx) {
  if (!drain_.empty()) {
    if (idx == cursor_) {
      // The bucket is draining right now — keep the buffer sorted in place
      // rather than re-sorting its live suffix on every subsequent pop.
      insert_into_drain(entry);
      return;
    }
    // The cursor moves back to an earlier bucket: the buffer returns to its
    // own list so only one bucket is ever loaded.
    if (idx < cursor_) spill_drain();
  }
  append_to_list(entry, idx);
  if (idx < cursor_) cursor_ = idx;
}

void Scheduler::append_to_list(const Entry& entry, std::size_t idx) {
  Bucket& bucket = buckets_[idx];
  nodes_[entry.slot] = Node{entry.when_ns, entry.seq, kNil};
  if (bucket.head == kNil) {
    bucket = Bucket{entry.slot, entry.slot, false};
    mark_occupied(idx);
    return;
  }
  // An out-of-order append defers ordering to one sort when the cursor
  // reaches the bucket.
  const Node& tail = nodes_[bucket.tail];
  if (entry < Entry{tail.when_ns, tail.seq, bucket.tail}) bucket.dirty = true;
  nodes_[bucket.tail].next = entry.slot;
  bucket.tail = entry.slot;
}

void Scheduler::insert_into_drain(const Entry& entry) {
  if (drain_.size() == drain_.capacity() && drain_head_ > 0) {
    // Drop the consumed prefix before the buffer would grow, so its capacity
    // tracks the bucket's live entries rather than everything that passed
    // through it.
    drain_.erase(drain_.begin(), drain_.begin() + static_cast<std::ptrdiff_t>(drain_head_));
    drain_head_ = 0;
  }
  // HOTPATH_ALLOW(container-growth: ordered insert into the one shared drain buffer; it keeps its capacity, which the live entries of one bucket bound)
  drain_.insert(std::upper_bound(drain_.begin() + static_cast<std::ptrdiff_t>(drain_head_),
                                 drain_.end(), entry),
                entry);
}

void Scheduler::load_drain() const {
  Bucket& bucket = buckets_[cursor_];
  for (std::uint32_t slot = bucket.head; slot != kNil; slot = nodes_[slot].next) {
    // HOTPATH_ALLOW(container-growth: copies the cursor bucket into the one shared drain buffer; its capacity is kept and bounded by the largest bucket)
    drain_.push_back(Entry{nodes_[slot].when_ns, nodes_[slot].seq, slot});
  }
  if (bucket.dirty) std::sort(drain_.begin(), drain_.end());
  bucket = Bucket{};
}

void Scheduler::spill_drain() {
  for (std::size_t i = drain_head_; i < drain_.size(); ++i) append_to_list(drain_[i], cursor_);
  drain_.clear();
  drain_head_ = 0;
}

void Scheduler::start_window(std::int64_t anchor_ns) {
  if (bucket_count_ == 0) {
    bucket_count_ = 64;
    buckets_.resize(bucket_count_);
    occupancy_.assign((bucket_count_ + 63) / 64, 0);
  }
  win_start_ns_ = anchor_ns;
  cursor_ = 0;
}

void Scheduler::migrate_overflow() {
  // Pre: every bucket and the drain buffer are empty; the overflow heap is
  // not.
  assert(!overflow_.empty() && drain_.empty());

  // Adapt geometry to the traffic. Bucket width tracks the *mean*
  // inter-execution gap of the window just drained: that measures event
  // density where the cursor actually drains, unlike the span of the parked
  // overflow band (dominated by sparse long-horizon timers) or a per-pop
  // EWMA (sampled here, right after the inter-burst gap that emptied the
  // buckets, so biased wide by orders of magnitude). A width estimated
  // milliseconds wide puts every short-horizon datapath event in the
  // currently-draining bucket, where each pays an ordered-insert memmove —
  // the degenerate case this estimator exists to avoid. Target ~8 events
  // per bucket so cursor-bucket inserts stay a handful of moves.
  if (window_pops_ >= 64) {
    const std::int64_t span = last_pop_when_ns_ - window_first_pop_ns_;
    const std::int64_t mean_gap = span / static_cast<std::int64_t>(window_pops_);
    // Smooth across windows (1/2 weight) so one anomalous window does not
    // whipsaw the geometry; seed with the first window's mean directly.
    window_gap_ewma_ns_ =
        window_gap_ewma_ns_ < 0 ? mean_gap : (window_gap_ewma_ns_ + mean_gap) / 2;
  }
  window_pops_ = 0;
  if (window_gap_ewma_ns_ >= 0) {
    const std::uint64_t width = 8 * static_cast<std::uint64_t>(window_gap_ewma_ns_) + 1;
    shift_ = std::clamp(static_cast<int>(std::bit_width(width)), 0, 40);
    // Size the ring to a multiple of the pending population so the window
    // spans several scheduling horizons: a window of about one horizon would
    // bounce most callback-scheduled events through the overflow heap —
    // paying heap sifts *plus* bucket work. The extra bucket headers cost a
    // few KB.
    const std::size_t target = std::bit_ceil(
        std::clamp<std::size_t>(entries_ * 2, 64, 65536));
    if (target > bucket_count_ || target * 4 < bucket_count_) {
      bucket_count_ = target;
      buckets_.clear();  // all empty; drop capacity together with the resize
      buckets_.resize(bucket_count_);
      occupancy_.assign((bucket_count_ + 63) / 64, 0);
    }
  }

  start_window(overflow_.front().when_ns);

  // Drain every overflow entry that lands in the new window. Heap pops come
  // out in ascending (when, seq) order, so plain appends keep every list
  // sorted.
  while (!overflow_.empty()) {
    const Entry& top = overflow_.front();
    const std::size_t idx = bucket_index(top.when_ns);
    if (idx >= bucket_count_) break;
    append_to_list(top, idx);
    std::pop_heap(overflow_.begin(), overflow_.end(), kMinFirst);
    overflow_.pop_back();
  }
}

void Scheduler::rebuild_window() {
  const auto park = [this](const Entry& entry) {
    overflow_.push_back(entry);
    std::push_heap(overflow_.begin(), overflow_.end(), kMinFirst);
  };
  for (std::size_t i = drain_head_; i < drain_.size(); ++i) park(drain_[i]);
  drain_.clear();
  drain_head_ = 0;
  for (std::size_t idx = next_occupied(0); idx < bucket_count_;
       idx = next_occupied(idx + 1)) {
    for (std::uint32_t slot = buckets_[idx].head; slot != kNil; slot = nodes_[slot].next) {
      park(Entry{nodes_[slot].when_ns, nodes_[slot].seq, slot});
    }
    buckets_[idx] = Bucket{};
    mark_empty(idx);
  }
  migrate_overflow();
}

std::size_t Scheduler::next_occupied(std::size_t from) const {
  if (from >= bucket_count_) return bucket_count_;
  std::size_t word = from >> 6;
  std::uint64_t bits = occupancy_[word] & (~std::uint64_t{0} << (from & 63));
  const std::size_t words = occupancy_.size();
  while (bits == 0) {
    if (++word >= words) return bucket_count_;
    bits = occupancy_[word];
  }
  return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
}

Scheduler::Entry Scheduler::pop_min() {
  Entry entry;
  const bool popped = pop_min_upto(std::numeric_limits<std::int64_t>::max(), entry);
  assert(popped);
  static_cast<void>(popped);
  return entry;
}

bool Scheduler::pop_min_upto(std::int64_t until_ns, Entry& out) {
  // One positioning pass serves both the bound check and the pop, where a
  // peek-then-pop pair would scan the occupancy bitmap twice per executed
  // event.
  if (entries_ == 0) return false;
  if (drain_.empty()) {
    for (;;) {
      cursor_ = next_occupied(cursor_);
      if (cursor_ < bucket_count_) break;
      migrate_overflow();  // buckets exhausted; the minimum waits in overflow
    }
    load_drain();
  }
  out = drain_[drain_head_];
  if (out.when_ns > until_ns) return false;
  if (++drain_head_ == drain_.size()) {
    drain_.clear();  // keeps capacity for the next bucket
    drain_head_ = 0;
    mark_empty(cursor_);
  }
  --entries_;
  note_popped(out.when_ns);
  return true;
}

std::int64_t Scheduler::peek_min_when() const {
  if (entries_ == 0) return kNever;
  if (drain_.empty()) {
    // Memoize the scan: committing cursor advancement and loading the drain
    // buffer are purely structural (buckets below the cursor are verified
    // empty), so peek stays logically const while making the subsequent pop
    // O(1).
    cursor_ = next_occupied(cursor_);
    if (cursor_ == bucket_count_) return overflow_.front().when_ns;
    load_drain();
  }
  return drain_[drain_head_].when_ns;
}

Time Scheduler::next_event_time() const {
  const std::int64_t when = peek_min_when();
  return when == kNever ? Time::max() : Time::nanoseconds(when);
}

// --- execution --------------------------------------------------------------

bool Scheduler::step() {
  while (entries_ > 0) {
    assert(peek_min_when() >= now_.as_nanoseconds());
    Callback cb;
    Time when;
    if (!take_front(cb, when)) continue;
    now_ = when;
    ++executed_;
    cb();
    return true;
  }
  return false;
}

void Scheduler::run_until(Time until) {
  const std::int64_t until_ns = until.as_nanoseconds();
  Entry entry;
  while (pop_min_upto(until_ns, entry)) {
    Callback cb;
    Time when;
    if (!resolve_entry(entry, cb, when)) continue;
    now_ = when;
    ++executed_;
    cb();
  }
  if (now_ < until) now_ = until;
}

}  // namespace tsim::sim
