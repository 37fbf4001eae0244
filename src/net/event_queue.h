// Discrete-event scheduler.
//
// A single priority structure of (time, sequence) ordered events drives the
// whole simulation: message deliveries, node service completions, game ticks,
// and scenario actions (hotspot arrival at t=10s, ...).  The sequence number
// breaks time ties in insertion order, which makes runs fully deterministic.
//
// The priority structure is a two-tier calendar/ladder queue.  A NEAR tier
// (a small 4-ary heap, restricted to events inside the currently loaded
// bucket's time range) is backed by a ring of time buckets, spilling to an
// OVERFLOW tier for events past the ring.  Scheduling into a bucket or the
// overflow is an O(1) push_back; the log factor only ever applies to one
// bucket's occupancy, not the whole pending set.  Bucket width is derived
// from the observed inter-event spacing of the overflow population and
// re-tuned only at ring reseed epochs — there is no per-operation rehash.  A
// bucket that comes up for folding overfull (dense workloads cluster events
// in time) is first split across a finer-grained sub-rung — one O(n)
// re-file, the ladder-queue "spawn a rung" move — so the near heap stays
// small even when one bucket's range holds thousands of events.
//
// Pop order is the exact (when, seq) order of a plain priority queue: every
// event with when < near_end_ lives in the near heap (inserts are routed by
// time, and a bucket's whole range is folded into the near heap before any
// of it can pop), so the near-heap minimum is always the global (when, seq)
// minimum.  tests/scheduler_test.cpp pins this with a randomized
// differential test against a reference 4-ary heap.
//
// Hot-path layout: tier entries are 16-byte PODs (when + a packed seq/slot
// word) — sift and bucket moves are trivial copies.  The callbacks live in a
// separate slab of small-buffer-optimized InlineAction slots (a deque, so
// slots never move) recycled through a freelist: steady-state scheduling
// performs no allocation, and popping invokes the callback in place.  Each
// slot also carries an optional owner tag (NodeId) so the sharded engine can
// extract and re-home a migrating node's pending events (extract_tagged).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <vector>

#include "util/inline_function.h"
#include "util/sim_time.h"

namespace matrix {

class EventQueue {
 public:
  using Action = InlineAction;
  /// Slot owner tag (NodeId::value of the node an event belongs to, or
  /// kNoTag).  Only consulted by extract_tagged — never by pop order.
  using Tag = std::uint64_t;
  static constexpr Tag kNoTag = 0;

  /// One extracted pending event (see extract_tagged): its absolute time,
  /// its (seq) order word for deterministic re-insertion order, and the
  /// callback moved out of the slab.
  struct MigratedEvent {
    SimTime when{};
    std::uint64_t order = 0;
    Action action;
  };

  /// Schedules `action` to run at absolute time `when`.  Scheduling in the
  /// past is clamped to "now" (runs next, still after already-queued events
  /// at the current instant).  The callable is constructed directly in its
  /// slab slot — no intermediate Action object, no relocation.
  template <typename F>
  void schedule_at(SimTime when, F&& action) {
    schedule_at(when, kNoTag, std::forward<F>(action));
  }

  /// As schedule_at, additionally stamping the slab slot with `tag` so the
  /// event can later be re-homed by extract_tagged (shard rebalancing).
  template <typename F>
  void schedule_at(SimTime when, Tag tag, F&& action) {
    if (when < now_) when = now_;
    const std::uint32_t slot = acquire_slot();
    slots_[slot].assign(std::forward<F>(action));
    slot_tags_[slot] = tag;
    file_entry(HeapEntry{when, (next_seq_++ << kSlotBits) | slot});
    const std::size_t depth = pending();
    if (depth > peak_pending_) peak_pending_ = depth;
  }

  /// Schedules `action` to run `delay` after the current time.
  template <typename F>
  void schedule_after(SimTime delay, F&& action) {
    schedule_at(now_ + delay, kNoTag, std::forward<F>(action));
  }

  template <typename F>
  void schedule_after(SimTime delay, Tag tag, F&& action) {
    schedule_at(now_ + delay, tag, std::forward<F>(action));
  }

  [[nodiscard]] SimTime now() const { return now_; }
  /// Invariant (settle): the near heap is non-empty whenever ANY tier holds
  /// an event, so emptiness and next_time() are O(1) reads of the near heap.
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + sub_pending_ + ring_pending_ + overflow_.size();
  }
  /// Timestamp of the earliest pending event.  Precondition: !empty().
  /// The sharded engine (net/network.h) uses this to pick the next
  /// conservative window horizon without popping anything.
  [[nodiscard]] SimTime next_time() const { return heap_[0].when; }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }
  /// High-water mark of simultaneously pending events (all tiers).
  [[nodiscard]] std::size_t peak_pending() const { return peak_pending_; }

  /// Runs the next event; returns false when the queue is empty.
  bool step() {
    if (heap_.empty()) return false;
    const HeapEntry top = heap_[0];
    heap_pop();
    if (heap_.empty()) settle();
    now_ = top.when;
    ++events_processed_;
    // Invoke in place — the slab is a deque, so slots stay put while the
    // action schedules new events.  The slot is recycled only afterwards,
    // so re-entrant scheduling can never alias the running callback.
    const std::uint32_t slot = top.slot();
    slots_[slot].invoke_and_reset();
    free_slots_.push_back(slot);
    return true;
  }

  /// Runs all events with time <= `until`, then advances the clock to
  /// `until` even if no event lands exactly there.
  void run_until(SimTime until) {
    while (!heap_.empty() && heap_[0].when <= until) {
      step();
    }
    if (now_ < until) now_ = until;
  }

  /// Runs all events with time strictly < `end`, then advances the clock to
  /// `end`.  The EXCLUSIVE window the sharded engine's barrier loop needs:
  /// events landing exactly on a window boundary (e.g. merged cross-shard
  /// mail at the horizon) run in the next window, after the merge, so their
  /// ordering is decided by the deterministic mailbox merge — never by
  /// which side of the barrier happened to process them.
  void run_window(SimTime end) {
    while (!heap_.empty() && heap_[0].when < end) {
      step();
    }
    if (now_ < end) now_ = end;
  }

  /// Drains the queue completely (use with care: periodic events must have
  /// a termination condition or this never returns).
  void run_all() {
    while (step()) {
    }
  }

  /// Removes every pending event whose slot carries `tag` and appends them
  /// to `out` in (when, seq) order, releasing their slab slots.  Used by
  /// Network shard rebalancing to re-home a migrating node's events — only
  /// from control context at a barrier.  O(pending) tier rebuild.
  void extract_tagged(Tag tag, std::vector<MigratedEvent>& out) {
    const std::size_t first = out.size();
    auto take = [&](std::vector<HeapEntry>& tier) {
      std::size_t kept = 0;
      for (HeapEntry& entry : tier) {
        const std::uint32_t slot = entry.slot();
        if (slot_tags_[slot] == tag) {
          out.push_back(MigratedEvent{entry.when, entry.seq_slot,
                                      std::move(slots_[slot])});
          free_slots_.push_back(slot);
        } else {
          tier[kept++] = entry;
        }
      }
      tier.resize(kept);
    };
    take(heap_);
    heapify();
    for (std::size_t b = sub_cur_; b < sub_buckets_.size(); ++b) {
      const std::size_t before = sub_buckets_[b].size();
      take(sub_buckets_[b]);
      sub_pending_ -= before - sub_buckets_[b].size();
    }
    for (std::size_t b = cur_bucket_; b < buckets_.size(); ++b) {
      const std::size_t before = buckets_[b].size();
      take(buckets_[b]);
      ring_pending_ -= before - buckets_[b].size();
    }
    take(overflow_);
    if (heap_.empty()) settle();
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const MigratedEvent& a, const MigratedEvent& b) {
                if (a.when != b.when) return a.when < b.when;
                return a.order < b.order;
              });
  }

 private:
  /// Slot index width inside the packed (seq, slot) word.  2^24 concurrent
  /// events would mean a multi-gigabyte slab, far past any workload here;
  /// sequence numbers keep 40 bits — a trillion events per run.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;

  /// 16-byte tier entry: time plus (seq << 24 | slot).  Comparing the packed
  /// word on time ties orders by sequence — the slot bits can never decide,
  /// because sequence numbers are unique.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq_slot;

    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & kSlotMask);
    }

    /// Min-heap order: earliest time, then lowest sequence.
    [[nodiscard]] bool before(const HeapEntry& other) const {
      if (when != other.when) return when < other.when;
      return seq_slot < other.seq_slot;
    }
  };
  static_assert(sizeof(HeapEntry) == 16);

  static constexpr std::size_t kArity = 4;
  /// Bucket-ring size.  Fixed (a power of two, ~48KB of vector headers,
  /// allocated lazily on first ring use); only the bucket WIDTH adapts.
  static constexpr std::size_t kBuckets = 2048;
  /// Sub-rung size (1 << kSubShift) and the fold-occupancy bar above which a
  /// ring bucket is split across it instead of folded wholesale.  64 keeps
  /// near-heap pops at ~3 levels of a 4-ary heap.
  static constexpr int kSubShift = 8;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubShift;
  static constexpr std::size_t kSplitThreshold = 64;
  /// Width ceiling: keeps ring_end arithmetic far from SimTime overflow
  /// even for degenerate month-out timer sets.
  static constexpr std::int64_t kMaxWidthUs = 3'600'000'000;  // 1 hour

  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    slots_.emplace_back();
    slot_tags_.push_back(kNoTag);
    // The slot index must fit the packed heap word; 2^24 concurrent events
    // would need a multi-gigabyte slab, so this is a loud tripwire for an
    // impossible state, not a reachable limit.
    assert(slots_.size() <= kSlotMask + 1);
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Routes a new entry to its tier.  Near events (when < near_end_, the
  /// exclusive top of the range already folded into the near heap) take the
  /// heap; events in the active sub-rung's remaining range or the ring take
  /// an O(1) bucket push; the far future takes the overflow.
  void file_entry(HeapEntry entry) {
    if (entry.when < near_end_) {
      heap_push(entry);
      return;
    }
    if (sub_active_ && entry.when < sub_end_) {
      const std::size_t index = static_cast<std::size_t>(
          (entry.when - sub_start_).us() >> sub_shift_);
      assert(index >= sub_cur_ && index < kSubBuckets);
      sub_buckets_[index].push_back(entry);
      ++sub_pending_;
    } else if (entry.when < ring_end_) {
      if (buckets_.empty()) buckets_.resize(kBuckets);
      // Bucket widths are powers of two, so indexing is a shift — no
      // division on the per-insert hot path.
      const std::size_t index = static_cast<std::size_t>(
          (entry.when - ring_start_).us() >> width_shift_);
      assert(index >= cur_bucket_ && index < kBuckets);
      buckets_[index].push_back(entry);
      ++ring_pending_;
    } else {
      overflow_.push_back(entry);
    }
    // Keep the settle invariant: the near heap fronts a non-empty queue.
    if (heap_.empty()) settle();
  }

  /// Restores the invariant that the near heap holds the global minimum:
  /// folds the next non-empty (sub-)bucket into the (empty) near heap,
  /// splitting an overfull ring bucket across the sub-rung first and
  /// reseeding the ring from the overflow when the ring itself is drained.
  /// Called whenever the near heap goes empty; amortized O(1) per event.
  void settle() {
    assert(heap_.empty());
    while (true) {
      if (sub_pending_ > 0) {
        while (sub_buckets_[sub_cur_].empty()) ++sub_cur_;
        std::vector<HeapEntry>& bucket = sub_buckets_[sub_cur_];
        heap_.assign(bucket.begin(), bucket.end());
        sub_pending_ -= bucket.size();
        bucket.clear();
        ++sub_cur_;
        near_end_ = sub_start_ + sub_width_ * static_cast<std::int64_t>(sub_cur_);
        heapify();
        return;
      }
      if (sub_active_) {
        // Sub-rung drained: everything still pending sits at or past its
        // range, so the whole split-bucket range is "near" now.
        near_end_ = sub_end_;
        sub_active_ = false;
      }
      if (ring_pending_ > 0) {
        while (buckets_[cur_bucket_].empty()) ++cur_bucket_;
        std::vector<HeapEntry>& bucket = buckets_[cur_bucket_];
        if (bucket.size() > kSplitThreshold && width_shift_ > 0) {
          split_bucket(bucket);
          continue;  // fold the first non-empty sub bucket
        }
        heap_.assign(bucket.begin(), bucket.end());
        ring_pending_ -= bucket.size();
        bucket.clear();
        ++cur_bucket_;
        near_end_ = ring_start_ + width_ * static_cast<std::int64_t>(cur_bucket_);
        heapify();
        return;
      }
      if (overflow_.empty()) return;  // truly empty
      reseed_ring();
    }
  }

  /// The ladder-queue "spawn a rung" move: re-files one overfull ring
  /// bucket across kSubBuckets finer buckets covering exactly its range, so
  /// folds hand the near heap dozens of events instead of thousands.  One
  /// O(n) pass; the sub-rung drains before the ring advances, preserving
  /// fold order.  Sub widths are powers of two like the ring's, so inserts
  /// landing in the active sub range stay a shift away from their bucket.
  void split_bucket(std::vector<HeapEntry>& bucket) {
    sub_shift_ = width_shift_ > kSubShift ? width_shift_ - kSubShift : 0;
    sub_start_ = ring_start_ + width_ * static_cast<std::int64_t>(cur_bucket_);
    sub_end_ = sub_start_ + width_;
    sub_width_ = SimTime::from_us(std::int64_t{1} << sub_shift_);
    sub_cur_ = 0;
    if (sub_buckets_.empty()) sub_buckets_.resize(kSubBuckets);
    for (const HeapEntry& entry : bucket) {
      const std::size_t index = static_cast<std::size_t>(
          (entry.when - sub_start_).us() >> sub_shift_);
      assert(index < kSubBuckets);
      sub_buckets_[index].push_back(entry);
    }
    sub_pending_ = bucket.size();
    ring_pending_ -= bucket.size();
    bucket.clear();
    ++cur_bucket_;
    sub_active_ = true;
  }

  /// Ring reseed = one epoch: re-anchor the ring at the earliest overflow
  /// event, re-derive the bucket width from the observed population, and
  /// re-file every overflow event that now fits the ring.  Events past the
  /// new ring stay in the overflow for a later epoch.
  void reseed_ring() {
    assert(!overflow_.empty());
    SimTime lo = overflow_.front().when;
    SimTime hi = lo;
    for (const HeapEntry& entry : overflow_) {
      if (entry.when < lo) lo = entry.when;
      if (entry.when > hi) hi = entry.when;
    }
    // Width tuning, once per epoch: cover the whole observed span when it
    // fits (span/kBuckets), but never drop below ~4x the observed mean
    // inter-event spacing — sparse far-future populations then get wide
    // buckets instead of a ring of singletons.  The result is rounded up to
    // a power of two so the per-insert bucket index is a shift.
    const std::int64_t span = (hi - lo).us();
    const auto count = static_cast<std::int64_t>(overflow_.size());
    std::int64_t width = span / static_cast<std::int64_t>(kBuckets) + 1;
    const std::int64_t spacing_floor = 4 * (span / count + 1);
    if (width < spacing_floor) width = spacing_floor;
    if (width > kMaxWidthUs) width = kMaxWidthUs;
    width_shift_ = 0;
    while ((std::int64_t{1} << width_shift_) < width) ++width_shift_;
    assert(lo >= ring_end_ && "overflow events precede the drained ring");
    ring_start_ = lo;
    width_ = SimTime::from_us(std::int64_t{1} << width_shift_);
    ring_end_ = ring_start_ + width_ * static_cast<std::int64_t>(kBuckets);
    cur_bucket_ = 0;
    near_end_ = ring_start_;
    if (buckets_.empty()) buckets_.resize(kBuckets);
    const SimTime end = ring_end_;
    std::size_t kept = 0;
    for (const HeapEntry& entry : overflow_) {
      if (entry.when < end) {
        const std::size_t index = static_cast<std::size_t>(
            (entry.when - ring_start_).us() >> width_shift_);
        buckets_[index].push_back(entry);
        ++ring_pending_;
      } else {
        overflow_[kept++] = entry;
      }
    }
    overflow_.resize(kept);
  }

  void heap_push(HeapEntry entry) {
    std::size_t i = heap_.size();
    heap_.push_back(entry);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!entry.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = entry;
  }

  /// Sifts `entry` down from position `i` to its resting place.
  void sift_down(std::size_t i, HeapEntry entry) {
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      const std::size_t end =
          first_child + kArity < n ? first_child + kArity : n;
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (heap_[c].before(heap_[best])) best = c;
      }
      if (!heap_[best].before(entry)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = entry;
  }

  void heap_pop() {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return;
    sift_down(0, last);
  }

  /// Floyd build over an arbitrarily ordered heap_ (bucket load, extract).
  void heapify() {
    if (heap_.size() < 2) return;
    for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) {
      sift_down(i, heap_[i]);
    }
  }

  // Near tier: 4-ary min-heap over the events with when < near_end_.
  std::vector<HeapEntry> heap_;
  // Ring tier: kBuckets buckets of width width_ starting at ring_start_;
  // buckets below cur_bucket_ are forever empty (their range is < near_end_).
  std::vector<std::vector<HeapEntry>> buckets_;
  SimTime ring_start_{};
  SimTime width_ = SimTime::from_us(64);  // always 1 << width_shift_
  int width_shift_ = 6;
  SimTime ring_end_ =
      SimTime::from_us(64 * static_cast<std::int64_t>(kBuckets));
  SimTime near_end_{};
  std::size_t cur_bucket_ = 0;
  std::size_t ring_pending_ = 0;
  // Sub-rung: kSubBuckets finer buckets covering exactly one split ring
  // bucket's range [sub_start_, sub_end_); drained before the ring advances.
  std::vector<std::vector<HeapEntry>> sub_buckets_;
  SimTime sub_start_{};
  SimTime sub_end_{};
  SimTime sub_width_{};
  int sub_shift_ = 0;
  std::size_t sub_cur_ = 0;
  std::size_t sub_pending_ = 0;
  bool sub_active_ = false;
  // Overflow tier: unsorted events at or past ring_end, re-filed at reseed.
  std::vector<HeapEntry> overflow_;

  // Callback slab, indexed by HeapEntry::slot.  A deque so references stay
  // stable while a running action schedules (and thus grows the slab).
  // slot_tags_ parallels it with the owner tag extract_tagged filters on.
  std::deque<Action> slots_;
  std::deque<Tag> slot_tags_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::size_t peak_pending_ = 0;
};

}  // namespace matrix
