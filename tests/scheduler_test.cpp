// Differential test of the EventQueue ladder/calendar scheduler
// (net/event_queue.h): it must pop events in an order BIT-IDENTICAL to a
// reference 4-ary heap — same (when, seq) total order, regardless of how
// inserts were routed across the near/ring/overflow tiers.  The golden trace
// hashes in tests/determinism_test.cpp depend on this; here we pin it
// directly with randomized schedules that exercise every tier transition
// (near inserts, bucket folds, ring reseeds, width re-derivation, overflow
// spill, past-time clamping, re-entrant scheduling from callbacks).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/event_queue.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace matrix {
namespace {

using namespace time_literals;

/// The oracle: a plain 4-ary min-heap over (when, seq) with the same
/// scheduling surface the differential test drives — the structure the
/// ladder's pop order must reproduce exactly.
class ReferenceHeap {
 public:
  void schedule_at(SimTime when, std::function<void()> action) {
    if (when < now_) when = now_;
    heap_.push_back(Entry{when, next_seq_++, std::move(action)});
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(heap_[i], heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }
  void schedule_after(SimTime delay, std::function<void()> action) {
    schedule_at(now_ + delay, std::move(action));
  }
  bool step() {
    if (heap_.empty()) return false;
    std::swap(heap_.front(), heap_.back());
    Entry top = std::move(heap_.back());
    heap_.pop_back();
    std::size_t i = 0;
    while (true) {
      std::size_t best = i;
      for (std::size_t c = i * kArity + 1; c <= i * kArity + kArity; ++c) {
        if (c < heap_.size() && before(heap_[c], heap_[best])) best = c;
      }
      if (best == i) break;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
    now_ = top.when;
    ++events_processed_;
    top.action();
    return true;
  }
  void run_until(SimTime until) {
    while (!heap_.empty() && heap_.front().when <= until) step();
    if (now_ < until) now_ = until;
  }
  void run_all() {
    while (step()) {
    }
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }

 private:
  static constexpr std::size_t kArity = 4;
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::function<void()> action;
  };
  static bool before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  std::vector<Entry> heap_;
  SimTime now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
};

/// Execution log: (execution time, marker) per event, in pop order.
using Log = std::vector<std::pair<std::int64_t, std::uint64_t>>;

/// Draws a scheduling offset that exercises all three tiers.  Mixes
/// same-instant, near-future (near heap / early buckets), medium (deep ring,
/// multiple bucket folds), far (overflow + ring reseed) and extreme (width
/// clamp) horizons, plus past times that must clamp to "now".
SimTime draw_when(Rng& rng, SimTime now) {
  switch (rng.next_below(10)) {
    case 0:
      return now;  // same instant: seq order must decide
    case 1:
    case 2:
    case 3:
      return now + SimTime::from_us(static_cast<std::int64_t>(
                       rng.next_below(200)));  // near
    case 4:
    case 5:
    case 6:
      return now + SimTime::from_us(static_cast<std::int64_t>(
                       rng.next_below(50'000)));  // deep ring
    case 7:
    case 8:
      return now + SimTime::from_us(static_cast<std::int64_t>(
                       rng.next_below(600'000'000)));  // overflow (10 min)
    default: {
      // Past: clamped to now.  Clamp before now_ ever advanced is a no-op,
      // so mix in genuinely-late times relative to the current clock.
      const auto back = static_cast<std::int64_t>(rng.next_below(1'000'000));
      const SimTime when = now - SimTime::from_us(back);
      return when;
    }
  }
}

/// Runs one randomized schedule/pop interleaving against `queue` and returns
/// the execution log.  The op stream depends only on `seed`, never on the
/// queue's internals, so both queues see the identical request sequence.
template <typename Queue>
Log run_schedule(Queue& queue, std::uint64_t seed, int ops) {
  Rng rng(seed);
  Log log;
  std::uint64_t marker = 0;
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 70 || queue.empty()) {
      const SimTime when = draw_when(rng, queue.now());
      const std::uint64_t id = marker++;
      if (rng.next_below(8) == 0) {
        // Re-entrant: the callback itself schedules a follow-up, landing in
        // whatever tier the clock has reached by then.
        const auto delay =
            SimTime::from_us(static_cast<std::int64_t>(rng.next_below(5'000)));
        queue.schedule_at(when, [&queue, &log, id, delay] {
          log.emplace_back(queue.now().us(), id);
          queue.schedule_after(delay, [&queue, &log, id] {
            log.emplace_back(queue.now().us(), id | (1ULL << 63));
          });
        });
        ++marker;  // account for the follow-up so markers stay aligned
      } else {
        queue.schedule_at(when, [&queue, &log, id] {
          log.emplace_back(queue.now().us(), id);
        });
      }
    } else if (roll < 90) {
      queue.step();
    } else {
      // Window drains hit the bucket-fold path in bursts.
      queue.run_until(queue.now() + SimTime::from_us(static_cast<std::int64_t>(
                                        rng.next_below(100'000))));
    }
  }
  queue.run_all();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.pending(), 0u);
  return log;
}

TEST(SchedulerTest, LadderMatchesHeapPopOrder) {
  // >= 20 seeds x 10k mixed ops: the ladder must produce the exact event
  // sequence of the reference heap — same times AND same tie-break order.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    ReferenceHeap heap;
    EventQueue ladder;
    const Log expected = run_schedule(heap, seed, 10'000);
    const Log actual = run_schedule(ladder, seed, 10'000);
    ASSERT_EQ(expected, actual) << "seed " << seed;
    EXPECT_EQ(heap.events_processed(), ladder.events_processed());
    EXPECT_EQ(heap.now(), ladder.now());
  }
}

TEST(SchedulerTest, SameInstantEventsPopInScheduleOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    queue.schedule_at(5_ms, [&order, i] { order.push_back(i); });
  }
  queue.run_all();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerTest, PastTimesClampToNowAfterQueuedPeers) {
  // An event scheduled in the past runs at "now" — but still AFTER events
  // already queued at the current instant (its sequence number is larger).
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(10_ms, [&] {
    queue.schedule_at(queue.now(), [&order] { order.push_back(1); });
    queue.schedule_at(2_ms, [&order] { order.push_back(2); });  // the past
    order.push_back(0);
  });
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.now(), 10_ms);
}

TEST(SchedulerTest, NextTimeTracksGlobalMinimumAcrossTiers) {
  // next_time() must be the global minimum even when the earliest event sits
  // far past the current ring (overflow tier) — the settle invariant keeps
  // the near heap fronting the whole queue.
  EventQueue queue;
  queue.schedule_at(SimTime::from_sec(7200), [] {});  // overflow (past the initial ring)
  EXPECT_EQ(queue.next_time(), SimTime::from_sec(7200));
  queue.schedule_at(SimTime::from_sec(1800), [] {});
  EXPECT_EQ(queue.next_time(), SimTime::from_sec(1800));
  queue.schedule_at(10_us, [] {});
  EXPECT_EQ(queue.next_time(), 10_us);
  EXPECT_EQ(queue.pending(), 3u);
  queue.run_all();
  EXPECT_EQ(queue.now(), SimTime::from_sec(7200));
}

TEST(SchedulerTest, ExtractTaggedRemovesOnlyMatchingEvents) {
  // Tagged extraction across all three tiers: the migrating node's events
  // come out in (when, seq) order; everything else keeps its pop order.
  EventQueue queue;
  std::vector<int> stayed;
  constexpr EventQueue::Tag kMine = 7;
  constexpr EventQueue::Tag kOther = 8;
  queue.schedule_at(1_ms, kMine, [] {});
  queue.schedule_at(1_ms, kOther, [&] { stayed.push_back(0); });
  queue.schedule_at(40_ms, kMine, [] {});    // ring tier
  queue.schedule_at(SimTime::from_sec(1200), kMine, [] {});   // overflow tier
  queue.schedule_at(5_ms, kOther, [&] { stayed.push_back(1); });

  std::vector<EventQueue::MigratedEvent> moved;
  queue.extract_tagged(kMine, moved);
  ASSERT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved[0].when, 1_ms);
  EXPECT_EQ(moved[1].when, 40_ms);
  EXPECT_EQ(moved[2].when, SimTime::from_sec(1200));
  EXPECT_TRUE(moved[0].order < moved[1].order);

  // Re-home into a fresh queue: the moved callbacks still run.
  EventQueue dest;
  std::vector<std::int64_t> landed;
  for (EventQueue::MigratedEvent& event : moved) {
    const SimTime when = event.when;
    dest.schedule_at(when, kMine,
                     [&landed, when] { landed.push_back(when.us()); });
    (void)event;
  }
  dest.run_all();
  EXPECT_EQ(landed, (std::vector<std::int64_t>{1'000, 40'000, 1'200'000'000}));

  queue.run_all();
  EXPECT_EQ(stayed, (std::vector<int>{0, 1}));
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(SchedulerTest, ReentrantGrowthKeepsSlabStable) {
  // A callback scheduling thousands of events while running forces slab
  // growth mid-invoke; the deque keeps the running slot stable.
  EventQueue queue;
  int executed = 0;
  queue.schedule_at(1_us, [&] {
    for (int i = 0; i < 5'000; ++i) {
      queue.schedule_after(SimTime::from_us(i % 97), [&] { ++executed; });
    }
  });
  queue.run_all();
  EXPECT_EQ(executed, 5'000);
  EXPECT_GE(queue.peak_pending(), 5'000u);
}

}  // namespace
}  // namespace matrix
