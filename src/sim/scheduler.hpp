// Discrete-event scheduler: calendar-wheel front end + overflow heap.
//
// The heart of the simulator: a cancellable priority queue of callbacks
// keyed by (time, insertion sequence).  The sequence number makes event
// ordering at equal timestamps FIFO and therefore fully deterministic,
// which the reproducibility tests rely on.
//
// Two structures share that one logical queue:
//
//   * a calendar wheel of kWheelBuckets buckets, each kWheelBucketPs
//     picoseconds wide, covering the near horizon
//     [now, now + kWheelBuckets * kWheelBucketPs).  The events that
//     dominate every scenario — link serialization boundaries,
//     propagation arrivals, per-packet timer ticks — land a few
//     microseconds ahead and go here with O(1) insert and O(1)
//     amortized extract (buckets are sorted once when the clock reaches
//     them; typical occupancy is a handful of entries, stored in one
//     fixed slab so the wheel never allocates past its first insert);
//
//   * the binary min-heap, kept as the far-future overflow for
//     everything past the wheel horizon (retransmission timers,
//     sampler ticks, flow starts).  Far events pay O(log far-pending),
//     near events no longer pay O(log total-pending).
//
// Extraction compares the wheel's earliest live entry with the heap top
// under the same (time, seq) key, so the execution order is exactly the
// single-heap order — the determinism contract is structural, and the
// differential test in tests/sim/scheduler_differential_test.cpp pins
// it against a naive reference heap.
//
// Cancellation is O(1) per event via generation-tagged slots: an EventId
// packs a slot index and the slot's generation at scheduling time;
// cancelling (or executing) an event bumps the generation, so stale
// entries are recognised and skipped when they surface in either
// structure.  Slots are recycled through a free list, keeping
// bookkeeping memory proportional to the number of *live* events, not
// the events ever scheduled.  Stale entries are compacted away (from
// wheel buckets and heap alike) once they outnumber live ones; the
// stale counter, the compaction trigger and the parked-entry peak are
// all kept combined across the two structures so `heap_peak()` and the
// manifest `sched.heap_peak` counter are byte-identical to the
// pre-wheel tree.
//
// Memory model: callbacks are move-only UniqueFunctions that live in
// slot-indexed side arrays, NOT in the wheel/heap entries — entries
// stay 24 bytes, so bucket sorts and sift-up/down move small PODs while
// the callback is written exactly once per event.  Every callback slot
// has the same 32-byte inline buffer: a `this` pointer plus a few words
// (timers, flow starts, sampler ticks) or a pooled packet handle (link
// tx-complete and arrival, cross-shard deliveries, held SYNs).  A packet
// never rides a callback by value; schedule_at static_asserts that each
// capture fits inline, so no event can reach the allocator.  In steady
// state (slots, buckets and heap at their high-water marks)
// schedule/cancel/execute touch the allocator zero times; the
// allocation-regression test enforces this.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/annotations.hpp"
#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace hwatch::sim {

/// Inline capacity of a scheduler callback: a `this` pointer plus a
/// few captured words, or a PoolPtr and a node pointer.
inline constexpr std::size_t kSchedulerCallbackInline = 32;

/// Calendar-wheel geometry.  Bucket width 2^16 ps (~65.5 ns) x 2048
/// buckets spans ~134 us — generously past the serialization +
/// propagation delays that produce the per-packet event churn, while
/// millisecond-scale timers (RTO, delayed ACK, samplers) overflow to
/// the heap.  Both are powers of two so bucket indexing is shift+mask.
inline constexpr unsigned kWheelBucketShift = 16;
inline constexpr TimePs kWheelBucketPs = TimePs{1} << kWheelBucketShift;
inline constexpr std::size_t kWheelBuckets = 2048;
inline constexpr TimePs kWheelSpanPs =
    kWheelBucketPs * static_cast<TimePs>(kWheelBuckets);

/// Fixed per-bucket capacity: bucket storage is one lazily-allocated
/// slab (kWheelBuckets x kWheelBucketCapacity entries, ~768 KiB), so
/// the wheel NEVER allocates after its first insert — a bucket that
/// fills up overflows to the heap, which already handles arbitrary
/// entries and warms to its high-water mark like the single-heap core
/// did.  That keeps the steady-state zero-allocation guarantee exactly
/// as strong as before the wheel existed.
inline constexpr std::size_t kWheelBucketCapacity = 16;

/// Opaque handle identifying a scheduled event; used for cancellation.
struct EventId {
  std::uint64_t value = 0;
  constexpr bool valid() const { return value != 0; }
  friend constexpr bool operator==(EventId a, EventId b) {
    return a.value == b.value;
  }
};

class HWATCH_SHARD_CONFINED Scheduler {
 public:
  using Callback = UniqueFunction<void(), kSchedulerCallbackInline>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Pending callbacks (cancelled or never run) are destroyed with the
  /// scheduler — packets they hold are released, not leaked.
  ~Scheduler() = default;

  /// Current simulated time.  Monotonically non-decreasing during run().
  TimePs now() const { return now_; }

  /// Schedules `f` at absolute time `t` (>= now).  Returns a handle that
  /// can be passed to cancel().  The callable must fit the callback's
  /// inline buffer: an event never allocates.
  template <typename F>
  EventId schedule_at(TimePs t, F&& f) {
    static_assert(Callback::fits_inline<F>(),
                  "scheduler event capture must fit kSchedulerCallbackInline");
    return schedule(t, Callback(std::forward<F>(f)));
  }

  /// Schedules `f` `delay` picoseconds from now.
  template <typename F>
  EventId schedule_in(TimePs delay, F&& f) {
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  /// Cancels a pending event.  Returns false when the event already fired,
  /// was cancelled before, or the id is invalid.  The callback (and
  /// anything it captured, e.g. a pooled Packet) is destroyed
  /// immediately.
  bool cancel(EventId id);

  /// Runs events until the queue is empty or stop() is called.
  void run();

  /// Runs events with time <= `t`, then sets now to `t`.  This is the
  /// conservative time-window primitive ShardGroup builds on: after
  /// run_until(T) every event a callback schedules lands strictly after
  /// T, so cross-shard messages generated in window (T-W, T] are safe to
  /// deliver in the next window.  The epoch window (the topology's
  /// lookahead, typically a microsecond-scale fraction of the base RTT)
  /// is far inside the wheel horizon, so epoch-resident events keep the
  /// O(1) path and the boundary peek is a bitmap scan.
  HWATCH_DETERMINISTIC_PLANE void run_until(TimePs t);

  /// Executes at most one pending event.  Returns false when none remain.
  bool step();

  /// Makes run()/run_until() return after the current callback finishes.
  void stop() { stopped_ = true; }

  bool empty() const { return live_count_ == 0; }

  /// Time of the earliest pending event, or nullopt when none remain.
  /// Non-const: peeking drops stale (cancelled) entries off the front of
  /// both structures.
  std::optional<TimePs> next_event_time() {
    const Entry* e = peek_next();
    return e == nullptr ? std::nullopt : std::optional<TimePs>(e->time);
  }

  /// Number of events currently pending (excludes cancelled ones).
  std::size_t pending() const { return live_count_; }

  /// Total number of events executed since construction.
  std::uint64_t executed() const { return executed_; }

  /// Total number of events ever scheduled.
  std::uint64_t scheduled() const { return next_seq_; }

  /// Total number of successful cancellations.
  std::uint64_t cancelled() const { return cancelled_; }

  /// High-water mark of parked entries across BOTH structures (wheel
  /// buckets + overflow heap, live and not-yet-dropped cancelled alike)
  /// — the scheduler's peak memory footprint in events.  The combined
  /// accounting makes the value independent of the wheel/heap split and
  /// byte-identical to the pre-wheel single-heap peak.
  std::size_t heap_peak() const { return entries_peak_; }

  // --- bookkeeping introspection (memory regression tests) -----------
  /// Callback slots ever allocated; bounded by the peak number of
  /// simultaneously live events, NOT by the events scheduled over time.
  std::size_t bookkeeping_slots() const { return gens_.size(); }
  /// Entries currently parked in the overflow heap, including
  /// not-yet-compacted stale (cancelled) ones.
  std::size_t heap_entries() const { return heap_.size(); }
  /// Entries currently parked in wheel buckets, including
  /// not-yet-dropped stale ones (the consumed prefix of the active
  /// bucket is excluded — those events are already history).
  std::size_t wheel_entries() const { return wheel_count_; }
  /// Combined parked entries (what heap_entries() reported before the
  /// wheel existed).
  std::size_t total_entries() const { return wheel_count_ + heap_.size(); }

 private:
  struct Entry {
    TimePs time;
    std::uint64_t seq;  // tie-breaker: FIFO at equal time
    std::uint32_t slot;  // index into gens_/cbs_
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  static constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};

  static constexpr std::uint64_t pack(std::uint32_t slot, std::uint32_t gen) {
    return ((static_cast<std::uint64_t>(slot) + 1) << 32) | gen;
  }

  static constexpr std::uint64_t bucket_of(TimePs t) {
    return static_cast<std::uint64_t>(t) >> kWheelBucketShift;
  }
  static constexpr std::size_t slot_index(std::uint64_t bucket) {
    return static_cast<std::size_t>(bucket & (kWheelBuckets - 1));
  }

  EventId schedule(TimePs t, Callback cb);
  EventId push_entry(TimePs t, std::uint32_t slot, std::uint32_t gen);

  bool is_live(const Entry& e) const { return gens_[e.slot] == e.gen; }
  void retire(const Entry& e);  // bump generation, recycle the slot

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // --- wheel internals ----------------------------------------------
  Entry* bucket_data(std::size_t idx) {
    return slab_.get() + idx * kWheelBucketCapacity;
  }
  /// Parks `e` in its wheel bucket; false when the bucket is full (the
  /// caller overflows to the heap — never allocate in the wheel).
  bool wheel_insert(const Entry& e, std::uint64_t bucket);
  /// Earliest parked wheel entry (live or stale), sorting/activating
  /// its bucket on first touch; nullptr when the wheel is empty.
  const Entry* wheel_front_entry();
  /// Removes the entry wheel_front_entry() returned; recycles the
  /// bucket once drained.  Counter upkeep beyond wheel_count_
  /// (wheel_live_ / stale_) is the caller's job.
  void wheel_drop_front();
  /// Ring distance from slot `start` to the first occupied bucket slot;
  /// kWheelBuckets when the whole wheel is empty.
  std::size_t occupied_distance(std::size_t start) const;

  void set_occupied(std::size_t i) {
    occupied_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void clear_occupied(std::size_t i) {
    occupied_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  // Finds the next live entry across both structures; remembers where
  // it lives (next_from_wheel_) for step().  Stale entries are dropped
  // exactly when they surface as the GLOBAL minimum — the same instants
  // the single-heap implementation dropped them — which keeps the
  // combined parked count, and with it heap_peak(), byte-identical.
  const Entry* peek_next();
  void heap_drop_top();
  void execute_next();  // pops + runs the entry peek_next() found
  void maybe_compact();

  std::vector<Entry> heap_;  // far-future + overflow min-heap
  std::unique_ptr<Entry[]> slab_;  // bucket storage, allocated on first use
  std::array<std::uint8_t, kWheelBuckets> bucket_sizes_{};
  std::array<std::uint64_t, kWheelBuckets / 64> occupied_{};
  std::uint64_t wheel_front_ = 0;   // no wheel entries below this bucket
  std::uint64_t active_bucket_ = kNoBucket;  // sorted, partially consumed
  std::size_t active_pos_ = 0;      // consumed prefix of the active bucket
  std::size_t wheel_count_ = 0;     // parked wheel entries (live + stale)
  bool next_from_wheel_ = false;    // where peek_next found the minimum
  // Callback slots: gens_ and cbs_ are parallel, slot-indexed arrays;
  // retired slots are recycled through free_slots_.
  std::vector<std::uint32_t> gens_;
  std::vector<Callback> cbs_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t stale_ = 0;  // cancelled entries parked in wheel or heap
  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t entries_peak_ = 0;  // combined wheel+heap high-water mark
  std::size_t live_count_ = 0;
  bool stopped_ = false;
};

}  // namespace hwatch::sim
