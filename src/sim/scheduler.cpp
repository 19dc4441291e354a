#include "sim/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace hwatch::sim {

// Ordering invariant the wheel relies on (and the reason it needs no
// "catch-up" sweep): stale entries are dropped the moment they surface
// as the global minimum (peek_next) or at compaction — exactly as the
// single-heap implementation did — so no parked entry, live or stale,
// ever has a time below now_.  Every parked entry therefore lives in
// bucket range [bucket_of(now_), bucket_of(now_) + kWheelBuckets), the
// bucket->slot map is injective over that window, and ring order from
// wheel_front_ equals absolute bucket order.

EventId Scheduler::push_entry(TimePs t, std::uint32_t slot,
                              std::uint32_t gen) {
  const Entry e{t, next_seq_++, slot, gen};
  const std::uint64_t bucket = bucket_of(t);
  const bool in_wheel =
      bucket < bucket_of(now_) + kWheelBuckets && wheel_insert(e, bucket);
  if (!in_wheel) {
    // Past the horizon, or the target bucket is at capacity: the heap
    // takes it.  peek_next() handles near-time heap entries naturally.
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  const std::size_t parked = wheel_count_ + heap_.size();
  if (parked > entries_peak_) entries_peak_ = parked;
  ++live_count_;
  return EventId{pack(slot, gen)};
}

EventId Scheduler::schedule(TimePs t, Callback cb) {
  if (t < now_) {
    throw std::invalid_argument("Scheduler: event scheduled in the past");
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    cbs_[slot] = std::move(cb);
  } else {
    slot = static_cast<std::uint32_t>(gens_.size());
    gens_.push_back(0);
    cbs_.push_back(std::move(cb));
  }
  return push_entry(t, slot, gens_[slot]);
}

void Scheduler::retire(const Entry& e) {
  ++gens_[e.slot];
  free_slots_.push_back(e.slot);
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>((id.value >> 32) - 1);
  const std::uint32_t gen = static_cast<std::uint32_t>(id.value);
  // Only ids whose generation is still current may be cancelled; fired,
  // cancelled or invalid ids are rejected so live_count_ stays accurate.
  if (slot >= gens_.size() || gens_[slot] != gen) return false;
  // The parked entry (wheel bucket or heap) cannot be removed directly;
  // bumping the generation marks it stale, and it is skipped (or
  // compacted) later.  The callback is destroyed now so captured
  // resources don't linger.
  ++gens_[slot];
  cbs_[slot].reset();
  free_slots_.push_back(slot);
  --live_count_;
  ++cancelled_;
  ++stale_;
  maybe_compact();
  return true;
}

void Scheduler::maybe_compact() {
  // Sweep stale entries out of both structures once they dominate;
  // amortized O(1) and keeps parked memory proportional to live events.
  // The trigger compares against the COMBINED parked count so it fires
  // at the same instants as the single-heap implementation did.
  if (stale_ < 64 || stale_ * 2 < heap_.size() + wheel_count_) return;
  std::erase_if(heap_, [this](const Entry& e) { return !is_live(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    std::uint64_t bits = occupied_[w];
    while (bits != 0) {
      const std::size_t idx =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      Entry* b = bucket_data(idx);
      const std::size_t before = bucket_sizes_[idx];
      // remove_if is stable, so a sorted (active) bucket stays sorted.
      Entry* kept = std::remove_if(
          b, b + before, [this](const Entry& e) { return !is_live(e); });
      const auto after = static_cast<std::size_t>(kept - b);
      bucket_sizes_[idx] = static_cast<std::uint8_t>(after);
      std::size_t removed = before - after;
      if (active_bucket_ != kNoBucket && idx == slot_index(active_bucket_)) {
        // The consumed prefix (already-fired entries, generations long
        // bumped) was swept too, but it was not parked: it left
        // wheel_count_ when it fired.
        removed -= active_pos_;
        active_pos_ = 0;
        if (after == 0) active_bucket_ = kNoBucket;
      }
      wheel_count_ -= removed;
      if (after == 0) clear_occupied(idx);
    }
  }
  stale_ = 0;
}

bool Scheduler::wheel_insert(const Entry& e, std::uint64_t bucket) {
  if (slab_ == nullptr) {
    slab_ = std::make_unique_for_overwrite<Entry[]>(kWheelBuckets *
                                                    kWheelBucketCapacity);
  }
  const std::size_t idx = slot_index(bucket);
  std::uint8_t& n = bucket_sizes_[idx];
  if (n == kWheelBucketCapacity) return false;  // full: overflow to heap
  Entry* b = bucket_data(idx);
  assert(n == 0 || bucket_of(b[0].time) == bucket);
  if (n == 0) {
    set_occupied(idx);
    b[0] = e;
  } else if (bucket == active_bucket_) {
    // Keep the active bucket's sorted invariant.  The new entry can
    // never land in the consumed prefix: its time is >= now_ and its
    // seq is the largest ever issued.
    std::size_t pos = active_pos_;
    while (pos < n && earlier(b[pos], e)) ++pos;
    for (std::size_t j = n; j > pos; --j) b[j] = b[j - 1];
    b[pos] = e;
  } else {
    b[n] = e;
  }
  ++n;
  if (active_bucket_ != kNoBucket && bucket < active_bucket_) {
    // The wheel minimum moved to an earlier bucket (possible only while
    // now_ is still below the active bucket's span).  Flush the active
    // bucket's dead prefix — those entries already fired or were
    // dropped and are not counted anywhere — and let the next peek
    // re-activate whichever bucket is earliest.
    const std::size_t aidx = slot_index(active_bucket_);
    Entry* ab = bucket_data(aidx);
    std::uint8_t& an = bucket_sizes_[aidx];
    std::copy(ab + active_pos_, ab + an, ab);
    an = static_cast<std::uint8_t>(an - active_pos_);
    active_bucket_ = kNoBucket;
    active_pos_ = 0;
  }
  if (bucket < wheel_front_) wheel_front_ = bucket;
  ++wheel_count_;
  return true;
}

std::size_t Scheduler::occupied_distance(std::size_t start) const {
  constexpr std::size_t kWords = kWheelBuckets / 64;
  std::size_t word = start >> 6;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
  // kWords + 1 iterations: the start word is visited twice — masked to
  // bits >= start on entry, unmasked for the sub-start wrap-around.
  for (std::size_t i = 0; i <= kWords; ++i) {
    if (bits != 0) {
      const std::size_t slot =
          (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      return (slot + kWheelBuckets - start) & (kWheelBuckets - 1);
    }
    word = (word + 1) & (kWords - 1);
    bits = occupied_[word];
  }
  return kWheelBuckets;
}

const Scheduler::Entry* Scheduler::wheel_front_entry() {
  if (wheel_count_ == 0) return nullptr;
  if (active_bucket_ != kNoBucket) {
    return bucket_data(slot_index(active_bucket_)) + active_pos_;
  }
  const std::uint64_t cur = bucket_of(now_);
  // Buckets below now_ are provably empty (see the invariant at the top
  // of this file); snapping the scan start to now_ keeps ring order ==
  // absolute order even across large run_until() jumps.
  if (wheel_front_ < cur) wheel_front_ = cur;
  const std::size_t dist = occupied_distance(slot_index(wheel_front_));
  assert(dist < kWheelBuckets);
  const std::uint64_t bucket = wheel_front_ + dist;
  const std::size_t idx = slot_index(bucket);
  Entry* b = bucket_data(idx);
  assert(bucket_sizes_[idx] > 0 && bucket_of(b[0].time) == bucket);
  if (bucket_sizes_[idx] > 1) {
    std::sort(b, b + bucket_sizes_[idx],
              [](const Entry& a, const Entry& c) { return earlier(a, c); });
  }
  wheel_front_ = bucket;
  active_bucket_ = bucket;
  active_pos_ = 0;
  return b;
}

void Scheduler::wheel_drop_front() {
  const std::size_t idx = slot_index(active_bucket_);
  ++active_pos_;
  --wheel_count_;
  if (active_pos_ == bucket_sizes_[idx]) {
    bucket_sizes_[idx] = 0;
    clear_occupied(idx);
    wheel_front_ = active_bucket_ + 1;
    active_bucket_ = kNoBucket;
    active_pos_ = 0;
  }
}

void Scheduler::heap_drop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

const Scheduler::Entry* Scheduler::peek_next() {
  for (;;) {
    const Entry* w = wheel_front_entry();
    const Entry* h = heap_.empty() ? nullptr : &heap_.front();
    bool from_wheel;
    if (w != nullptr && h != nullptr) {
      // Same (time, seq) key the heap comparator uses; seqs are unique,
      // so the order is total and FIFO at equal timestamps.
      from_wheel =
          w->time < h->time || (w->time == h->time && w->seq < h->seq);
    } else if (w != nullptr) {
      from_wheel = true;
    } else if (h != nullptr) {
      from_wheel = false;
    } else {
      return nullptr;
    }
    const Entry* best = from_wheel ? w : h;
    if (is_live(*best)) {
      next_from_wheel_ = from_wheel;
      return best;
    }
    // A stale entry surfacing as the global minimum: drop it now,
    // exactly when the single-heap implementation would have popped it.
    --stale_;
    if (from_wheel) {
      wheel_drop_front();
    } else {
      heap_drop_top();
    }
  }
}

void Scheduler::execute_next() {
  Entry e;
  if (next_from_wheel_) {
    e = bucket_data(slot_index(active_bucket_))[active_pos_];
    wheel_drop_front();
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    e = heap_.back();
    heap_.pop_back();
  }
  assert(e.time >= now_);
  now_ = e.time;
  --live_count_;
  ++executed_;
  // Move the callback out before recycling the slot: a callback
  // scheduled from inside cb() may reuse the slot immediately.
  Callback cb = std::move(cbs_[e.slot]);
  retire(e);
  cb();
}

bool Scheduler::step() {
  if (peek_next() == nullptr) return false;
  execute_next();
  return true;
}

void Scheduler::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Scheduler::run_until(TimePs t) {
  stopped_ = false;
  while (!stopped_) {
    // Peek through cancelled entries to find the next live event; leave
    // it in place when not yet due so its EventId stays valid.
    const Entry* next = peek_next();
    if (next == nullptr || next->time > t) break;
    execute_next();
  }
  if (now_ < t) now_ = t;
}

}  // namespace hwatch::sim
