// Growable FIFO ring of pooled packet handles — the storage behind
// qdisc FIFOs and the shim's SYN-ACK pacing queue.
//
// Replaces std::deque, whose libstdc++ implementation allocates and
// frees a 512-byte node roughly every three elements even when the
// depth is steady — exactly the churn the allocation-free hot path
// forbids.  The ring grows geometrically (power-of-two capacity, index
// masking) and never shrinks, so once it has seen its peak depth every
// push/pop is allocation-free.
//
// Beyond push_back/pop_front it supports the two operations the
// priority band logic needs: insert at a logical position (urgent
// packets slot in behind the queued high-class ones) and erase at a
// logical position (best-effort tail eviction).  Both shift the smaller
// side, so they stay O(min(pos, size-pos)) like a deque insert.  Slots
// outside the live range always hold a moved-from or value-initialised
// T, so a ring of owning handles never keeps a dead element's resource.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace hwatch::net {

template <typename T>
class Ring {
 public:
  Ring() = default;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Element at logical position `i` (0 = head / next to dequeue).
  T& at(std::size_t i) {
    assert(i < size_);
    return slots_[wrap(head_ + i)];
  }
  const T& at(std::size_t i) const {
    assert(i < size_);
    return slots_[wrap(head_ + i)];
  }

  T& front() { return at(0); }
  const T& front() const { return at(0); }
  T& back() { return at(size_ - 1); }
  const T& back() const { return at(size_ - 1); }

  void push_back(T&& v) {
    if (size_ == slots_.size()) grow();
    slots_[wrap(head_ + size_)] = std::move(v);
    ++size_;
  }

  T pop_front() {
    assert(size_ > 0);
    T v = std::move(slots_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return v;
  }

  /// Inserts at logical position `pos` (0..size), shifting the smaller
  /// side of the ring by one slot.
  void insert(std::size_t pos, T&& v) {
    assert(pos <= size_);
    if (size_ == slots_.size()) grow();
    if (pos * 2 <= size_) {
      // Shift the head side down one slot (towards head-1).
      head_ = wrap(head_ + slots_.size() - 1);
      for (std::size_t i = 0; i < pos; ++i) {
        slots_[wrap(head_ + i)] = std::move(slots_[wrap(head_ + i + 1)]);
      }
    } else {
      // Shift the tail side up one slot.
      for (std::size_t i = size_; i > pos; --i) {
        slots_[wrap(head_ + i)] = std::move(slots_[wrap(head_ + i - 1)]);
      }
    }
    ++size_;
    slots_[wrap(head_ + pos)] = std::move(v);
  }

  /// Erases the element at logical position `pos`, shifting the smaller
  /// side of the ring by one slot and resetting the slot it vacates.
  void erase(std::size_t pos) {
    assert(pos < size_);
    if (pos * 2 <= size_) {
      // Shift the head side up one slot (towards the erased hole).
      for (std::size_t i = pos; i > 0; --i) {
        slots_[wrap(head_ + i)] = std::move(slots_[wrap(head_ + i - 1)]);
      }
      slots_[head_] = T();
      head_ = wrap(head_ + 1);
    } else {
      for (std::size_t i = pos; i + 1 < size_; ++i) {
        slots_[wrap(head_ + i)] = std::move(slots_[wrap(head_ + i + 1)]);
      }
      slots_[wrap(head_ + size_ - 1)] = T();
    }
    --size_;
  }

  /// Pre-sizes the ring so depths up to `n` never reallocate (rounded
  /// up to a power of two).  Used when the queue's hard packet bound is
  /// known at construction.
  void reserve(std::size_t n) {
    if (n <= slots_.size()) return;
    rebuild(std::bit_ceil(std::max(n, kMinCapacity)));
  }

 private:
  std::size_t wrap(std::size_t i) const { return i & (slots_.size() - 1); }

  void grow() { rebuild(slots_.empty() ? kMinCapacity : slots_.size() * 2); }

  void rebuild(std::size_t new_capacity) {
    std::vector<T> next(new_capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[wrap(head_ + i)]);
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  static constexpr std::size_t kMinCapacity = 16;

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hwatch::net
