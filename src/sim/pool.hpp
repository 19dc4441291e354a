// Free-list memory pool for the simulator's packet blocks.
//
// BlockPool is a fixed-block free list.  SimContext owns one sized for
// a net::Packet: every queued or in-flight packet, every cross-shard
// delivery and every SYN or SYN-ACK the shim holds lives in one of its
// blocks, so those paths recycle blocks instead of hitting the global
// allocator.  PoolPtr is the move-only RAII handle; it is small enough
// to ride a scheduler callback.  A pool is confined to its context's
// thread: blocks are allocated and freed on the same worker.
//
// The pool does not affect determinism: memory reuse changes addresses,
// not event ordering, and nothing in the simulator keys off addresses.
//
// Pool occupancy is tracked in plain counters (hits/misses/outstanding),
// read through stats(); they never reach the manifest.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace hwatch::sim {

class BlockPool;

/// Move-only owning handle to a T constructed inside a BlockPool block.
/// Destroys the object and returns the block to the pool's free list.
template <typename T>
class PoolPtr {
 public:
  PoolPtr() noexcept = default;
  PoolPtr(T* obj, BlockPool* pool) noexcept : obj_(obj), pool_(pool) {}

  PoolPtr(PoolPtr&& other) noexcept
      : obj_(std::exchange(other.obj_, nullptr)),
        pool_(std::exchange(other.pool_, nullptr)) {}
  PoolPtr& operator=(PoolPtr&& other) noexcept {
    if (this != &other) {
      reset();
      obj_ = std::exchange(other.obj_, nullptr);
      pool_ = std::exchange(other.pool_, nullptr);
    }
    return *this;
  }
  PoolPtr(const PoolPtr&) = delete;
  PoolPtr& operator=(const PoolPtr&) = delete;

  ~PoolPtr() { reset(); }

  void reset() noexcept;

  T* get() const noexcept { return obj_; }
  T& operator*() const noexcept { return *obj_; }
  T* operator->() const noexcept { return obj_; }
  explicit operator bool() const noexcept { return obj_ != nullptr; }

 private:
  T* obj_ = nullptr;
  BlockPool* pool_ = nullptr;
};

/// Fixed-block free-list pool.  allocate() pops a recycled block (hit)
/// or falls through to operator new (miss); deallocate() pushes the
/// block back.  All outstanding blocks must be returned before the pool
/// is destroyed (SimContext declares its pool ahead of the scheduler so
/// pending callbacks holding PoolPtrs die first).
class BlockPool {
 public:
  struct Stats {
    std::uint64_t hits = 0;       // allocations served from the free list
    std::uint64_t misses = 0;     // allocations that hit operator new
    std::uint64_t outstanding = 0;
    std::uint64_t peak_outstanding = 0;
  };

  explicit BlockPool(std::size_t block_bytes)
      : block_bytes_(block_bytes < sizeof(FreeNode) ? sizeof(FreeNode)
                                                    : block_bytes) {}

  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  ~BlockPool() {
    assert(stats_.outstanding == 0 &&
           "BlockPool destroyed with blocks still outstanding");
    while (free_ != nullptr) {
      FreeNode* next = free_->next;
      ::operator delete(free_);
      free_ = next;
    }
  }

  std::size_t block_bytes() const { return block_bytes_; }

  void* allocate() {
    void* block;
    if (free_ != nullptr) {
      block = free_;
      free_ = free_->next;
      ++stats_.hits;
    } else {
      block = ::operator new(block_bytes_);
      ++stats_.misses;
    }
    ++stats_.outstanding;
    if (stats_.outstanding > stats_.peak_outstanding) {
      stats_.peak_outstanding = stats_.outstanding;
    }
    return block;
  }

  void deallocate(void* block) noexcept {
    assert(stats_.outstanding > 0);
    --stats_.outstanding;
    FreeNode* node = static_cast<FreeNode*>(block);
    node->next = free_;
    free_ = node;
  }

  /// Constructs a T in a pooled block.  T must fit the block size and
  /// default alignment (operator new guarantees max_align_t).
  template <typename T, typename... Args>
  PoolPtr<T> make(Args&&... args) {
    static_assert(alignof(T) <= alignof(std::max_align_t));
    assert(sizeof(T) <= block_bytes_);
    void* block = allocate();
    try {
      return PoolPtr<T>(::new (block) T(std::forward<Args>(args)...), this);
    } catch (...) {
      deallocate(block);
      throw;
    }
  }

  const Stats& stats() const { return stats_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  std::size_t block_bytes_;
  FreeNode* free_ = nullptr;
  Stats stats_;
};

template <typename T>
void PoolPtr<T>::reset() noexcept {
  if (obj_ != nullptr) {
    obj_->~T();
    pool_->deallocate(obj_);
    obj_ = nullptr;
    pool_ = nullptr;
  }
}

}  // namespace hwatch::sim
