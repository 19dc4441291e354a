// BlockPool / PoolPtr: free-list recycling, RAII lifecycle and stats
// accounting.
#include "sim/pool.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "sim/context.hpp"

namespace {

using hwatch::sim::BlockPool;
using hwatch::sim::PoolPtr;

TEST(BlockPoolTest, RecyclesBlocks) {
  BlockPool pool(64);
  void* a = pool.allocate();
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().outstanding, 1u);
  pool.deallocate(a);
  EXPECT_EQ(pool.stats().outstanding, 0u);
  void* b = pool.allocate();
  EXPECT_EQ(b, a);  // LIFO free list hands the same block back
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
  pool.deallocate(b);
}

TEST(BlockPoolTest, PeakOutstandingTracksHighWater) {
  BlockPool pool(32);
  void* a = pool.allocate();
  void* b = pool.allocate();
  void* c = pool.allocate();
  pool.deallocate(b);
  pool.deallocate(a);
  void* d = pool.allocate();
  EXPECT_EQ(pool.stats().peak_outstanding, 3u);
  EXPECT_EQ(pool.stats().outstanding, 2u);
  pool.deallocate(c);
  pool.deallocate(d);
}

struct Probe {
  int* ctor_count;
  int* dtor_count;
  Probe(int* c, int* d) : ctor_count(c), dtor_count(d) { ++*ctor_count; }
  ~Probe() { ++*dtor_count; }
};

TEST(BlockPoolTest, MakeConstructsAndPoolPtrDestroys) {
  BlockPool pool(64);
  int ctors = 0;
  int dtors = 0;
  {
    PoolPtr<Probe> p = pool.make<Probe>(&ctors, &dtors);
    EXPECT_TRUE(static_cast<bool>(p));
    EXPECT_EQ(ctors, 1);
    EXPECT_EQ(dtors, 0);
    EXPECT_EQ(pool.stats().outstanding, 1u);
  }
  EXPECT_EQ(dtors, 1);
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(BlockPoolTest, PoolPtrMoveSemantics) {
  BlockPool pool(64);
  int ctors = 0;
  int dtors = 0;
  PoolPtr<Probe> a = pool.make<Probe>(&ctors, &dtors);
  Probe* raw = a.get();
  PoolPtr<Probe> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.get(), raw);
  EXPECT_EQ(dtors, 0);
  PoolPtr<Probe> c;
  c = std::move(b);
  EXPECT_EQ(c.get(), raw);
  c.reset();
  EXPECT_EQ(dtors, 1);
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(SimContextPoolTest, PacketPoolFitsAndRecycles) {
  hwatch::sim::SimContext ctx(1);
  {
    auto p = ctx.packet_pool().make<int>(5);
    EXPECT_EQ(*p, 5);
  }
  auto q = ctx.packet_pool().make<int>(6);
  EXPECT_EQ(ctx.packet_pool().stats().hits, 1u);
  EXPECT_EQ(ctx.packet_pool().stats().misses, 1u);
}

}  // namespace
