// Scheduler callback slots: one 32-byte class for every event.  Pins the
// slot budget at compile time (a timer-style capture and a pooled packet
// delivery both fit inline) and checks that slots recycle, so slot
// memory tracks peak liveness rather than events scheduled.
#include <gtest/gtest.h>

#include <cstdint>

#include "net/packet.hpp"
#include "sim/pool.hpp"
#include "sim/scheduler.hpp"

namespace hwatch::sim {
namespace {

struct Probe {
  std::uint64_t* counter;
  std::uint64_t a, b;
  void operator()() const { *counter += a + b; }
};
static_assert(Scheduler::Callback::fits_inline<Probe>());
static_assert(sizeof(Scheduler::Callback) <= 48,
              "a callback slot must stay a fraction of a packet block");

// The cross-shard delivery shape: a destination pointer plus a pooled
// packet handle.  A by-value Packet must not fit.
struct PooledDelivery {
  void* node;
  PoolPtr<net::Packet> p;
  void operator()() const {}
};
static_assert(Scheduler::Callback::fits_inline<PooledDelivery>());
static_assert(kSchedulerCallbackInline < sizeof(net::Packet),
              "a Packet must ride a callback through a pool handle");

TEST(SchedulerPoolsTest, SlotsRecycleSteadyState) {
  Scheduler s;
  std::uint64_t hits = 0;
  // Sequential schedule/execute must reuse one slot: slot count tracks
  // peak liveness, not total events.
  for (int i = 0; i < 1000; ++i) {
    s.schedule_at(i, Probe{&hits, 1, 0});
    s.run_until(i);
  }
  EXPECT_EQ(hits, 1000u);
  EXPECT_EQ(s.bookkeeping_slots(), 1u);
}

TEST(SchedulerPoolsTest, BookkeepingTracksPeakLiveEvents) {
  Scheduler s;
  std::uint64_t hits = 0;
  for (int i = 0; i < 64; ++i) s.schedule_at(i, Probe{&hits, 1, 0});
  EXPECT_EQ(s.bookkeeping_slots(), 64u);
  s.run();
  // Refilling after a full drain reuses the freed slots.
  for (int i = 0; i < 64; ++i) s.schedule_at(100 + i, Probe{&hits, 1, 0});
  EXPECT_EQ(s.bookkeeping_slots(), 64u);
  s.run();
  EXPECT_EQ(hits, 128u);
}

}  // namespace
}  // namespace hwatch::sim
