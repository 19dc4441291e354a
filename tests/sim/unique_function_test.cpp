// UniqueFunction semantics: move-only captures, the SBO/spill boundary,
// destruction of never-invoked callbacks (the "pooled packet parked in a
// cancelled event" case), and scheduler teardown with packet-carrying
// events still pending.  The ASan CI job doubles as the leak check.
#include "sim/unique_function.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "net/packet.hpp"
#include "sim/pool.hpp"
#include "sim/scheduler.hpp"

namespace {

using hwatch::sim::UniqueFunction;

/// Move-only destructor probe: counts exactly one destruction per live
/// object (moved-from husks don't count).
struct DtorCounter {
  int* count = nullptr;
  explicit DtorCounter(int* c) : count(c) {}
  DtorCounter(DtorCounter&& o) noexcept
      : count(std::exchange(o.count, nullptr)) {}
  DtorCounter& operator=(DtorCounter&& o) noexcept {
    if (this != &o) {
      if (count != nullptr) ++*count;
      count = std::exchange(o.count, nullptr);
    }
    return *this;
  }
  DtorCounter(const DtorCounter&) = delete;
  DtorCounter& operator=(const DtorCounter&) = delete;
  ~DtorCounter() {
    if (count != nullptr) ++*count;
  }
};

TEST(UniqueFunctionTest, MoveOnlyCaptureInvokes) {
  auto p = std::make_unique<int>(41);
  UniqueFunction<int()> f = [p = std::move(p)] { return *p + 1; };
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(), 42);
  EXPECT_EQ(f(), 42);  // invocable repeatedly
}

TEST(UniqueFunctionTest, EmptyInvocationThrows) {
  UniqueFunction<void()> f;
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_THROW(f(), std::bad_function_call);
  UniqueFunction<void()> g = [] {};
  g = nullptr;
  EXPECT_THROW(g(), std::bad_function_call);
}

TEST(UniqueFunctionTest, PassesArgumentsAndReturns) {
  UniqueFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 40), 42);
  // Move-only arguments pass through the type-erasure boundary.
  UniqueFunction<int(std::unique_ptr<int>)> deref =
      [](std::unique_ptr<int> q) { return *q; };
  EXPECT_EQ(deref(std::make_unique<int>(7)), 7);
}

TEST(UniqueFunctionTest, MoveTransfersOwnership) {
  int destroyed = 0;
  {
    UniqueFunction<int()> a = [d = DtorCounter(&destroyed)] { return 1; };
    UniqueFunction<int()> b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_EQ(b(), 1);
    UniqueFunction<int()> c;
    c = std::move(b);
    EXPECT_EQ(c(), 1);
    EXPECT_EQ(destroyed, 0);  // exactly one live instance throughout
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(UniqueFunctionTest, SboBoundary) {
  constexpr std::size_t kInline = 48;
  struct Fits {
    char pad[kInline];
    void operator()() const {}
  };
  struct Spills {
    char pad[kInline + 1];
    void operator()() const {}
  };
  static_assert(UniqueFunction<void(), kInline>::fits_inline<Fits>());
  static_assert(!UniqueFunction<void(), kInline>::fits_inline<Spills>());

  UniqueFunction<void(), kInline> f = Fits{};
  EXPECT_TRUE(f.is_inline());
  UniqueFunction<void(), kInline> g = Spills{};
  EXPECT_FALSE(g.is_inline());
  f();
  g();
}

TEST(UniqueFunctionTest, SpilledCallableInvokesAndDestroys) {
  int destroyed = 0;
  long sum = 0;
  {
    struct Big {
      DtorCounter d;
      long vals[32];
    };
    Big big{DtorCounter(&destroyed), {}};
    for (int i = 0; i < 32; ++i) big.vals[i] = i;
    UniqueFunction<void()> f = [big = std::move(big), &sum] {
      for (long v : big.vals) sum += v;
    };
    EXPECT_FALSE(f.is_inline());
    f();
    // Moving a spilled callable moves the pointer, not the payload.
    UniqueFunction<void()> g = std::move(f);
    g();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(sum, 2 * 31 * 32 / 2);
}

TEST(UniqueFunctionTest, NeverInvokedPacketCallbackIsDestroyed) {
  // The cancelled-event case: a callback holding a pooled Packet is
  // destroyed without ever being invoked; the block goes back to the
  // pool (ASan-enforced: nothing leaks) and the probe's destructor runs
  // exactly once.
  hwatch::sim::BlockPool pool(sizeof(hwatch::net::Packet));
  int destroyed = 0;
  {
    hwatch::net::Packet pkt;
    pkt.payload_bytes = 1442;
    hwatch::sim::Scheduler::Callback cb =
        [p = pool.make<hwatch::net::Packet>(pkt),
         d = DtorCounter(&destroyed)] { (void)p; };
    EXPECT_TRUE(cb.is_inline());  // the handle rides in the SBO buffer
    EXPECT_EQ(pool.stats().outstanding, 1u);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(UniqueFunctionTest, AssignmentDestroysPrevious) {
  int first = 0;
  int second = 0;
  UniqueFunction<void()> f = [d = DtorCounter(&first)] {};
  f = [d = DtorCounter(&second)] {};
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  f.reset();
  EXPECT_EQ(second, 1);
}

TEST(UniqueFunctionTest, NonTriviallyCopyableInlineRelocates) {
  std::string s = "relocate me through the inline buffer";
  UniqueFunction<std::string()> f = [s = std::move(s)] { return s; };
  EXPECT_TRUE(f.is_inline());
  UniqueFunction<std::string()> g = std::move(f);
  EXPECT_EQ(g(), "relocate me through the inline buffer");
}

TEST(UniqueFunctionTest, WrapsStdFunction) {
  std::function<int()> sf = [] { return 9; };
  UniqueFunction<int()> f = std::move(sf);
  EXPECT_EQ(f(), 9);
}

TEST(UniqueFunctionTest, ConstSignatureInvocableThroughConstRef) {
  const UniqueFunction<int() const> f = [] { return 7; };
  EXPECT_EQ(f(), 7);
  UniqueFunction<int() const> g = [] { return 8; };
  const auto& ref = g;
  EXPECT_EQ(ref(), 8);
}

// ---- scheduler interaction ------------------------------------------

TEST(SchedulerCallbackLifetime, CancelDestroysCallbackEagerly) {
  hwatch::sim::Scheduler sched;
  int destroyed = 0;
  const hwatch::sim::EventId id =
      sched.schedule_at(100, [d = DtorCounter(&destroyed)] {});
  EXPECT_EQ(destroyed, 0);
  EXPECT_TRUE(sched.cancel(id));
  // Cancel must release captured resources immediately, not when the
  // stale heap entry surfaces or the slot is reused.
  EXPECT_EQ(destroyed, 1);
  sched.run();
}

TEST(SchedulerCallbackLifetime, TeardownDestroysPendingPacketEvents) {
  // Declared before the scheduler, as in SimContext: pending callbacks
  // return their blocks before the pool dies.
  hwatch::sim::BlockPool pool(sizeof(hwatch::net::Packet));
  int destroyed = 0;
  {
    hwatch::sim::Scheduler sched;
    for (int i = 0; i < 16; ++i) {
      hwatch::net::Packet pkt;
      pkt.uid = static_cast<std::uint64_t>(i);
      pkt.payload_bytes = 1000;
      sched.schedule_at(1000 + i,
                        [p = pool.make<hwatch::net::Packet>(pkt),
                         d = DtorCounter(&destroyed)] { (void)p; });
    }
    sched.run_until(500);  // nothing due yet; all 16 still pending
    EXPECT_EQ(sched.pending(), 16u);
    EXPECT_EQ(pool.stats().outstanding, 16u);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 16);
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(SchedulerCallbackLifetime, SlotReuseAfterExecuteAndCancel) {
  hwatch::sim::Scheduler sched;
  int fired = 0;
  int destroyed = 0;
  for (int round = 0; round < 100; ++round) {
    const auto keep =
        sched.schedule_in(1, [&fired, d = DtorCounter(&destroyed)] {
          ++fired;
        });
    const auto drop =
        sched.schedule_in(2, [&fired, d = DtorCounter(&destroyed)] {
          ++fired;
        });
    EXPECT_TRUE(sched.cancel(drop));
    sched.run();
    (void)keep;
  }
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(destroyed, 200);  // every callback destroyed exactly once
  // Slots were recycled, not accumulated.
  EXPECT_LE(sched.bookkeeping_slots(), 4u);
}

}  // namespace
