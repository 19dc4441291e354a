#include "net/queue.hpp"

#include <gtest/gtest.h>

#include "sim/time.hpp"

namespace hwatch::net {
namespace {

Packet data_packet(Ecn ecn = Ecn::kEct0, std::uint32_t payload = 1442) {
  Packet p;
  p.ip.ecn = ecn;
  p.payload_bytes = payload;
  return p;
}

// ------------------------------------------------------------ DropTail

TEST(DropTailTest, AcceptsUntilCapacityThenDrops) {
  DropTailQueue q(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(q.enqueue(data_packet(), 0), EnqueueOutcome::kAccepted);
  }
  EXPECT_EQ(q.enqueue(data_packet(), 0), EnqueueOutcome::kDropped);
  EXPECT_EQ(q.len_packets(), 3u);
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.stats().enqueued, 3u);
}

TEST(DropTailTest, NeverMarks) {
  DropTailQueue q(100);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(q.enqueue(data_packet(Ecn::kEct0), 0),
              EnqueueOutcome::kAccepted);
  }
  EXPECT_EQ(q.stats().ecn_marked, 0u);
}

TEST(DropTailTest, FifoOrder) {
  DropTailQueue q(10);
  for (std::uint64_t i = 0; i < 5; ++i) {
    Packet p = data_packet();
    p.uid = i;
    q.enqueue(std::move(p), 0);
  }
  for (std::uint64_t i = 0; i < 5; ++i) {
    auto p = q.dequeue(0);
    ASSERT_TRUE(p);
    EXPECT_EQ(p->uid, i);
  }
  EXPECT_FALSE(q.dequeue(0));
}

TEST(DropTailTest, ByteAccounting) {
  DropTailQueue q(10);
  q.enqueue(data_packet(Ecn::kNotEct, 1442), 0);  // 1500 B frame
  q.enqueue(data_packet(Ecn::kNotEct, 0), 0);     // 58 B ACK frame
  EXPECT_EQ(q.len_bytes(), 1558u);
  q.dequeue(0);
  EXPECT_EQ(q.len_bytes(), 58u);
}

TEST(DropTailTest, StatsTrackMaxima) {
  DropTailQueue q(10);
  for (int i = 0; i < 7; ++i) q.enqueue(data_packet(), 0);
  for (int i = 0; i < 7; ++i) q.dequeue(0);
  EXPECT_EQ(q.stats().max_len_pkts, 7u);
  EXPECT_EQ(q.stats().dequeued, 7u);
  EXPECT_TRUE(q.empty());
}

// --------------------------------------------------------- DCTCP step

TEST(DctcpQueueTest, MarksAboveThresholdOnly) {
  DctcpThresholdQueue q(100, 5);
  // First 5 arrivals: queue after enqueue is 1..5 -> no marks.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(q.enqueue(data_packet(), 0), EnqueueOutcome::kAccepted);
  }
  // 6th arrival: queue would be 6 > K=5 -> marked.
  EXPECT_EQ(q.enqueue(data_packet(), 0), EnqueueOutcome::kAcceptedMarked);
  EXPECT_EQ(q.stats().ecn_marked, 1u);
}

TEST(DctcpQueueTest, MarkSetsCePoint) {
  DctcpThresholdQueue q(100, 0);  // mark everything
  q.enqueue(data_packet(Ecn::kEct0), 0);
  auto p = q.dequeue(0);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->ip.ecn, Ecn::kCe);
}

TEST(DctcpQueueTest, NonEctPacketsAreNotMarked) {
  DctcpThresholdQueue q(100, 0);
  EXPECT_EQ(q.enqueue(data_packet(Ecn::kNotEct), 0),
            EnqueueOutcome::kAccepted);
  auto p = q.dequeue(0);
  EXPECT_EQ(p->ip.ecn, Ecn::kNotEct);
}

TEST(DctcpQueueTest, DropsAtCapacityEvenWithEcn) {
  DctcpThresholdQueue q(2, 1);
  q.enqueue(data_packet(), 0);
  q.enqueue(data_packet(), 0);
  EXPECT_EQ(q.enqueue(data_packet(), 0), EnqueueOutcome::kDropped);
}

TEST(DctcpQueueTest, InstantaneousBehaviour) {
  // Draining below K stops marking immediately (no EWMA memory).
  DctcpThresholdQueue q(100, 2);
  q.enqueue(data_packet(), 0);
  q.enqueue(data_packet(), 0);
  EXPECT_EQ(q.enqueue(data_packet(), 0), EnqueueOutcome::kAcceptedMarked);
  q.dequeue(0);
  q.dequeue(0);
  EXPECT_EQ(q.enqueue(data_packet(), 0), EnqueueOutcome::kAccepted);
}

// ----------------------------------------------------------------- RED

RedConfig red_cfg() {
  RedConfig c;
  c.min_th_pkts = 5;
  c.max_th_pkts = 15;
  c.max_p = 0.1;
  c.weight = 1.0;  // avg == instantaneous, for deterministic testing
  c.gentle = true;
  c.ecn = true;
  return c;
}

TEST(RedQueueTest, BelowMinThresholdNeverMarks) {
  RedQueue q(100, red_cfg());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(q.enqueue(data_packet(), 0), EnqueueOutcome::kAccepted);
  }
  EXPECT_EQ(q.stats().ecn_marked, 0u);
}

TEST(RedQueueTest, MarksProbabilisticallyBetweenThresholds) {
  RedQueue q(1000, red_cfg());
  int marked = 0;
  // Hold the queue around 10 packets: enqueue/dequeue in lockstep after
  // filling to 10.
  for (int i = 0; i < 10; ++i) q.enqueue(data_packet(), 0);
  for (int i = 0; i < 2000; ++i) {
    if (q.enqueue(data_packet(), 0) == EnqueueOutcome::kAcceptedMarked) {
      ++marked;
    }
    q.dequeue(0);
  }
  // p_b ~ 0.05 at avg=10; count correction raises the effective rate.
  EXPECT_GT(marked, 30);
  EXPECT_LT(marked, 600);
}

TEST(RedQueueTest, AboveGentleRegionMarksEverything) {
  auto cfg = red_cfg();
  RedQueue q(1000, cfg);
  for (int i = 0; i < 31; ++i) q.enqueue(data_packet(), 0);
  // avg is now > 2*max_th = 30: every ECT arrival is marked.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(q.enqueue(data_packet(), 0),
              EnqueueOutcome::kAcceptedMarked);
  }
}

TEST(RedQueueTest, NonEctIsDroppedInsteadOfMarked) {
  auto cfg = red_cfg();
  RedQueue q(1000, cfg);
  for (int i = 0; i < 35; ++i) q.enqueue(data_packet(), 0);
  EXPECT_EQ(q.enqueue(data_packet(Ecn::kNotEct), 0),
            EnqueueOutcome::kDropped);
}

TEST(RedQueueTest, EcnDisabledDropsEct) {
  auto cfg = red_cfg();
  cfg.ecn = false;
  RedQueue q(1000, cfg);
  for (int i = 0; i < 35; ++i) {
    q.enqueue(data_packet(), 0);
  }
  EXPECT_EQ(q.enqueue(data_packet(Ecn::kEct0), 0),
            EnqueueOutcome::kDropped);
}

TEST(RedQueueTest, HardCapacityStillEnforced) {
  RedQueue q(3, red_cfg());
  for (int i = 0; i < 3; ++i) q.enqueue(data_packet(), 0);
  EXPECT_EQ(q.enqueue(data_packet(), 0), EnqueueOutcome::kDropped);
}

TEST(RedQueueTest, AverageTracksQueue) {
  auto cfg = red_cfg();
  cfg.weight = 0.5;
  RedQueue q(1000, cfg);
  q.enqueue(data_packet(), 0);
  q.enqueue(data_packet(), 0);
  q.enqueue(data_packet(), 0);
  EXPECT_GT(q.avg(), 0.0);
  EXPECT_LT(q.avg(), 3.0);
}

TEST(RedQueueTest, IdleDecayReducesAverage) {
  auto cfg = red_cfg();
  cfg.weight = 0.1;
  cfg.mean_pkt_time = sim::microseconds(1);
  RedQueue q(1000, cfg);
  for (int i = 0; i < 20; ++i) q.enqueue(data_packet(), 0);
  const double avg_loaded = q.avg();
  while (!q.empty()) q.dequeue(sim::microseconds(1));
  // Long idle period, then one arrival: the decayed average must be far
  // below the loaded value.
  q.enqueue(data_packet(), sim::milliseconds(10));
  EXPECT_LT(q.avg(), avg_loaded / 4);
}

TEST(RedQueueTest, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    RedQueue q(1000, red_cfg(), seed);
    std::uint64_t marks = 0;
    for (int i = 0; i < 10; ++i) q.enqueue(data_packet(), 0);
    for (int i = 0; i < 500; ++i) {
      if (q.enqueue(data_packet(), 0) == EnqueueOutcome::kAcceptedMarked) {
        ++marks;
      }
      q.dequeue(0);
    }
    return marks;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(99));  // overwhelmingly likely
}

// ------------------------------------------------------------ Storage

TEST(QueueStorageTest, QueuedPacketsEachHoldOnePoolBlock) {
  DropTailQueue q(250);
  const sim::BlockPool& pool = q.packet_pool();
  for (int i = 0; i < 10; ++i) q.enqueue(data_packet(), 0);
  EXPECT_EQ(pool.stats().outstanding, 10u);
  EXPECT_EQ(pool.stats().peak_outstanding, 10u);

  while (q.dequeue(0)) {
  }
  EXPECT_EQ(pool.stats().outstanding, 0u);

  // Re-filling to the old depth recycles the blocks: hits, no misses.
  for (int i = 0; i < 10; ++i) q.enqueue(data_packet(), 0);
  EXPECT_EQ(pool.stats().misses, 10u);
  EXPECT_EQ(pool.stats().hits, 10u);
  EXPECT_EQ(pool.stats().outstanding, 10u);
}

TEST(QueueStorageTest, DroppedPacketsTakeNoBlock) {
  DropTailQueue q(3);
  for (int i = 0; i < 5; ++i) q.enqueue(data_packet(), 0);
  EXPECT_EQ(q.stats().dropped, 2u);
  EXPECT_EQ(q.packet_pool().stats().outstanding, 3u);
  EXPECT_EQ(q.packet_pool().stats().peak_outstanding, 3u);
}

TEST(QueueStorageTest, BoundQueuesShareOnePool) {
  // What a Link does with its context's packet_pool(): the pool's
  // memory follows the queues' combined occupancy, not their bounds.
  sim::BlockPool pool(sizeof(Packet));
  DropTailQueue a(250);
  DropTailQueue b(250);
  a.bind_pool(pool);
  b.bind_pool(pool);
  for (int i = 0; i < 6; ++i) a.enqueue(data_packet(), 0);
  for (int i = 0; i < 4; ++i) b.enqueue(data_packet(), 0);
  EXPECT_EQ(&a.packet_pool(), &pool);
  EXPECT_EQ(pool.stats().outstanding, 10u);

  while (a.dequeue(0)) {
  }
  for (int i = 0; i < 6; ++i) b.enqueue(data_packet(), 0);
  EXPECT_EQ(pool.stats().outstanding, 10u);
  EXPECT_EQ(pool.stats().misses, 10u);  // b reused a's blocks
  EXPECT_EQ(pool.stats().peak_outstanding, 10u);
  while (b.dequeue(0)) {
  }
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

// Property sweep: no queue discipline may ever exceed its capacity or
// lose track of byte counts.
class QueueCapacityProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(QueueCapacityProperty, NeverExceedsCapacityAndConserves) {
  const auto [kind, cap] = GetParam();
  std::unique_ptr<QueueDiscipline> q;
  switch (kind) {
    case 0:
      q = std::make_unique<DropTailQueue>(cap);
      break;
    case 1:
      q = std::make_unique<DctcpThresholdQueue>(cap, cap / 4);
      break;
    default:
      q = std::make_unique<RedQueue>(cap, red_cfg());
      break;
  }
  std::uint64_t x = 42;
  std::uint64_t in = 0, out = 0, dropped = 0;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1;
    if (x % 3 != 0) {
      if (q->enqueue(data_packet(), static_cast<sim::TimePs>(i)) ==
          EnqueueOutcome::kDropped) {
        ++dropped;
      } else {
        ++in;
      }
    } else if (q->dequeue(static_cast<sim::TimePs>(i))) {
      ++out;
    }
    ASSERT_LE(q->len_packets(), cap);
  }
  EXPECT_EQ(in, out + q->len_packets());
  EXPECT_EQ(q->stats().dropped, dropped);
}

INSTANTIATE_TEST_SUITE_P(
    AllQueues, QueueCapacityProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values<std::uint64_t>(1, 8, 250)));

}  // namespace
}  // namespace hwatch::net
