// Cross-shard channel plumbing: the inbox (a FIFO with a counted spill
// budget) and the drain pass that turns a window's haul into local
// scheduler events in (deliver_time, packet uid) order.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/shard_channel.hpp"
#include "sim/context.hpp"

namespace hwatch::net {
namespace {

Packet make_packet(std::uint64_t uid) {
  Packet p;
  p.uid = uid;
  return p;
}

TEST(ShardInboxTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ShardInbox(1).capacity(), 2u);
  EXPECT_EQ(ShardInbox(2).capacity(), 2u);
  EXPECT_EQ(ShardInbox(3).capacity(), 4u);
  EXPECT_EQ(ShardInbox(4).capacity(), 4u);
  EXPECT_EQ(ShardInbox(1000).capacity(), 1024u);
}

TEST(ShardInboxTest, PushPopRoundTrip) {
  ShardInbox box(4);
  for (std::uint64_t i = 0; i < 3; ++i) {
    box.push(static_cast<sim::TimePs>(100 + i), make_packet(i));
  }
  EXPECT_EQ(box.pushed(), 3u);
  EXPECT_EQ(box.spilled(), 0u);
  ShardInbox::Item item;
  // FIFO through the ring.
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(box.pop(item));
    EXPECT_EQ(item.pkt.uid, i);
    EXPECT_EQ(item.deliver_time, static_cast<sim::TimePs>(100 + i));
  }
  EXPECT_FALSE(box.pop(item));
  EXPECT_EQ(box.popped(), 3u);
  EXPECT_TRUE(box.ring_empty());
}

TEST(ShardInboxTest, OverflowSpillsInsteadOfDropping) {
  ShardInbox box(4);
  for (std::uint64_t i = 0; i < 7; ++i) {
    box.push(10, make_packet(i));
  }
  EXPECT_EQ(box.pushed(), 7u);
  EXPECT_EQ(box.spilled(), 3u);  // ring holds 4, the rest spill
  std::vector<std::uint64_t> uids;
  ShardInbox::Item item;
  while (box.pop(item)) uids.push_back(item.pkt.uid);
  EXPECT_EQ(uids.size(), 7u);  // every push surfaces exactly once
  EXPECT_EQ(box.popped(), 7u);
  // The ring drains FIFO before the spill; the spill's own order is
  // unspecified (the drain pass sorts), so only check the ring prefix.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(uids[i], i);

  // The ring is usable again after a full drain.
  box.push(11, make_packet(42));
  ASSERT_TRUE(box.pop(item));
  EXPECT_EQ(item.pkt.uid, 42u);
}

TEST(ShardInboxTest, SpillsCountDepthNotLifetime) {
  ShardInbox box(4);
  ShardInbox::Item item;
  // A deep window: two pushes find the budget of 4 already used.
  for (std::uint64_t i = 0; i < 6; ++i) box.push(10, make_packet(i));
  EXPECT_EQ(box.spilled(), 2u);
  // The drain empties it.
  while (box.pop(item)) {
  }
  EXPECT_EQ(box.depth(), 0u);
  // A shallow window after it spills nothing, although the inbox has
  // now carried more than its budget in total.
  for (std::uint64_t i = 6; i < 9; ++i) box.push(20, make_packet(i));
  EXPECT_EQ(box.pushed(), 9u);
  EXPECT_EQ(box.spilled(), 2u);
  EXPECT_EQ(box.peak_depth(), 6u);
  EXPECT_EQ(box.depth(), 3u);
}

TEST(ShardChannelTest, NullDestinationNodeThrows) {
  sim::SimContext ctx;
  EXPECT_THROW(CrossShardChannel(ctx, nullptr), std::invalid_argument);
}

TEST(ShardChannelDrainTest, DeliversSortedByTimeThenUid) {
  sim::SimContext ctx;
  Network net(ctx);
  Host& h = net.add_host("h");
  std::vector<std::pair<sim::TimePs, std::uint64_t>> arrivals;
  const std::uint16_t port = 7;
  h.bind(port, [&](Packet&& p) { arrivals.emplace_back(ctx.now(), p.uid); });

  CrossShardChannel ch(ctx, &h, 8);
  const std::vector<std::pair<sim::TimePs, std::uint64_t>> items = {
      {200, 5}, {100, 9}, {200, 1}, {100, 2}};
  for (auto [t, uid] : items) {
    Packet p = make_packet(uid);
    p.ip.dst = h.id();
    p.tcp.dst_port = port;
    ch.inbox().push(t, std::move(p));
  }

  std::vector<CrossShardChannel*> channels = {&ch};
  std::vector<std::pair<Node*, ShardInbox::Item>> scratch;
  drain_cross_shard_channels(channels, scratch);
  EXPECT_TRUE(scratch.empty());  // reusable after the pass
  EXPECT_EQ(ctx.scheduler().pending(), 4u);
  ctx.scheduler().run();

  const std::vector<std::pair<sim::TimePs, std::uint64_t>> expect = {
      {100, 2}, {100, 9}, {200, 1}, {200, 5}};
  EXPECT_EQ(arrivals, expect);
}

TEST(ShardChannelDrainTest, MergesAcrossChannelsAndSpill) {
  sim::SimContext ctx;
  Network net(ctx);
  Host& h = net.add_host("h");
  std::vector<std::uint64_t> arrivals;
  const std::uint16_t port = 7;
  h.bind(port, [&](Packet&& p) { arrivals.push_back(p.uid); });

  // Tiny ring so channel A overflows into its spill vector: the sorted
  // drain order must be identical no matter which path an item took.
  CrossShardChannel a(ctx, &h, 2);
  CrossShardChannel b(ctx, &h, 8);
  auto push = [&](CrossShardChannel& ch, std::uint64_t uid) {
    Packet p = make_packet(uid);
    p.ip.dst = h.id();
    p.tcp.dst_port = port;
    ch.inbox().push(50, std::move(p));
  };
  for (std::uint64_t uid : {9u, 3u, 7u, 1u}) push(a, uid);
  for (std::uint64_t uid : {8u, 2u}) push(b, uid);
  EXPECT_GT(a.inbox().spilled(), 0u);

  std::vector<CrossShardChannel*> channels = {&a, &b};
  std::vector<std::pair<Node*, ShardInbox::Item>> scratch;
  drain_cross_shard_channels(channels, scratch);
  ctx.scheduler().run();
  EXPECT_EQ(arrivals, (std::vector<std::uint64_t>{1, 2, 3, 7, 8, 9}));
}

TEST(ShardChannelDrainTest, EmptyDrainIsANoOp) {
  sim::SimContext ctx;
  Network net(ctx);
  Host& h = net.add_host("h");
  CrossShardChannel ch(ctx, &h, 4);
  std::vector<CrossShardChannel*> none;
  std::vector<CrossShardChannel*> empty_channel = {&ch};
  std::vector<std::pair<Node*, ShardInbox::Item>> scratch;
  drain_cross_shard_channels(none, scratch);
  drain_cross_shard_channels(empty_channel, scratch);
  EXPECT_EQ(ctx.scheduler().pending(), 0u);
}

}  // namespace
}  // namespace hwatch::net
