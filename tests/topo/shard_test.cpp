// Fat-tree shard partitioning and the one fat-tree wiring: the logical
// partition is a pure function of the topology shape, node ids slice one
// global space, both placements build the same fabric, and a packet
// crossing shard boundaries reaches its destination through the
// conservative drain/run protocol.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/shard_channel.hpp"
#include "topo/fat_tree.hpp"
#include "topo/shard.hpp"

namespace hwatch::topo {
namespace {

net::QdiscFactory q() { return net::make_droptail_factory(256); }

std::string thrown_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(FatTreeValidation, HostsPerEdgeShapes) {
  EXPECT_EQ(fat_tree_hosts_per_edge(4, 0), 2u);   // classic k^3/4
  EXPECT_EQ(fat_tree_hosts_per_edge(8, 0), 4u);
  EXPECT_EQ(fat_tree_hosts_per_edge(4, 32), 4u);  // 32 over 8 edges
  EXPECT_EQ(fat_tree_hosts_per_edge(16, 10240), 80u);  // the 10k config
}

TEST(FatTreeValidation, ErrorsNameTheParameter) {
  const std::string odd = thrown_message([] { fat_tree_hosts_per_edge(3, 0); });
  EXPECT_NE(odd.find("FatTreeConfig.k"), std::string::npos) << odd;
  const std::string zero =
      thrown_message([] { fat_tree_hosts_per_edge(0, 0); });
  EXPECT_NE(zero.find("FatTreeConfig.k"), std::string::npos) << zero;
  const std::string uneven =
      thrown_message([] { fat_tree_hosts_per_edge(4, 10); });
  EXPECT_NE(uneven.find("FatTreeConfig.hosts"), std::string::npos) << uneven;
}

TEST(ShardPlanTest, FatTreePartitionShapes) {
  const FatTreeShardPlan plan = partition_fat_tree(4);
  EXPECT_EQ(plan.k, 4u);
  EXPECT_EQ(plan.hosts_per_edge, 2u);
  EXPECT_EQ(plan.shard_count, 8u);  // one per edge switch
  ASSERT_EQ(plan.agg_shard.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(plan.agg_shard[i], i);  // agg a of pod p -> pod's shard a
  }
  // (k/2)^2 = 4 cores round-robin over 8 shards: identity here.
  ASSERT_EQ(plan.core_shard.size(), 4u);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(plan.core_shard[c], c);
  }
  EXPECT_EQ(plan.shard_of_edge(3, 1), 7u);
  EXPECT_THROW(partition_fat_tree(5), std::invalid_argument);
  EXPECT_THROW(partition_fat_tree(4, 7), std::invalid_argument);
}

TEST(ShardedFatTreeTest, BuildsGlobalIdSlices) {
  ShardedFatTreeConfig cfg;
  cfg.k = 4;
  cfg.qdisc = q();
  const ShardedFatTree t = build_sharded_fat_tree(cfg);
  ASSERT_EQ(t.shards.size(), 8u);
  ASSERT_EQ(t.hosts.size(), 16u);
  ASSERT_EQ(t.edges.size(), 8u);
  ASSERT_EQ(t.aggregations.size(), 8u);
  ASSERT_EQ(t.cores.size(), 4u);
  EXPECT_EQ(t.lookahead, cfg.base_rtt / 12);
  EXPECT_GT(t.cross_links, 0u);

  net::NodeId expect_base = 0;
  for (std::size_t s = 0; s < t.shards.size(); ++s) {
    const Part& shard = t.shards[s];
    EXPECT_EQ(shard.net->id_base(), expect_base) << "shard " << s;
    ASSERT_EQ(shard.net->hosts().size(), 2u);
    EXPECT_EQ(t.hosts[2 * s]->id(), expect_base);
    EXPECT_EQ(shard.net->hosts()[0], t.hosts[2 * s]);
    EXPECT_EQ(t.edges[s]->id(), expect_base + 2);
    EXPECT_EQ(t.aggregations[s]->id(), expect_base + 3);
    // Cores live on the first (k/2)^2 = 4 shards only.
    const std::size_t switches = s < 4 ? 3 : 2;
    ASSERT_EQ(shard.net->switches().size(), switches);
    if (s < 4) {
      EXPECT_EQ(t.cores[s]->id(), expect_base + 4);
    }
    EXPECT_FALSE(shard.ingress.empty());
    expect_base = shard.net->id_end();
  }
  // The global host list ascends (pod-major, shard-major slices).
  for (std::size_t i = 1; i < t.hosts.size(); ++i) {
    EXPECT_LT(t.hosts[i - 1]->id(), t.hosts[i]->id());
  }
}

TEST(FatTreePlacementTest, OneNetworkAndShardedAgree) {
  // The same wiring placed in one Network and in one Network per shard:
  // same node at every id, same host list, same routing tables.
  sim::SimContext ctx;
  net::Network net(ctx);
  FatTreeConfig one_cfg;
  one_cfg.k = 4;
  one_cfg.qdisc = q();
  const FatTree one = build_fat_tree(net, one_cfg);
  ShardedFatTreeConfig sharded_cfg;
  sharded_cfg.k = 4;
  sharded_cfg.qdisc = q();
  const ShardedFatTree sharded = build_sharded_fat_tree(sharded_cfg);

  std::size_t nodes = 0;
  for (const Part& part : sharded.shards) {
    for (net::NodeId id = part.net->id_base(); id < part.net->id_end();
         ++id, ++nodes) {
      ASSERT_NE(net.node(id), nullptr) << "id " << id;
      EXPECT_EQ(net.node(id)->name(), part.net->node(id)->name())
          << "id " << id;
    }
  }
  EXPECT_EQ(net.node_count(), nodes);

  ASSERT_EQ(one.hosts.size(), sharded.hosts.size());
  for (std::size_t i = 0; i < one.hosts.size(); ++i) {
    EXPECT_EQ(one.hosts[i]->id(), sharded.hosts[i]->id()) << "host " << i;
    EXPECT_EQ(one.hosts[i]->name(), sharded.hosts[i]->name())
        << "host " << i;
  }

  const auto same_routes = [](const std::vector<net::Switch*>& a,
                              const std::vector<net::Switch*>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i]->id(), b[i]->id()) << a[i]->name();
      EXPECT_EQ(a[i]->route_count(), b[i]->route_count()) << a[i]->name();
      EXPECT_EQ(a[i]->range_route_count(), b[i]->range_route_count())
          << a[i]->name();
      EXPECT_EQ(a[i]->default_route_count(), b[i]->default_route_count())
          << a[i]->name();
    }
  };
  same_routes(one.edges, sharded.edges);
  same_routes(one.aggregations, sharded.aggregations);
  same_routes(one.cores, sharded.cores);
  // The structural shape: k/2 exact host routes and k/2 uplinks per
  // edge, k/2 ranges and k/2 uplinks per aggregation, one range per
  // edge at every core.
  EXPECT_EQ(one.edges[0]->route_count(), 2u);
  EXPECT_EQ(one.edges[0]->default_route_count(), 2u);
  EXPECT_EQ(one.aggregations[0]->range_route_count(), 2u);
  EXPECT_EQ(one.aggregations[0]->default_route_count(), 2u);
  EXPECT_EQ(one.cores[0]->range_route_count(), 8u);
  EXPECT_EQ(one.cores[0]->default_route_count(), 0u);
}

TEST(ShardedFatTreeTest, CrossShardPacketDelivery) {
  ShardedFatTreeConfig cfg;
  cfg.k = 4;
  cfg.qdisc = q();
  ShardedFatTree t = build_sharded_fat_tree(cfg);
  net::Host* src = t.hosts.front();  // shard 0, pod 0
  net::Host* dst = t.hosts.back();   // shard 7, pod 3
  bool arrived = false;
  const std::uint16_t port = 60000;
  dst->bind(port, [&](net::Packet&&) { arrived = true; });
  net::Packet p;
  p.uid = t.shards[0].ctx->next_packet_uid();
  p.ip.src = src->id();
  p.ip.dst = dst->id();
  p.tcp.dst_port = port;
  src->send(std::move(p));

  // Hand-rolled conservative loop: drain every shard's ingress, then run
  // each shard one lookahead window — exactly what ShardGroup automates.
  std::vector<std::pair<net::Node*, net::ShardInbox::Item>> scratch;
  for (sim::TimePs end = t.lookahead;
       end < sim::milliseconds(1) && !arrived; end += t.lookahead) {
    for (auto& shard : t.shards) {
      net::drain_cross_shard_channels(shard.ingress, scratch);
    }
    for (auto& shard : t.shards) {
      shard.ctx->scheduler().run_until(end);
    }
  }
  EXPECT_TRUE(arrived);
}

TEST(ShardedFatTreeTest, RejectsBadConfig) {
  ShardedFatTreeConfig cfg;
  cfg.k = 4;
  EXPECT_THROW(build_sharded_fat_tree(cfg), std::invalid_argument);  // qdisc
  cfg.qdisc = q();
  cfg.base_rtt = 6;  // 6 ps / 12 links rounds to a zero-width window
  const std::string msg =
      thrown_message([&] { build_sharded_fat_tree(cfg); });
  EXPECT_NE(msg.find("base_rtt"), std::string::npos) << msg;
  cfg.base_rtt = sim::microseconds(100);
  cfg.k = 3;
  EXPECT_THROW(build_sharded_fat_tree(cfg), std::invalid_argument);
}

TEST(ShardedFatTreeTest, PacketUidsAreStripedPerShard) {
  ShardedFatTreeConfig cfg;
  cfg.k = 4;
  cfg.qdisc = q();
  const ShardedFatTree t = build_sharded_fat_tree(cfg);
  for (std::size_t s = 0; s < t.shards.size(); ++s) {
    EXPECT_EQ(t.shards[s].ctx->next_packet_uid(),
              (static_cast<std::uint64_t>(s) << 48) + 1)
        << "shard " << s;
  }
}

}  // namespace
}  // namespace hwatch::topo
