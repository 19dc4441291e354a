// k-ary fat-tree (Al-Fares et al., SIGCOMM'08), the canonical multi-path
// datacenter fabric the paper cites as its deployment context.  Included
// as an extension so the HWatch results can be checked on a topology with
// genuine ECMP path diversity.
//
// Layout for even k: (k/2)^2 core switches; k pods, each with k/2
// aggregation and k/2 edge switches; each edge switch serves
// hosts_per_edge hosts (k/2 in the classic layout; `hosts` overrides the
// total for scale studies, as long as it divides evenly across the
// k*(k/2) edge switches).
//
// There is one wiring (topo/shard.cpp), built from the logical shard
// plan below and placed either in one Network (build_fat_tree) or one
// Network per shard (build_sharded_fat_tree, topo/shard.hpp).  Both
// placements create the same nodes with the same ids and names and
// install the same structural routes.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"

namespace hwatch::topo {

struct FatTreeConfig {
  std::uint32_t k = 4;      // must be even and >= 2
  std::uint32_t hosts = 0;  // total hosts; 0 = classic k^3/4
  sim::DataRate link_rate = sim::DataRate::gbps(10);
  sim::TimePs base_rtt = sim::microseconds(100);
  net::QdiscFactory qdisc;  // used on every port
};

/// Logical shard assignment for a k-ary fat-tree: shard count equals the
/// edge-switch count E = k*(k/2); edge switch (pod p, index e) and its
/// hosts map to shard p*(k/2)+e, aggregation (pod p, index a) to shard
/// p*(k/2)+a, and core c to shard c % E.
struct FatTreeShardPlan {
  std::uint32_t k = 0;
  std::uint32_t hosts_per_edge = 0;
  std::uint32_t shard_count = 0;  // = k * (k/2), one per edge switch

  /// agg_shard[pod*(k/2)+a] = owning shard of aggregation switch a of pod.
  std::vector<std::uint32_t> agg_shard;
  /// core_shard[c] = owning shard of core switch c.
  std::vector<std::uint32_t> core_shard;

  std::uint32_t shard_of_edge(std::uint32_t pod, std::uint32_t e) const {
    return pod * (k / 2) + e;
  }
};

/// The nodes of a built fat-tree.  Node ids ascend shard by shard, and
/// within a shard: its hosts, its edge switch, its aggregation switch,
/// then its core switch if it owns one.
struct FatTree {
  FatTreeShardPlan plan;
  std::vector<net::Host*> hosts;           // pod-major (= shard-major)
  std::vector<net::Switch*> edges;         // edges[s]: shard s's edge
  std::vector<net::Switch*> aggregations;  // aggregations[s]: shard s's agg
  std::vector<net::Switch*> cores;         // (k/2)^2

  std::uint32_t hosts_per_pod() const {
    return (plan.k / 2) * plan.hosts_per_edge;
  }
};

/// Validates a fat-tree shape and returns the per-edge host count.
/// `hosts` = 0 means the classic k^3/4.  Throws std::invalid_argument
/// with a message naming the offending parameter when k is odd, zero or
/// < 2, or when `hosts` does not divide evenly across the k*(k/2) edge
/// switches.
std::uint32_t fat_tree_hosts_per_edge(std::uint32_t k, std::uint32_t hosts);

/// The shard plan of a validated shape (throws like
/// fat_tree_hosts_per_edge).
FatTreeShardPlan partition_fat_tree(std::uint32_t k, std::uint32_t hosts = 0);

/// Builds every shard into `net`, so every link is a local one.  Edge
/// switches hold exact routes for their hosts plus default ECMP uplinks;
/// aggregation and core switches hold per-edge host-range routes.
/// Throws std::invalid_argument naming the parameter on an invalid shape
/// or a missing qdisc.
FatTree build_fat_tree(net::Network& net, const FatTreeConfig& cfg);

}  // namespace hwatch::topo
