// Parts, and sharding a single large fabric for conservative-lookahead
// parallel simulation.
//
// A part is one SimContext with its Network and the cross-shard
// channels delivering into it.  Every scenario runs as one or more
// parts: dumbbell and leaf-spine are one part, a sharded fat-tree is one
// part per logical shard.
//
// The fat-tree partition is a pure function of the topology shape, never
// of the worker-thread count: each edge switch and its hosts form one
// shard, the aggregation switches of a pod are spread across that pod's
// edge shards, and core switches round-robin across all shards.  Every
// inter-switch link whose endpoints land in different shards becomes a
// pair of unidirectional cross-shard links: the link (queue + serializer)
// lives on the sender's SimContext, and completed transmissions are
// pushed into the destination shard's CrossShardChannel stamped with
// their arrival time.  The minimum cross-shard propagation delay is the
// lookahead that bounds the ShardGroup sync window.
//
// Because the logical partition is fixed, HWATCH_SHARDS (the worker
// thread count) cannot change which context owns which event — the
// basis of the byte-identical-manifest invariant.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "net/shard_channel.hpp"
#include "sim/context.hpp"
#include "topo/fat_tree.hpp"

namespace hwatch::topo {

/// One SimContext with its Network.
struct Part {
  std::unique_ptr<sim::SimContext> ctx;
  std::unique_ptr<net::Network> net;
  /// Channels delivering INTO this part, fixed creation order; drain
  /// with net::drain_cross_shard_channels(ingress, scratch) at every
  /// window start.  Empty without cross-part links.
  std::vector<net::CrossShardChannel*> ingress;
  std::vector<std::unique_ptr<net::CrossShardChannel>> channels;  // owners
};

/// Part `index` of a scenario split into `count` parts.  Its context is
/// seeded with `seed` itself when `count` is 1 and with mix64(seed,
/// index) otherwise, and stamps packet uids from index << 48 (so the
/// cross-shard drain order (deliver_time, uid) is total); its Network
/// assigns node ids from `id_base`.  The defaults give a one-part
/// scenario the root seed, uid base 0 and id base 0.
Part make_part(std::uint64_t seed, std::uint32_t index = 0,
               std::uint32_t count = 1, net::NodeId id_base = 0);

struct ShardedFatTreeConfig : FatTreeConfig {
  std::uint64_t seed = 1;  // base seed; each shard derives its own
  std::size_t inbox_capacity = 1024;  // per-channel spill budget
};

/// A fat-tree instantiated as one part per logical shard.  Node ids are
/// one global space sliced contiguously per shard, so FlowKeys and
/// routes stay meaningful across shard boundaries.
struct ShardedFatTree : FatTree {
  std::vector<Part> shards;  // shards[s] holds logical shard s
  /// Minimum cross-shard propagation delay = the conservative sync
  /// window: events a shard runs in (T, T+lookahead] cannot be affected
  /// by remote packets sent after T.
  sim::TimePs lookahead = 0;
  std::uint64_t cross_links = 0;  // directed cross-shard links
};

/// Builds the sharded fabric with the same structural routes as
/// build_fat_tree.  Throws std::invalid_argument (naming the parameter)
/// on invalid shape, missing qdisc, or a base_rtt too small to yield a
/// positive per-link delay.
ShardedFatTree build_sharded_fat_tree(const ShardedFatTreeConfig& cfg);

}  // namespace hwatch::topo
