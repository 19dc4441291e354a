#include "topo/shard.hpp"

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/random.hpp"

namespace hwatch::topo {

std::uint32_t fat_tree_hosts_per_edge(std::uint32_t k,
                                      std::uint32_t hosts) {
  if (k < 2 || k % 2 != 0) {
    throw std::invalid_argument(
        "FatTreeConfig.k: must be even and >= 2 (got " + std::to_string(k) +
        ")");
  }
  const std::uint32_t edge_count = k * (k / 2);
  if (hosts == 0) return k / 2;  // classic k^3/4 total
  if (hosts % edge_count != 0) {
    throw std::invalid_argument(
        "FatTreeConfig.hosts: " + std::to_string(hosts) +
        " hosts do not divide evenly across the " +
        std::to_string(edge_count) + " edge switches of a k=" +
        std::to_string(k) + " fat-tree (hosts must be a multiple of " +
        std::to_string(edge_count) + ")");
  }
  return hosts / edge_count;
}

FatTreeShardPlan partition_fat_tree(std::uint32_t k, std::uint32_t hosts) {
  FatTreeShardPlan plan;
  plan.hosts_per_edge = fat_tree_hosts_per_edge(k, hosts);  // validates k
  plan.k = k;
  const std::uint32_t half = k / 2;
  plan.shard_count = k * half;
  plan.agg_shard.resize(static_cast<std::size_t>(k) * half);
  for (std::uint32_t pod = 0; pod < k; ++pod) {
    for (std::uint32_t a = 0; a < half; ++a) {
      plan.agg_shard[pod * half + a] = pod * half + a;
    }
  }
  plan.core_shard.resize(static_cast<std::size_t>(half) * half);
  for (std::uint32_t c = 0; c < half * half; ++c) {
    plan.core_shard[c] = c % plan.shard_count;
  }
  return plan;
}

Part make_part(std::uint64_t seed, std::uint32_t index, std::uint32_t count,
               net::NodeId id_base) {
  Part part;
  part.ctx = std::make_unique<sim::SimContext>(
      count == 1 ? seed : sim::mix64(seed, index));
  part.ctx->set_packet_uid_base(static_cast<std::uint64_t>(index) << 48);
  part.net = std::make_unique<net::Network>(*part.ctx, id_base);
  return part;
}

namespace {

/// The one fat-tree wiring, shared by both placements.  `place(s)`
/// returns the Network that holds logical shard s; it is called once
/// per shard, in shard order, just before that shard's nodes are
/// created.  A duplex link between shards placed in two different
/// Networks becomes a pair of cross-shard links whose channels land in
/// t.shards[destination], so a placement that splits the fabric keeps
/// one Part per shard there.
void wire_fat_tree(ShardedFatTree& t, const FatTreeConfig& cfg,
                   std::size_t inbox_capacity,
                   const std::function<net::Network&(std::uint32_t)>& place) {
  if (!cfg.qdisc) {
    throw std::invalid_argument(
        "FatTreeConfig.qdisc: a qdisc factory is required");
  }
  t.plan = partition_fat_tree(cfg.k, cfg.hosts);
  const std::uint32_t k = cfg.k;
  const std::uint32_t half = k / 2;
  const std::uint32_t shard_count = t.plan.shard_count;
  const std::uint32_t cores_total = half * half;
  const std::uint32_t hosts_per_edge = t.plan.hosts_per_edge;
  // Longest path: host-edge-agg-core-agg-edge-host = 6 links one way.
  const sim::TimePs per_link = cfg.base_rtt / 12;

  // --- nodes: shard by shard, so ids ascend in one global space ---
  std::vector<net::Network*> net_of(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    net::Network& net = place(s);
    net_of[s] = &net;
    const std::uint32_t pod = s / half;
    const std::uint32_t e = s % half;
    const std::string prefix = "p" + std::to_string(pod);
    for (std::uint32_t h = 0; h < hosts_per_edge; ++h) {
      t.hosts.push_back(&net.add_host(prefix + "e" + std::to_string(e) +
                                      "h" + std::to_string(h)));
    }
    t.edges.push_back(&net.add_switch(prefix + "edge" + std::to_string(e)));
    t.aggregations.push_back(
        &net.add_switch(prefix + "agg" + std::to_string(e)));
    if (s < cores_total) {
      t.cores.push_back(&net.add_switch("core" + std::to_string(s)));
    }
  }

  // --- links: one canonical enumeration order, so every shard's ingress
  // channel list (and with it the drain order) is fixed by the topology.
  // duplex() returns {u->v, v->u}.
  auto duplex = [&](std::uint32_t su, net::Node& u, std::uint32_t sv,
                    net::Node& v) -> std::pair<net::Link*, net::Link*> {
    if (net_of[su] == net_of[sv]) {
      auto d = net_of[su]->connect(u, v, cfg.link_rate, per_link, cfg.qdisc);
      return {d.forward, d.backward};
    }
    auto one_way = [&](std::uint32_t src_shard, net::Node& src,
                       std::uint32_t dst_shard, net::Node& dst) {
      Part& dst_part = t.shards[dst_shard];
      auto ch = std::make_unique<net::CrossShardChannel>(*dst_part.ctx, &dst,
                                                         inbox_capacity);
      net::Link* link = net_of[src_shard]->connect_cross_shard(
          src, dst, cfg.link_rate, per_link, cfg.qdisc, &ch->inbox());
      dst_part.ingress.push_back(ch.get());
      dst_part.channels.push_back(std::move(ch));
      ++t.cross_links;
      return link;
    };
    net::Link* uv = one_way(su, u, sv, v);
    net::Link* vu = one_way(sv, v, su, u);
    return {uv, vu};
  };

  std::vector<std::vector<net::Link*>> host_down(
      shard_count, std::vector<net::Link*>(hosts_per_edge));
  std::vector<std::vector<net::Link*>> edge_up(
      shard_count, std::vector<net::Link*>(half));  // [s][a] edge->agg(pod,a)
  std::vector<std::vector<net::Link*>> agg_down(
      shard_count, std::vector<net::Link*>(half));  // [s][e] agg->edge(pod,e)
  std::vector<std::vector<net::Link*>> agg_up(
      shard_count, std::vector<net::Link*>(half));  // [s][j] agg->core
  std::vector<std::vector<net::Link*>> core_down(
      cores_total, std::vector<net::Link*>(k));  // [c][pod] core->agg

  for (std::uint32_t s = 0; s < shard_count; ++s) {
    for (std::uint32_t h = 0; h < hosts_per_edge; ++h) {
      auto [up, down] =
          duplex(s, *t.hosts[s * hosts_per_edge + h], s, *t.edges[s]);
      host_down[s][h] = down;
    }
  }
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    const std::uint32_t pod = s / half;
    const std::uint32_t e = s % half;
    for (std::uint32_t a = 0; a < half; ++a) {
      const std::uint32_t sa = t.plan.agg_shard[pod * half + a];
      auto [up, down] = duplex(s, *t.edges[s], sa, *t.aggregations[sa]);
      edge_up[s][a] = up;
      agg_down[sa][e] = down;
    }
  }
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    const std::uint32_t pod = s / half;
    // The aggregation this shard owns has index a = s % half within its
    // pod and connects to cores [a*half, a*half + half).
    const std::uint32_t a = s % half;
    for (std::uint32_t j = 0; j < half; ++j) {
      const std::uint32_t c = a * half + j;
      const std::uint32_t sc = t.plan.core_shard[c];
      auto [up, down] = duplex(s, *t.aggregations[s], sc, *t.cores[c]);
      agg_up[s][j] = up;
      core_down[c][pod] = down;
    }
  }

  // --- structural routes (no global BFS; memory stays O(hosts) total
  // instead of O(hosts^2) route-map entries).  Shard s2's hosts are the
  // id range [first_host(s2), first_host(s2) + hosts_per_edge). ---
  const auto first_host = [&](std::uint32_t s2) {
    return t.hosts[s2 * hosts_per_edge]->id();
  };
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    const std::uint32_t pod = s / half;

    // Edge: exact routes down to local hosts, ECMP default up.
    for (std::uint32_t h = 0; h < hosts_per_edge; ++h) {
      t.edges[s]->add_route(t.hosts[s * hosts_per_edge + h]->id(),
                            host_down[s][h]);
    }
    t.edges[s]->set_default_routes(edge_up[s]);

    // Aggregation: one host-range per edge shard of its pod, default up
    // to its cores.
    for (std::uint32_t e2 = 0; e2 < half; ++e2) {
      const std::uint32_t s2 = pod * half + e2;
      t.aggregations[s]->add_range_route(
          first_host(s2), first_host(s2) + hosts_per_edge - 1,
          agg_down[s][e2]);
    }
    t.aggregations[s]->set_default_routes(agg_up[s]);
  }
  // Core: each pod's host ranges point at the one aggregation this core
  // reaches in that pod.
  for (std::uint32_t c = 0; c < cores_total; ++c) {
    for (std::uint32_t s2 = 0; s2 < shard_count; ++s2) {
      t.cores[c]->add_range_route(first_host(s2),
                                  first_host(s2) + hosts_per_edge - 1,
                                  core_down[c][s2 / half]);
    }
  }
}

}  // namespace

FatTree build_fat_tree(net::Network& net, const FatTreeConfig& cfg) {
  // Every shard lives in `net`, so no link crosses Networks and
  // t.shards stays empty; only the FatTree part is returned.
  ShardedFatTree t;
  wire_fat_tree(t, cfg, 0, [&net](std::uint32_t) -> net::Network& {
    return net;
  });
  return std::move(static_cast<FatTree&>(t));
}

ShardedFatTree build_sharded_fat_tree(const ShardedFatTreeConfig& cfg) {
  // The per-link delay is also the lookahead, so it must be positive.
  if (cfg.base_rtt / 12 <= 0) {
    throw std::invalid_argument(
        "ShardedFatTreeConfig.base_rtt: " + std::to_string(cfg.base_rtt) +
        " ps yields a non-positive per-link delay (base_rtt / 12), which "
        "cannot bound the cross-shard sync window");
  }
  ShardedFatTree t;
  t.lookahead = cfg.base_rtt / 12;
  wire_fat_tree(t, cfg, cfg.inbox_capacity,
                [&](std::uint32_t s) -> net::Network& {
                  const net::NodeId base =
                      s == 0 ? 0 : t.shards[s - 1].net->id_end();
                  t.shards.push_back(
                      make_part(cfg.seed, s, t.plan.shard_count, base));
                  return *t.shards.back().net;
                });
  return t;
}

}  // namespace hwatch::topo
