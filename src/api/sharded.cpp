#include "api/sharded.hpp"

#include <cstdint>
#include <utility>

#include "api/run.hpp"

namespace hwatch::api {

unsigned shards_from_env() {
  return detail::positive_env("HWATCH_SHARDS", 1024);
}

ScenarioResults run_fat_tree_sharded(const FatTreeScenarioConfig& cfg) {
  detail::ScenarioSpec spec = detail::spec_for("fat_tree_sharded", cfg);
  spec.shard_telemetry = cfg.shard_telemetry;
  spec.workers = cfg.shards != 0 ? cfg.shards : shards_from_env();
  if (spec.workers == 0) spec.workers = 1;

  // Built (and so validated) before any context exists.
  topo::ShardedFatTreeConfig tc;
  tc.k = cfg.k;
  tc.hosts = cfg.hosts;
  tc.link_rate = cfg.link_rate;
  tc.base_rtt = cfg.base_rtt;
  tc.qdisc = cfg.aqm.make_factory(cfg.link_rate);
  tc.seed = cfg.seed;
  tc.inbox_capacity = cfg.inbox_capacity;

  topo::ShardedFatTree tree;
  spec.build = [&] {
    tree = topo::build_sharded_fat_tree(tc);
    // The parts move into the run; `tree` keeps the node pointers.
    detail::ScenarioTopology topology;
    topology.parts = std::move(tree.shards);
    topology.lookahead = tree.lookahead;
    return topology;
  };
  // Permutation workload.  A flow lives in its SOURCE host's shard (the
  // sender runs there); the sink runs in the destination shard, bound
  // to a port allocated by the destination shard's manager.
  spec.add_workload = [&](const detail::TrafficManagers& tms) {
    const std::size_t n_hosts = tree.hosts.size();
    const std::uint32_t hosts_per_edge = tree.plan.hosts_per_edge;
    const std::uint64_t total_flows =
        static_cast<std::uint64_t>(n_hosts) * cfg.flows_per_host;
    std::uint64_t flow_idx = 0;
    for (std::size_t i = 0; i < n_hosts; ++i) {
      const std::size_t src_shard = i / hosts_per_edge;
      const std::size_t j = (i + n_hosts / 2 + 1) % n_hosts;
      const std::size_t dst_shard = j / hosts_per_edge;
      for (std::uint32_t f = 0; f < cfg.flows_per_host; ++f, ++flow_idx) {
        workload::FlowSpec fs;
        fs.src = tree.hosts[i];
        fs.dst = tree.hosts[j];
        fs.dst_net = &tms[dst_shard]->network();
        fs.dst_port = tms[dst_shard]->next_port(*fs.dst);
        fs.transport = cfg.transport;
        fs.tcp = cfg.tcp;
        fs.bytes = cfg.flow_bytes;
        fs.start = total_flows > 0
                       ? static_cast<sim::TimePs>(
                             (static_cast<std::uint64_t>(cfg.start_spread) *
                              flow_idx) /
                             total_flows)
                       : 0;
        fs.klass = stats::FlowClass::kShort;
        fs.epoch = f;
        tms[src_shard]->add_flow(fs);
      }
    }
  };
  spec.config = [&] {
    sim::Json config = sim::Json::object();
    config.set("k", cfg.k);
    config.set("hosts_total", static_cast<std::uint64_t>(tree.hosts.size()));
    config.set("hosts_per_edge", tree.plan.hosts_per_edge);
    config.set("link_rate_gbps", cfg.link_rate.gbits_per_sec());
    config.set("base_rtt_ps", cfg.base_rtt);
    config.set("aqm", detail::aqm_json(cfg.aqm));
    config.set("flows_per_host", cfg.flows_per_host);
    config.set("flow_bytes", cfg.flow_bytes);
    config.set("start_spread_ps", cfg.start_spread);
    config.set("transport", tcp::to_string(cfg.transport));
    config.set("hwatch_enabled", cfg.hwatch_enabled);
    config.set("duration_ps", cfg.duration);
    config.set("sample_interval_ps", cfg.sample_interval);
    config.set("seed", cfg.seed);
    config.set("shards_logical", tree.plan.shard_count);
    config.set("lookahead_ps", tree.lookahead);
    config.set("cross_links", tree.cross_links);
    config.set("inbox_capacity",
               static_cast<std::uint64_t>(cfg.inbox_capacity));
    return config;
  };
  return detail::run_scenario(spec);
}

}  // namespace hwatch::api
