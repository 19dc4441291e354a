#include "api/scenario.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/run.hpp"
#include "sim/context.hpp"

namespace hwatch::api {

std::string to_string(AqmKind kind) {
  switch (kind) {
    case AqmKind::kDropTail:
      return "droptail";
    case AqmKind::kRed:
      return "red-ecn";
    case AqmKind::kDctcpStep:
      return "dctcp-step";
    case AqmKind::kPriority:
      return "priority2";
  }
  return "?";
}

namespace {

/// Throws std::invalid_argument naming the first field of `aqm` that
/// would build a queue admitting nothing or a RED with no valid curve.
void check_aqm(const AqmConfig& aqm) {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("AqmConfig: " + what);
  };
  if (aqm.buffer_packets == 0) {
    reject("buffer_packets = 0 admits no packet; need >= 1");
  }
  if (aqm.byte_mode && aqm.mtu_bytes == 0) {
    reject("mtu_bytes = 0 with byte_mode makes a 0-byte buffer; need >= 1");
  }
  if ((aqm.kind == AqmKind::kDctcpStep || aqm.kind == AqmKind::kRed) &&
      aqm.mark_threshold_packets >= aqm.buffer_packets) {
    reject("mark_threshold_packets = " +
           std::to_string(aqm.mark_threshold_packets) +
           " >= buffer_packets = " + std::to_string(aqm.buffer_packets) +
           " never marks; need a threshold below the buffer");
  }
  if (aqm.kind == AqmKind::kRed) {
    // Negated so NaN fails too.
    if (!(aqm.red_max_p > 0.0 && aqm.red_max_p <= 1.0)) {
      reject("red_max_p = " + std::to_string(aqm.red_max_p) +
             " is outside (0, 1]");
    }
    if (!(aqm.red_weight > 0.0 && aqm.red_weight <= 1.0)) {
      reject("red_weight = " + std::to_string(aqm.red_weight) +
             " is outside (0, 1]");
    }
  }
}

}  // namespace

net::QdiscFactory AqmConfig::make_factory(sim::DataRate link_rate) const {
  check_aqm(*this);
  const net::QueueLimits limits =
      byte_mode
          ? net::QueueLimits::in_bytes(buffer_packets *
                                       std::uint64_t{mtu_bytes})
          : net::QueueLimits::in_packets(buffer_packets);
  switch (kind) {
    case AqmKind::kDropTail:
      return [limits] { return std::make_unique<net::DropTailQueue>(limits); };
    case AqmKind::kPriority:
      return [limits] { return std::make_unique<net::PriorityQueue>(limits); };
    case AqmKind::kDctcpStep: {
      if (byte_mode) {
        const std::uint64_t k_bytes =
            mark_threshold_packets * std::uint64_t{mtu_bytes};
        return [limits, k_bytes] {
          return std::make_unique<net::DctcpThresholdQueue>(limits, k_bytes);
        };
      }
      return net::make_dctcp_factory(buffer_packets,
                                     mark_threshold_packets);
    }
    case AqmKind::kRed: {
      net::RedConfig red;
      // Floyd-style thresholds around the configured marking point.
      red.min_th_pkts = static_cast<double>(mark_threshold_packets);
      red.max_th_pkts =
          std::max<double>(static_cast<double>(mark_threshold_packets) * 3,
                           mark_threshold_packets + 1.0);
      red.max_p = red_max_p;
      red.weight = red_weight;
      red.gentle = true;
      red.ecn = true;
      red.mean_pkt_time = link_rate.transmission_time(mtu_bytes);
      red.byte_mode = byte_mode;
      red.mean_pkt_bytes = mtu_bytes;
      return [limits, red] {
        return std::make_unique<net::RedQueue>(limits, red);
      };
    }
  }
  throw std::logic_error("unknown AqmKind");
}

std::vector<stats::FlowRecord> ScenarioResults::short_flows() const {
  std::vector<stats::FlowRecord> out;
  for (const auto& r : records) {
    if (r.klass == stats::FlowClass::kShort) out.push_back(r);
  }
  return out;
}

std::vector<stats::FlowRecord> ScenarioResults::long_flows() const {
  std::vector<stats::FlowRecord> out;
  for (const auto& r : records) {
    if (r.klass == stats::FlowClass::kLong) out.push_back(r);
  }
  return out;
}

stats::Cdf ScenarioResults::short_fct_cdf_ms() const {
  return stats::Cdf(stats::fct_ms_samples(short_flows()));
}

stats::Cdf ScenarioResults::long_goodput_cdf_gbps() const {
  return stats::Cdf(stats::goodput_gbps_samples(long_flows()));
}

stats::Cdf ScenarioResults::epoch_mean_fct_cdf_ms() const {
  std::map<std::uint32_t, std::pair<double, std::size_t>> per_epoch;
  for (const auto& r : records) {
    if (r.klass != stats::FlowClass::kShort || !r.completed) continue;
    auto& [sum, n] = per_epoch[r.epoch];
    sum += r.fct_ms();
    ++n;
  }
  stats::Cdf cdf;
  for (const auto& [epoch, acc] : per_epoch) {
    (void)epoch;
    if (acc.second > 0) {
      cdf.add(acc.first / static_cast<double>(acc.second));
    }
  }
  return cdf;
}

double ScenarioResults::mean_utilization() const {
  if (utilization.empty()) return 0;
  double sum = 0;
  for (const auto& p : utilization) sum += p.value;
  return sum / static_cast<double>(utilization.size());
}

std::size_t ScenarioResults::incomplete_short_flows() const {
  std::size_t n = 0;
  for (const auto& r : records) {
    if (r.klass == stats::FlowClass::kShort && !r.completed) ++n;
  }
  return n;
}


ScenarioResults run_dumbbell(const DumbbellScenarioConfig& cfg) {
  std::uint32_t long_count = 0;
  for (const auto& g : cfg.long_groups) long_count += g.count;
  std::uint32_t short_count = 0;
  for (const auto& g : cfg.short_groups) short_count += g.count;
  if (long_count + short_count > cfg.pairs) {
    throw std::invalid_argument(
        "dumbbell scenario: pairs = " + std::to_string(cfg.pairs) +
        " but long_groups and short_groups ask for " +
        std::to_string(long_count + short_count) +
        " sources; each source needs its own host pair");
  }

  // Built (and so validated) before any context exists.
  net::QdiscFactory edge_qdisc = cfg.edge_aqm.make_factory(cfg.edge_rate);
  net::QdiscFactory core_qdisc =
      cfg.core_aqm.make_factory(cfg.bottleneck_rate);

  topo::Dumbbell d;
  detail::ScenarioSpec spec = detail::spec_for("dumbbell", cfg);
  spec.build = [&] {
    detail::ScenarioTopology topology;
    topology.parts.push_back(topo::make_part(cfg.seed));
    topo::DumbbellConfig t;
    t.pairs = cfg.pairs;
    t.edge_rate = cfg.edge_rate;
    t.bottleneck_rate = cfg.bottleneck_rate;
    t.base_rtt = cfg.base_rtt;
    t.edge_qdisc = std::move(edge_qdisc);
    t.bottleneck_qdisc = std::move(core_qdisc);
    d = topo::build_dumbbell(*topology.parts[0].net, t);
    topology.bottleneck = d.bottleneck;
    topology.bottleneck_buffer_pkts = cfg.core_aqm.buffer_packets;
    return topology;
  };
  spec.add_workload = [&](const detail::TrafficManagers& tms) {
    sim::Rng& rng = tms[0]->network().ctx().rng();
    // Long flows use pairs [0, long_count); short flows the next range.
    const auto hosts = [](const std::vector<net::Host*>& side,
                          std::uint32_t first, std::uint32_t count) {
      return std::vector<net::Host*>(side.begin() + first,
                                     side.begin() + first + count);
    };
    if (long_count > 0) {
      workload::add_bulk_flows(*tms[0], hosts(d.left, 0, long_count),
                               hosts(d.right, 0, long_count),
                               cfg.long_groups, 0, cfg.bulk_start_spread,
                               rng);
    }
    if (short_count > 0) {
      workload::add_incast_epochs(
          *tms[0], hosts(d.left, long_count, short_count),
          hosts(d.right, long_count, short_count), cfg.short_groups,
          cfg.incast, rng);
    }
  };
  spec.config = [&] {
    sim::Json config = sim::Json::object();
    config.set("pairs", cfg.pairs);
    config.set("edge_rate_gbps", cfg.edge_rate.gbits_per_sec());
    config.set("bottleneck_rate_gbps", cfg.bottleneck_rate.gbits_per_sec());
    config.set("base_rtt_ps", cfg.base_rtt);
    config.set("edge_aqm", detail::aqm_json(cfg.edge_aqm));
    config.set("core_aqm", detail::aqm_json(cfg.core_aqm));
    config.set("hwatch_enabled", cfg.hwatch_enabled);
    config.set("duration_ps", cfg.duration);
    config.set("sample_interval_ps", cfg.sample_interval);
    config.set("seed", cfg.seed);
    return config;
  };
  return detail::run_scenario(spec);
}

ScenarioResults run_leaf_spine(const LeafSpineScenarioConfig& cfg) {
  if (cfg.racks < 2) {
    throw std::invalid_argument(
        "leaf-spine scenario: racks = " + std::to_string(cfg.racks) +
        "; need >= 2 (the last rack receives, the others send)");
  }

  // Built (and so validated) before any context exists.
  net::QdiscFactory edge_qdisc = cfg.edge_aqm.make_factory(cfg.link_rate);
  net::QdiscFactory fabric_qdisc =
      cfg.fabric_aqm.make_factory(cfg.link_rate);

  topo::LeafSpine t;
  const std::uint32_t recv_rack = cfg.racks - 1;
  detail::ScenarioSpec spec = detail::spec_for("leaf_spine", cfg);
  spec.build = [&] {
    detail::ScenarioTopology topology;
    topology.parts.push_back(topo::make_part(cfg.seed));
    topo::LeafSpineConfig tc;
    tc.racks = cfg.racks;
    tc.hosts_per_rack = cfg.hosts_per_rack;
    tc.host_rate = cfg.link_rate;
    tc.uplink_rate = cfg.link_rate;
    tc.base_rtt = cfg.base_rtt;
    tc.edge_qdisc = std::move(edge_qdisc);
    tc.fabric_qdisc = std::move(fabric_qdisc);
    t = topo::build_leaf_spine(*topology.parts[0].net, tc);
    // The spine -> receiving-leaf downlink (single spine).
    topology.bottleneck = t.downlinks[recv_rack];
    topology.bottleneck_buffer_pkts = cfg.fabric_aqm.buffer_packets;
    return topology;
  };
  spec.add_workload = [&](const detail::TrafficManagers& tms) {
    workload::TrafficManager& tm = *tms[0];
    sim::Rng& rng = tm.network().ctx().rng();
    // Bulk flows: round-robin across the sending racks, all towards
    // hosts in the receiving rack (the spine -> leaf[recv_rack] link is
    // the bottleneck, as in the testbed).
    std::vector<net::Host*> bulk_srcs;
    for (std::uint32_t i = 0; i < cfg.bulk_flows; ++i) {
      const auto& rack_hosts = t.hosts[i % recv_rack];
      bulk_srcs.push_back(rack_hosts[(i / recv_rack) % rack_hosts.size()]);
    }
    if (cfg.bulk_flows > 0) {
      workload::SenderGroup g = cfg.bulk_template;
      g.count = cfg.bulk_flows;
      workload::add_bulk_flows(tm, bulk_srcs, t.hosts[recv_rack], {g}, 0,
                               sim::milliseconds(10), rng);
    }

    // Web servers: the first `web_servers_per_rack` hosts of every
    // sending rack; clients: the first `web_clients` hosts of the
    // receiving rack.
    std::vector<net::Host*> servers;
    for (std::uint32_t r = 0; r < recv_rack; ++r) {
      for (std::uint32_t h = 0;
           h < cfg.web_servers_per_rack && h < t.hosts[r].size(); ++h) {
        servers.push_back(t.hosts[r][h]);
      }
    }
    std::vector<net::Host*> clients;
    for (std::uint32_t h = 0;
         h < cfg.web_clients && h < t.hosts[recv_rack].size(); ++h) {
      clients.push_back(t.hosts[recv_rack][h]);
    }
    if (cfg.web_pattern == LeafSpineScenarioConfig::WebPattern::kOpenWaves) {
      workload::add_web_waves(tm, servers, clients, cfg.web_transport,
                              cfg.web_tcp, cfg.web, rng);
    } else {
      workload::add_closed_loop_web(tm, servers, clients, cfg.web_transport,
                                    cfg.web_tcp, cfg.closed_loop, rng);
    }
  };
  spec.config = [&] {
    sim::Json config = sim::Json::object();
    config.set("racks", cfg.racks);
    config.set("hosts_per_rack", cfg.hosts_per_rack);
    config.set("link_rate_gbps", cfg.link_rate.gbits_per_sec());
    config.set("base_rtt_ps", cfg.base_rtt);
    config.set("edge_aqm", detail::aqm_json(cfg.edge_aqm));
    config.set("fabric_aqm", detail::aqm_json(cfg.fabric_aqm));
    config.set("bulk_flows", cfg.bulk_flows);
    config.set("web_servers_per_rack", cfg.web_servers_per_rack);
    config.set("web_clients", cfg.web_clients);
    config.set("web_pattern",
               cfg.web_pattern == LeafSpineScenarioConfig::WebPattern::
                                      kOpenWaves
                   ? "open-waves"
                   : "closed-loop");
    config.set("hwatch_enabled", cfg.hwatch_enabled);
    config.set("duration_ps", cfg.duration);
    config.set("sample_interval_ps", cfg.sample_interval);
    config.set("seed", cfg.seed);
    return config;
  };
  return detail::run_scenario(spec);
}

}  // namespace hwatch::api
