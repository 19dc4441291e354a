// hwbench — host-cost benchmark program for the hwatch simulator.
//
//   hwbench --workload NAME --seed N --seconds S --mode timed|traced|digest
//
// timed   Repeats the workload's api call with duration = 0 (set-up) and
//         with the configured horizon for about S seconds; reports the
//         medians of host wall time, set-up time and process CPU time,
//         plus the process peak RSS.
// traced  Composes the scenario from the same module calls the api
//         runner makes, times each call from here, runs it once with the
//         self-profiler off and once with it on, and checks both against
//         the api run (composition guard).  The sharded workload also
//         runs the api with shard telemetry on and reads the per-worker
//         timeline and the manifest `shards` section.
// digest  One api call; prints its output digest (for recording).
//
// Prints one JSON object on stdout: per-run digests and event counts,
// attempted/failed counts, sample counts and the metrics.  run.py checks
// the digests against the recorded values and prints the result line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/scenario.hpp"
#include "api/sharded.hpp"
#include "fig89_common.hpp"
#include "net/shard_channel.hpp"
#include "sim/context.hpp"
#include "sim/json.hpp"
#include "sim/shard_group.hpp"
#include "stats/timeseries.hpp"
#include "topo/shard.hpp"

using namespace hwatch;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// A "Vm...: <n> kB" line of /proc/self/status, in MB.
double proc_status_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  for (std::string line; std::getline(status, line);) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;
    }
  }
  throw std::runtime_error("no " + prefix + " line in /proc/self/status");
}

/// High-water RSS of this process image.  getrusage's ru_maxrss would
/// also count the parent's RSS at fork, which Linux carries across exec.
double peak_rss_mb() { return proc_status_mb("VmHWM"); }
double current_rss_mb() { return proc_status_mb("VmRSS"); }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- workloads --------------------------------------------------------

/// Fig. 8 TCP-HWATCH point: 50 sources on the paper's 10 Gb/s dumbbell.
api::DumbbellScenarioConfig dumbbell_config(std::uint64_t seed) {
  api::DumbbellScenarioConfig cfg =
      bench::scheme_config(bench::Scheme::kTcpHWatch, 50);
  cfg.seed = seed;
  return cfg;
}

/// Fig. 11 testbed with HWatch and closed-loop web requests, sized so the
/// loop is still running at the 3 s horizon.
api::LeafSpineScenarioConfig leafspine_config(std::uint64_t seed) {
  api::LeafSpineScenarioConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 21;
  cfg.link_rate = sim::DataRate::gbps(1);
  cfg.base_rtt = sim::microseconds(200);
  cfg.fabric_aqm.kind = api::AqmKind::kRed;
  cfg.fabric_aqm.buffer_packets = 170;
  cfg.fabric_aqm.mark_threshold_packets = 34;
  cfg.fabric_aqm.byte_mode = true;
  cfg.fabric_aqm.mtu_bytes = 1500;
  cfg.edge_aqm = cfg.fabric_aqm;
  cfg.edge_aqm.kind = api::AqmKind::kDropTail;

  tcp::TcpConfig guest = bench::paper_tcp(tcp::EcnMode::kNone);
  guest.mss = net::kDefaultMss;
  cfg.bulk_flows = 42;
  cfg.bulk_template = {tcp::Transport::kNewReno, guest, 0, "iperf"};
  cfg.web_servers_per_rack = 7;
  cfg.web_clients = 6;
  cfg.web_transport = tcp::Transport::kNewReno;
  cfg.web_tcp = guest;
  cfg.web_pattern = api::LeafSpineScenarioConfig::WebPattern::kClosedLoop;
  cfg.closed_loop.slots_per_pair = 10;
  cfg.closed_loop.requests_per_slot = 40;
  cfg.closed_loop.object_bytes = 11'500;
  cfg.closed_loop.start = sim::milliseconds(300);
  cfg.closed_loop.start_spread = sim::milliseconds(100);

  cfg.hwatch_enabled = true;
  cfg.hwatch = bench::paper_hwatch(cfg.base_rtt);
  cfg.hwatch.mss = net::kDefaultMss;
  cfg.hwatch.min_window_bytes = net::kDefaultMss;
  cfg.hwatch.pace_synacks = true;
  cfg.hwatch.synack_batch_size = 1;
  cfg.hwatch.synack_batch_interval = sim::milliseconds(1);

  cfg.duration = sim::seconds(3.0);
  cfg.sample_interval = sim::milliseconds(5);
  cfg.seed = seed;
  return cfg;
}

/// k=12 DCTCP permutation on the sharded engine, HWatch off, 2 workers.
api::FatTreeScenarioConfig fattree_config(std::uint64_t seed) {
  api::FatTreeScenarioConfig cfg;
  cfg.k = 12;
  cfg.aqm.kind = api::AqmKind::kDctcpStep;
  cfg.transport = tcp::Transport::kDctcp;
  cfg.tcp.min_rto = sim::milliseconds(10);
  cfg.tcp.initial_rto = sim::milliseconds(10);
  cfg.flows_per_host = 4;
  cfg.flow_bytes = 100'000;
  cfg.start_spread = sim::milliseconds(1);
  cfg.duration = sim::milliseconds(200);
  cfg.seed = seed;
  cfg.shards = 2;  // explicit, so HWATCH_SHARDS cannot change it
  return cfg;
}

// ---- output digest ----------------------------------------------------

/// FNV-1a over the simulated results no pure speed-up may move: flow
/// records, bottleneck queue stats, fabric drops and shim counters.
/// Event counts, manifests and time series are deliberately left out.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string digest_of(const api::ScenarioResults& r) {
  Digest d;
  d.add(r.records.size());
  for (const stats::FlowRecord& f : r.records) {
    d.add(f.key.src);
    d.add(f.key.dst);
    d.add(f.key.src_port);
    d.add(f.key.dst_port);
    d.add(f.bytes);
    d.add(static_cast<std::uint64_t>(f.start_time));
    d.add(f.completed ? static_cast<std::uint64_t>(f.fct) : ~0ull);
    d.add(f.retransmits);
    d.add(f.timeouts);
  }
  const net::QueueStats& q = r.bottleneck_queue;
  for (std::uint64_t v :
       {q.enqueued, q.dequeued, q.dropped, q.ecn_marked, q.bytes_enqueued,
        q.bytes_dropped, q.max_len_pkts, q.max_len_bytes, q.dropped_data,
        q.dropped_probes, q.dropped_ctrl}) {
    d.add(v);
  }
  d.add(r.fabric_drops);
  const api::ShimAggregate& s = r.shim;
  for (std::uint64_t v :
       {s.probes_injected, s.probe_bytes_injected, s.synacks_rewritten,
        s.acks_rewritten, s.window_decisions, s.flows_tracked}) {
    d.add(v);
  }
  return d.hex();
}

// ---- traced mode: the scenario composed from module calls -------------

/// Host time of each call into a module, plus the profiler's counts.
struct Phases {
  double topo_build_s = 0;
  double topo_build_rss_mb = 0;
  double hwatch_install_s = 0;
  double workload_install_s = 0;
  double run_s = 0;
  double collect_s = 0;
  std::uint64_t flows = 0;
  std::uint64_t flows_completed = 0;
  net::QueueStats qdisc;  // summed over every link
  sim::SelfProfiler profile;
};

template <typename F>
auto timed(double& acc, F&& f) {
  const Clock::time_point t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    acc += seconds_since(t0);
  } else {
    auto out = f();
    acc += seconds_since(t0);
    return out;
  }
}

void add_queue_stats(net::QueueStats& into, const net::Network& net) {
  for (const auto& l : net.links()) {
    const net::QueueStats& q = l->qdisc().stats();
    into.enqueued += q.enqueued;
    into.ecn_marked += q.ecn_marked;
    into.dropped += q.dropped;
  }
}

void add_shims(api::ShimAggregate& agg,
               const std::vector<std::unique_ptr<core::HypervisorShim>>& v) {
  for (const auto& s : v) {
    agg.probes_injected += s->stats().probes_injected;
    agg.probe_bytes_injected += s->stats().probe_bytes_injected;
    agg.synacks_rewritten += s->stats().synacks_rewritten;
    agg.acks_rewritten += s->stats().acks_rewritten;
    agg.window_decisions += s->stats().window_decisions;
    agg.flows_tracked += s->flow_table().created();
  }
}

std::vector<std::unique_ptr<core::HypervisorShim>> install_shims(
    net::Network& net, const core::HWatchConfig& cfg, sim::Rng& rng) {
  std::vector<std::unique_ptr<core::HypervisorShim>> shims;
  shims.reserve(net.hosts().size());
  for (net::Host* host : net.hosts()) {
    shims.push_back(core::install_hwatch(net, *host, cfg, rng.fork()));
  }
  return shims;
}

/// Samplers, run and collection shared by both single-context scenarios
/// (the order of the api runners: samplers, run_until, collect).
api::ScenarioResults run_single(
    sim::SimContext& ctx, net::Network& net, net::Link& bottleneck,
    workload::TrafficManager& tm,
    const std::vector<std::unique_ptr<core::HypervisorShim>>& shims,
    sim::TimePs interval, sim::TimePs duration, Phases& ph) {
  sim::Scheduler& sched = ctx.scheduler();
  auto queue_sampler =
      stats::make_queue_sampler(sched, bottleneck, interval, duration);
  stats::UtilizationSampler util(sched, bottleneck, interval, duration);
  stats::ThroughputSampler tput(sched, bottleneck, interval, duration);
  timed(ph.run_s, [&] { sched.run_until(duration); });

  api::ScenarioResults res;
  timed(ph.collect_s, [&] {
    res.records = tm.collect_records();
    res.bottleneck_queue = bottleneck.qdisc().stats();
    res.fabric_drops = net.total_queue_drops();
    res.retransmits = tm.total_retransmits();
    res.timeouts = tm.total_timeouts();
    res.events_executed = sched.executed();
    add_shims(res.shim, shims);
  });
  ph.flows = tm.flow_count();
  ph.flows_completed = tm.completed_count();
  add_queue_stats(ph.qdisc, net);
  ph.profile.merge_from(ctx.profiler());
  return res;
}

/// run_dumbbell's default path, call by call.
api::ScenarioResults compose_dumbbell(const api::DumbbellScenarioConfig& cfg,
                                      bool profile, Phases& ph) {
  sim::SimContext ctx(cfg.seed);
  ctx.profiler().set_enabled(profile);
  net::Network net(ctx);
  sim::Rng& rng = ctx.rng();

  topo::DumbbellConfig tc;
  tc.pairs = cfg.pairs;
  tc.edge_rate = cfg.edge_rate;
  tc.bottleneck_rate = cfg.bottleneck_rate;
  tc.base_rtt = cfg.base_rtt;
  tc.edge_qdisc = cfg.edge_aqm.make_factory(cfg.edge_rate);
  tc.bottleneck_qdisc = cfg.core_aqm.make_factory(cfg.bottleneck_rate);
  const double rss0 = current_rss_mb();
  topo::Dumbbell d =
      timed(ph.topo_build_s, [&] { return topo::build_dumbbell(net, tc); });
  ph.topo_build_rss_mb = current_rss_mb() - rss0;

  std::vector<std::unique_ptr<core::HypervisorShim>> shims;
  if (cfg.hwatch_enabled) {
    shims = timed(ph.hwatch_install_s,
                  [&] { return install_shims(net, cfg.hwatch, rng); });
  }

  workload::TrafficManager tm(net);
  timed(ph.workload_install_s, [&] {
    std::uint32_t n_long = 0, n_short = 0;
    for (const auto& g : cfg.long_groups) n_long += g.count;
    for (const auto& g : cfg.short_groups) n_short += g.count;
    const auto slice = [](const std::vector<net::Host*>& v,
                          std::uint32_t lo, std::uint32_t n) {
      return std::vector<net::Host*>(v.begin() + lo, v.begin() + lo + n);
    };
    if (n_long > 0) {
      workload::add_bulk_flows(tm, slice(d.left, 0, n_long),
                               slice(d.right, 0, n_long), cfg.long_groups,
                               0, cfg.bulk_start_spread, rng);
    }
    if (n_short > 0) {
      workload::add_incast_epochs(tm, slice(d.left, n_long, n_short),
                                  slice(d.right, n_long, n_short),
                                  cfg.short_groups, cfg.incast, rng);
    }
  });
  return run_single(ctx, net, *d.bottleneck, tm, shims, cfg.sample_interval,
                    cfg.duration, ph);
}

/// run_leaf_spine's default path (closed-loop web pattern), call by call.
api::ScenarioResults compose_leafspine(const api::LeafSpineScenarioConfig& cfg,
                                       bool profile, Phases& ph) {
  sim::SimContext ctx(cfg.seed);
  ctx.profiler().set_enabled(profile);
  net::Network net(ctx);
  sim::Rng& rng = ctx.rng();

  topo::LeafSpineConfig tc;
  tc.racks = cfg.racks;
  tc.hosts_per_rack = cfg.hosts_per_rack;
  tc.host_rate = cfg.link_rate;
  tc.uplink_rate = cfg.link_rate;
  tc.base_rtt = cfg.base_rtt;
  tc.edge_qdisc = cfg.edge_aqm.make_factory(cfg.link_rate);
  tc.fabric_qdisc = cfg.fabric_aqm.make_factory(cfg.link_rate);
  const double rss0 = current_rss_mb();
  topo::LeafSpine t =
      timed(ph.topo_build_s, [&] { return topo::build_leaf_spine(net, tc); });
  ph.topo_build_rss_mb = current_rss_mb() - rss0;

  std::vector<std::unique_ptr<core::HypervisorShim>> shims;
  if (cfg.hwatch_enabled) {
    shims = timed(ph.hwatch_install_s,
                  [&] { return install_shims(net, cfg.hwatch, rng); });
  }

  workload::TrafficManager tm(net);
  const std::uint32_t recv = cfg.racks - 1;
  timed(ph.workload_install_s, [&] {
    std::vector<net::Host*> bulk_srcs;
    for (std::uint32_t i = 0; i < cfg.bulk_flows; ++i) {
      const auto& rack = t.hosts[i % recv];
      bulk_srcs.push_back(rack[(i / recv) % rack.size()]);
    }
    if (cfg.bulk_flows > 0) {
      workload::SenderGroup g = cfg.bulk_template;
      g.count = cfg.bulk_flows;
      workload::add_bulk_flows(tm, bulk_srcs, t.hosts[recv], {g}, 0,
                               sim::milliseconds(10), rng);
    }
    std::vector<net::Host*> servers;
    for (std::uint32_t r = 0; r < recv; ++r) {
      for (std::uint32_t h = 0;
           h < cfg.web_servers_per_rack && h < t.hosts[r].size(); ++h) {
        servers.push_back(t.hosts[r][h]);
      }
    }
    std::vector<net::Host*> clients;
    for (std::uint32_t h = 0;
         h < cfg.web_clients && h < t.hosts[recv].size(); ++h) {
      clients.push_back(t.hosts[recv][h]);
    }
    workload::add_closed_loop_web(tm, servers, clients, cfg.web_transport,
                                  cfg.web_tcp, cfg.closed_loop, rng);
  });
  return run_single(ctx, net, *t.downlinks[recv], tm, shims,
                    cfg.sample_interval, cfg.duration, ph);
}

/// One shard's epoch protocol, as the sharded api runner executes it
/// with telemetry off: drain the cross-shard inboxes, then run.
struct ShardRun final : sim::ShardTask {
  sim::SimContext* ctx = nullptr;
  std::vector<net::CrossShardChannel*>* ingress = nullptr;
  std::vector<std::pair<net::Node*, net::ShardInbox::Item>> scratch;

  void drain(sim::TimePs) override {
    net::drain_cross_shard_channels(*ingress, scratch);
  }
  void run(sim::TimePs window_end) override {
    ctx->scheduler().run_until(window_end);
  }
};

/// run_fat_tree_sharded's default path with HWatch off and no telemetry,
/// call by call.
api::ScenarioResults compose_fattree(const api::FatTreeScenarioConfig& cfg,
                                     bool profile, Phases& ph) {
  topo::ShardedFatTreeConfig tc;
  tc.k = cfg.k;
  tc.hosts = cfg.hosts;
  tc.link_rate = cfg.link_rate;
  tc.base_rtt = cfg.base_rtt;
  tc.qdisc = cfg.aqm.make_factory(cfg.link_rate);
  tc.seed = cfg.seed;
  tc.inbox_capacity = cfg.inbox_capacity;
  const double rss0 = current_rss_mb();
  topo::ShardedFatTree tree = timed(
      ph.topo_build_s, [&] { return topo::build_sharded_fat_tree(tc); });
  ph.topo_build_rss_mb = current_rss_mb() - rss0;
  const std::size_t n_shards = tree.shards.size();
  for (auto& shard : tree.shards) shard.ctx->profiler().set_enabled(profile);

  std::vector<std::unique_ptr<workload::TrafficManager>> tms;
  timed(ph.workload_install_s, [&] {
    for (auto& shard : tree.shards) {
      tms.push_back(std::make_unique<workload::TrafficManager>(*shard.net));
    }
    const std::size_t n_hosts = tree.hosts.size();
    const std::uint32_t per_edge = tree.plan.hosts_per_edge;
    const std::uint64_t total = std::uint64_t{n_hosts} * cfg.flows_per_host;
    std::uint64_t idx = 0;
    for (std::size_t i = 0; i < n_hosts; ++i) {
      const std::size_t j = (i + n_hosts / 2 + 1) % n_hosts;
      const std::size_t dst_shard = j / per_edge;
      for (std::uint32_t f = 0; f < cfg.flows_per_host; ++f, ++idx) {
        workload::FlowSpec spec;
        spec.src = tree.hosts[i];
        spec.dst = tree.hosts[j];
        spec.dst_net = tree.shards[dst_shard].net.get();
        spec.dst_port = tms[dst_shard]->next_port(*spec.dst);
        spec.transport = cfg.transport;
        spec.tcp = cfg.tcp;
        spec.bytes = cfg.flow_bytes;
        spec.start = total > 0
                         ? static_cast<sim::TimePs>(
                               static_cast<std::uint64_t>(cfg.start_spread) *
                               idx / total)
                         : 0;
        spec.klass = stats::FlowClass::kShort;
        spec.epoch = f;
        tms[i / per_edge]->add_flow(spec);
      }
    }
  });

  std::vector<ShardRun> tasks(n_shards);
  sim::ShardGroup group(cfg.shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    tasks[s].ctx = tree.shards[s].ctx.get();
    tasks[s].ingress = &tree.shards[s].ingress;
    group.add(&tasks[s]);
  }
  timed(ph.run_s, [&] { group.run(cfg.duration, tree.lookahead); });

  api::ScenarioResults res;
  timed(ph.collect_s, [&] {
    for (std::size_t s = 0; s < n_shards; ++s) {
      auto records = tms[s]->collect_records();
      res.records.insert(res.records.end(), records.begin(), records.end());
      res.fabric_drops += tree.shards[s].net->total_queue_drops();
      res.retransmits += tms[s]->total_retransmits();
      res.timeouts += tms[s]->total_timeouts();
      res.events_executed += tree.shards[s].ctx->scheduler().executed();
    }
  });
  for (std::size_t s = 0; s < n_shards; ++s) {
    ph.flows += tms[s]->flow_count();
    ph.flows_completed += tms[s]->completed_count();
    add_queue_stats(ph.qdisc, *tree.shards[s].net);
    ph.profile.merge_from(tree.shards[s].ctx->profiler());
  }
  return res;
}

// ---- traced mode: sharded-engine telemetry ----------------------------

struct ShardLayer {
  double epochs = 0, idle_shard_epochs = 0, imbalance = 0;
  double run_s = 0, drain_s = 0, barrier_wait_s = 0, timeline_s = 0;
  double inbox_pushed = 0, inbox_spilled = 0;
};

const sim::Json& member(const sim::Json& j, const char* key) {
  const sim::Json* m = j.find(key);
  if (m == nullptr) {
    throw std::runtime_error(std::string("missing JSON member \"") + key +
                             "\"");
  }
  return *m;
}

/// Pairs the B/E events of the per-worker Chrome timeline per worker and
/// sums each phase's duration over the workers.
void read_worker_timeline(const std::string& text, ShardLayer& out) {
  std::string err;
  const sim::Json doc = sim::Json::parse(text, &err);
  if (!err.empty() || !doc.is_object()) {
    throw std::runtime_error("worker timeline does not parse: " + err);
  }
  const std::uint64_t dropped = member(doc, "dropped_events").as_uint();
  if (dropped > 0) {
    throw std::runtime_error("worker timeline dropped " +
                             std::to_string(dropped) +
                             " spans; barrier time would be undercounted");
  }
  std::map<std::uint64_t, std::pair<std::string, double>> open;  // by tid
  std::map<std::string, double> total_us;
  double lo = 0, hi = 0;
  bool any = false;
  for (const sim::Json& ev : member(doc, "traceEvents").items()) {
    const std::string& ph = member(ev, "ph").as_string();
    if (ph != "B" && ph != "E") continue;
    const std::uint64_t tid = member(ev, "tid").as_uint();
    const std::string& name = member(ev, "name").as_string();
    const double ts = member(ev, "ts").as_double();
    lo = any ? std::min(lo, ts) : ts;
    hi = any ? std::max(hi, ts) : ts;
    any = true;
    if (ph == "B") {
      if (!open.emplace(tid, std::make_pair(name, ts)).second) {
        throw std::runtime_error("worker timeline: nested span on tid " +
                                 std::to_string(tid));
      }
      continue;
    }
    const auto it = open.find(tid);
    if (it == open.end() || it->second.first != name) {
      throw std::runtime_error("worker timeline: unmatched end of \"" +
                               name + "\" on tid " + std::to_string(tid));
    }
    total_us[name] += ts - it->second.second;
    open.erase(it);
  }
  if (!open.empty()) throw std::runtime_error("worker timeline: open span");
  out.run_s = total_us["run"] / 1e6;
  out.drain_s = total_us["drain"] / 1e6;
  out.barrier_wait_s = total_us["barrier_wait"] / 1e6;
  out.timeline_s = (hi - lo) / 1e6;
}

/// Epoch, busy-epoch and inbox counts from the manifest `shards` section.
void read_shards_section(const sim::Json& shards, ShardLayer& out) {
  const double epochs = static_cast<double>(member(shards, "epochs").as_uint());
  const double count =
      static_cast<double>(member(shards, "shard_count").as_uint());
  double busy = 0;
  for (const sim::Json& s : member(shards, "per_shard").items()) {
    busy += static_cast<double>(member(s, "busy_epochs").as_uint());
    const sim::Json& in = member(s, "ingress");
    out.inbox_pushed += static_cast<double>(member(in, "pushed").as_uint());
    out.inbox_spilled += static_cast<double>(member(in, "spilled").as_uint());
  }
  out.epochs = epochs;
  out.idle_shard_epochs = epochs * count - busy;
  out.imbalance = member(member(shards, "events"), "imbalance_ratio")
                      .as_double();
}

// ---- workload table ---------------------------------------------------

/// One workload: its api call (timed) and the same scenario composed
/// call by call (traced).
struct Workload {
  std::string name;
  /// The api call at the configured horizon, or with duration = 0.
  std::function<api::ScenarioResults(bool setup_only)> run_api;
  std::function<api::ScenarioResults(bool profile, Phases&)> compose;
  /// Sharded workloads only: the api call with shard telemetry on.
  std::function<api::ScenarioResults()> run_telemetry;
};

template <typename Config, typename Api, typename Compose>
Workload workload(std::string name, const Config& cfg, Api api_call,
                  Compose compose) {
  return {std::move(name),
          [cfg, api_call](bool setup_only) {
            Config c = cfg;
            if (setup_only) c.duration = 0;
            return api_call(c);
          },
          [cfg, compose](bool profile, Phases& ph) {
            return compose(cfg, profile, ph);
          },
          nullptr};
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "dumbbell_hwatch") {
    return workload(name, dumbbell_config(seed), api::run_dumbbell,
                    compose_dumbbell);
  }
  if (name == "leafspine_web_closed") {
    return workload(name, leafspine_config(seed), api::run_leaf_spine,
                    compose_leafspine);
  }
  if (name == "fattree_k12_sharded") {
    Workload w = workload(name, fattree_config(seed),
                          api::run_fat_tree_sharded, compose_fattree);
    // Per-worker timeline (needs span tracing) and the manifest `shards`
    // section (needs metrics).  One gauge tick at the horizon keeps
    // sampler ticks out of the busy epochs.
    api::FatTreeScenarioConfig tel = fattree_config(seed);
    tel.collect_metrics = true;
    tel.trace_spans = true;
    tel.sample_interval = tel.duration;
    w.run_telemetry = [tel] { return api::run_fat_tree_sharded(tel); };
    return w;
  }
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

// ---- result document --------------------------------------------------

struct Report {
  sim::Json runs = sim::Json::array();
  sim::Json metrics = sim::Json::object();
  sim::Json samples = sim::Json::object();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const char* unit) {
    sim::Json m = sim::Json::object();
    m.set("value", value);
    m.set("unit", unit);
    metrics.set(name, std::move(m));
  }
  /// Records one full-horizon run for the digest check.
  void run(const std::string& kind, const api::ScenarioResults& r) {
    sim::Json j = sim::Json::object();
    j.set("kind", kind);
    j.set("digest", digest_of(r));
    j.set("events", r.events_executed);
    runs.push_back(std::move(j));
  }
  void fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }
  void print(const Workload& w, std::uint64_t seed) const {
    sim::Json j = sim::Json::object();
    j.set("workload", w.name);
    j.set("seed", seed);
    j.set("attempted", attempted);
    j.set("failed", failed);
    sim::Json errs = sim::Json::array();
    for (const auto& e : errors) errs.push_back(e);
    j.set("errors", std::move(errs));
    j.set("runs", runs);
    j.set("samples", samples);
    j.set("metrics", metrics);
    std::cout << j.dump() << "\n";
  }
};

// ---- timed mode -------------------------------------------------------

void run_timed(const Workload& w, double budget_s, Report& rep) {
  // Calls `once` at least `min_calls` times and until `budget` seconds
  // have passed; gives up after repeated exceptions.
  const auto repeat = [&rep](std::size_t min_calls, double budget,
                             const auto& once) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t n = 0; n < min_calls || seconds_since(t0) < budget;
         ++n) {
      ++rep.attempted;
      try {
        once();
      } catch (const std::exception& e) {
        rep.fail(std::string("api call threw: ") + e.what());
        if (rep.failed > 3) return;
      }
    }
  };
  std::vector<double> setup, wall, cpu;
  const auto full_call = [&] {
    const double cpu0 = cpu_seconds();
    const Clock::time_point c0 = Clock::now();
    const api::ScenarioResults r = w.run_api(false);
    wall.push_back(seconds_since(c0));
    cpu.push_back(cpu_seconds() - cpu0);
    rep.run("api", r);
  };
  const Clock::time_point t0 = Clock::now();
  // Peak RSS is read after one call in a fresh process: later calls run
  // on a heap that earlier calls fragmented, which varies run to run.
  repeat(1, 0, full_call);
  const double rss = peak_rss_mb();
  // Set-up is 0.4-60 ms per call, so it gets a fifth of the budget and is
  // reported as the median of many calls.
  repeat(5, 0.2 * budget_s, [&] {
    const Clock::time_point c0 = Clock::now();
    const api::ScenarioResults r = w.run_api(true);
    setup.push_back(seconds_since(c0));
    if (r.events_executed != 0) {
      rep.fail("set-up call executed " + std::to_string(r.events_executed) +
               " events, expected 0");
    }
  });
  repeat(2, budget_s - seconds_since(t0), full_call);
  // Interference from other tenants of the host only ever slows a call
  // down, for seconds to minutes at a time, so a run's fastest call is
  // the steadiest estimate of the program's own cost (see README.md).
  // Set-up is reported as the median of its many calls.
  const auto report = [&rep](const char* name, const std::vector<double>& v,
                             bool fastest) {
    sim::Json values = sim::Json::array();
    for (double x : v) values.push_back(x);
    sim::Json j = sim::Json::object();
    j.set("stat", fastest ? "fastest" : "median");
    j.set("values", std::move(values));
    rep.samples.set(name, std::move(j));
    const double value =
        fastest && !v.empty() ? *std::min_element(v.begin(), v.end())
                              : median(v);
    rep.metric(name, value, "s");
  };
  report("wall_s", wall, true);
  report("setup_s", setup, false);
  rep.metric("peak_rss_mb", rss, "MB");
  report("cpu_s", cpu, true);
}

// ---- traced mode ------------------------------------------------------

double ns_per_call(const sim::SelfProfiler& p, sim::ProfComponent c) {
  const auto& s = p.stats(c);
  return s.calls > 0 ? static_cast<double>(s.total_ns) /
                           static_cast<double>(s.calls)
                     : 0.0;
}

void run_traced(const Workload& w, Report& rep) {
  // The unprofiled composition runs first, so the topology's RSS growth
  // is not hidden by heap an earlier run left behind.
  Phases plain, prof;
  const api::ScenarioResults r_plain = w.compose(false, plain);
  const api::ScenarioResults r_prof = w.compose(true, prof);
  const api::ScenarioResults r_api = w.run_api(false);
  rep.attempted += 3;
  rep.run("composed", r_plain);
  rep.run("composed_profiled", r_prof);
  rep.run("api", r_api);

  // Composition guard: the traced scenario must be the timed program.
  const auto guard = [&](const char* what, const api::ScenarioResults& r,
                         bool check_events) {
    if (digest_of(r) != digest_of(r_api) ||
        (check_events && r.events_executed != r_api.events_executed)) {
      throw std::runtime_error(
          "composition guard: workload " + w.name + ": the " + what +
          " run differs from the api run (events " +
          std::to_string(r.events_executed) + " vs " +
          std::to_string(r_api.events_executed) + ", digest " +
          digest_of(r) + " vs " + digest_of(r_api) + ")");
    }
  };
  guard("composed", r_plain, true);
  guard("composed profiled", r_prof, true);

  ShardLayer shard;
  if (w.run_telemetry) {
    const api::ScenarioResults r_tel = w.run_telemetry();
    ++rep.attempted;
    rep.run("api_telemetry", r_tel);
    guard("shard-telemetry", r_tel, false);
    read_worker_timeline(r_tel.trace_workers_chrome, shard);
    read_shards_section(r_tel.manifest.shards, shard);
  }

  using sim::ProfComponent;
  const sim::SelfProfiler& p = prof.profile;
  const double events = static_cast<double>(r_plain.events_executed);
  rep.metric("sim.events", events, "count");
  rep.metric("sim.run_s", plain.run_s, "s");
  rep.metric("sim.ns_per_event", plain.run_s * 1e9 / std::max(1.0, events),
             "ns");
  rep.metric("sim.events_per_s", events / std::max(1e-9, plain.run_s), "1/s");
  rep.metric("sim.shard.epochs", shard.epochs, "count");
  rep.metric("sim.shard.idle_shard_epochs", shard.idle_shard_epochs, "count");
  rep.metric("sim.shard.imbalance", shard.imbalance, "ratio");
  rep.metric("sim.shard.run_s", shard.run_s, "s");
  rep.metric("sim.shard.drain_s", shard.drain_s, "s");
  rep.metric("sim.shard.barrier_wait_s", shard.barrier_wait_s, "s");
  rep.metric("sim.shard.us_per_epoch",
             shard.epochs > 0 ? shard.timeline_s * 1e6 / shard.epochs : 0.0,
             "us");
  rep.metric("sim.shard.inbox_pushed", shard.inbox_pushed, "count");
  rep.metric("sim.shard.inbox_spilled", shard.inbox_spilled, "count");
  const auto calls = [&](ProfComponent c) {
    return static_cast<double>(p.stats(c).calls);
  };
  rep.metric("net.link_tx.calls", calls(ProfComponent::kLinkTx), "count");
  rep.metric("net.link_tx.ns_per_call", ns_per_call(p, ProfComponent::kLinkTx),
             "ns");
  rep.metric("net.qdisc.enqueued", static_cast<double>(plain.qdisc.enqueued),
             "count");
  rep.metric("net.qdisc.marked", static_cast<double>(plain.qdisc.ecn_marked),
             "count");
  rep.metric("net.qdisc.dropped", static_cast<double>(plain.qdisc.dropped),
             "count");
  rep.metric("net.fabric_drops", static_cast<double>(r_plain.fabric_drops),
             "count");
  rep.metric("tcp.sender.calls", calls(ProfComponent::kTcpSender), "count");
  rep.metric("tcp.sender.ns_per_call",
             ns_per_call(p, ProfComponent::kTcpSender), "ns");
  rep.metric("tcp.sink.calls", calls(ProfComponent::kTcpSink), "count");
  rep.metric("tcp.sink.ns_per_call", ns_per_call(p, ProfComponent::kTcpSink),
             "ns");
  rep.metric("tcp.retransmits", static_cast<double>(r_plain.retransmits),
             "count");
  rep.metric("tcp.timeouts", static_cast<double>(r_plain.timeouts), "count");
  rep.metric("hwatch.install_s", plain.hwatch_install_s, "s");
  rep.metric("hwatch.shim.calls", calls(ProfComponent::kShim), "count");
  rep.metric("hwatch.shim.ns_per_call", ns_per_call(p, ProfComponent::kShim),
             "ns");
  rep.metric("hwatch.probes",
             static_cast<double>(r_plain.shim.probes_injected), "count");
  rep.metric("hwatch.acks_rewritten",
             static_cast<double>(r_plain.shim.acks_rewritten), "count");
  rep.metric("hwatch.flows_tracked",
             static_cast<double>(r_plain.shim.flows_tracked), "count");
  rep.metric("topo.build_s", plain.topo_build_s, "s");
  rep.metric("topo.build_rss_mb", plain.topo_build_rss_mb, "MB");
  rep.metric("workload.install_s", plain.workload_install_s, "s");
  rep.metric("workload.flows", static_cast<double>(plain.flows), "count");
  rep.metric("workload.flows_completed",
             static_cast<double>(plain.flows_completed), "count");
  rep.metric("stats.collect_s", plain.collect_s, "s");
  rep.metric("trace.overhead_ratio", prof.run_s / std::max(1e-9, plain.run_s),
             "ratio");
}

// ---- main -------------------------------------------------------------

/// Each of these switches on instrumentation inside the api runners and
/// would change what the timed run measures.
constexpr const char* kInstrumentationEnv[] = {
    "HWATCH_PROFILE",   "HWATCH_METRICS_DIR",     "HWATCH_TRACE_DIR",
    "HWATCH_INCIDENTS", "HWATCH_PROGRESS",        "HWATCH_FLIGHT_DUMP",
    "HWATCH_FLIGHT_DIR", "HWATCH_EPOCH_BUDGET_MS",
};

int usage(const char* why) {
  std::cerr << "hwbench: " << why
            << "\nusage: hwbench --workload NAME --seed N --seconds S "
               "--mode timed|traced|digest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage("bad argument");
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return usage("missing value");
  for (const char* key : {"workload", "seed", "mode"}) {
    if (args.count(key) == 0) return usage("missing argument");
  }
  for (const char* var : kInstrumentationEnv) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "hwbench: refusing to run with " << var
                << " set: it switches on instrumentation inside the "
                   "simulator and changes what is measured; unset it\n";
      return 2;
    }
  }
  try {
    const std::uint64_t seed = std::stoull(args["seed"]);
    const Workload w = make_workload(args["workload"], seed);
    const std::string& mode = args["mode"];
    Report rep;
    if (mode == "timed") {
      const double budget =
          args.count("seconds") != 0 ? std::stod(args["seconds"]) : 10.0;
      run_timed(w, budget, rep);
    } else if (mode == "traced") {
      run_traced(w, rep);
    } else if (mode == "digest") {
      ++rep.attempted;
      rep.run("api", w.run_api(false));
    } else {
      return usage("unknown mode");
    }
    rep.print(w, seed);
  } catch (const std::exception& e) {
    std::cerr << "hwbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
