// Scale study — one large fat-tree fabric executed as a sharded
// (conservative-lookahead) parallel simulation.  Not a paper figure:
// this bench tracks the simulator itself.  Three points:
//
//   k8_t1    128 hosts (k=8), one worker thread — the serial baseline;
//   k8_tN    the same fabric on several workers — byte-identical
//            results, wall time is the only thing allowed to move;
//   k16_10k  10240 hosts (k=16, 80 per edge), the scale target that
//            motivates sharding in the first place.
//
// The report (bench_out/BENCH_fig_fatree_scale.json, hwatch.bench/v1)
// feeds the CI perf trajectory alongside the figure benches.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/sharded.hpp"
#include "bench_common.hpp"

namespace {

hwatch::api::FatTreeScenarioConfig scale_config(std::uint32_t k,
                                                std::uint32_t hosts,
                                                unsigned threads) {
  using namespace hwatch;
  api::FatTreeScenarioConfig cfg;
  cfg.k = k;
  cfg.hosts = hosts;
  cfg.aqm.kind = api::AqmKind::kDctcpStep;
  cfg.transport = tcp::Transport::kDctcp;
  cfg.flows_per_host = 1;
  cfg.flow_bytes = 100'000;
  cfg.start_spread = sim::milliseconds(1);
  cfg.duration = sim::milliseconds(50);
  cfg.seed = 20;
  cfg.shards = threads;
  // Deterministic counter plane only (no gauges/traces): feeds the
  // imbalance column and the bench report at zero extra events.
  cfg.shard_telemetry = true;
  // Same CI smoke knob as the figure benches.
  if (const char* ms = std::getenv("HWATCH_BENCH_DURATION_MS")) {
    cfg.duration = sim::milliseconds(std::atol(ms));
  }
  return cfg;
}

}  // namespace

int main() {
  using namespace hwatch;
  bench::print_header("fig_fatree_scale",
                      "sharded fat-tree scale study (conservative-lookahead "
                      "parallel simulation)");

  const unsigned hw =
      std::max(1u, std::thread::hardware_concurrency());
  const unsigned mid = std::min(4u, hw);
  struct Point {
    std::string name;
    api::FatTreeScenarioConfig cfg;
  };
  std::vector<Point> points;
  points.push_back({"k8_t1", scale_config(8, 0, 1)});
  points.push_back(
      {"k8_t" + std::to_string(mid), scale_config(8, 0, mid)});
  // k=16 with 80 hosts per edge is 10:1 oversubscribed at the edge
  // uplinks; a 1 ms start spread would synchronize 10k flows into one
  // giant incast whose retransmission timeouts outlive any reasonable
  // horizon.  Spreading starts over 20 ms keeps per-edge concurrency
  // low enough that the permutation actually finishes.
  api::FatTreeScenarioConfig big = scale_config(16, 10240, hw);
  big.start_spread = sim::milliseconds(20);
  // Datacenter-tuned minRTO (the DCTCP deployments the paper cites run
  // ~10 ms): with the default wide-area 200 ms floor a single timeout
  // parks a flow past the horizon.
  big.tcp.min_rto = sim::milliseconds(10);
  big.tcp.initial_rto = sim::milliseconds(10);
  points.push_back({"k16_10240hosts", std::move(big)});

  std::vector<bench::Curve> curves;
  std::vector<double> walls;
  double total_wall = 0;
  for (Point& pt : points) {
    if (pt.cfg.run_label.empty()) pt.cfg.run_label = pt.name;
    // Wall timing of the simulator itself, as in bench_common's
    // run_sweep — measurement, not simulated behaviour.
    const auto t0 = std::chrono::steady_clock::now();  // hwlint: allow(nondeterminism)
    api::ScenarioResults res = api::run_fat_tree_sharded(pt.cfg);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -  // hwlint: allow(nondeterminism)
                                      t0)
            .count();
    walls.push_back(wall);
    total_wall += wall;
    curves.push_back({pt.name, std::move(res)});
  }

  const auto hosts_of = [](const api::FatTreeScenarioConfig& cfg) {
    return cfg.hosts != 0 ? cfg.hosts : cfg.k * cfg.k * cfg.k / 4;
  };
  stats::Table t({"point", "hosts", "workers", "flows", "unfinished",
                  "events", "epochs", "wall(s)", "events/s",
                  "imbalance"});
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const auto& r = curves[i].results;
    const double rate =
        walls[i] > 0 ? static_cast<double>(r.events_executed) / walls[i] : 0;
    t.add_row({curves[i].name,
               std::to_string(hosts_of(points[i].cfg)),
               std::to_string(points[i].cfg.shards),
               std::to_string(r.records.size()),
               std::to_string(r.incomplete_short_flows()),
               std::to_string(r.events_executed),
               std::to_string(r.epochs), stats::Table::num(walls[i], 2),
               stats::Table::num(rate, 0),
               stats::Table::num(r.shard_imbalance, 2) + "x"});
  }
  t.print(std::cout);
  // The largest point sets the process peak, so bytes per host of that
  // point is the memory trend to read next to events/s.
  std::uint32_t max_hosts = 0;
  for (const Point& pt : points) {
    max_hosts = std::max(max_hosts, hosts_of(pt.cfg));
  }
  const double rss = static_cast<double>(bench::peak_rss_bytes());
  std::cout << "peak RSS: " << stats::Table::num(rss / (1024.0 * 1024.0), 1)
            << " MiB, " << stats::Table::num(rss / 1024.0 / max_hosts, 1)
            << " KiB/host at " << max_hosts << " hosts\n";

  // The headline invariant, asserted on every bench run: thread count
  // must not change the simulation, only the wall clock.
  if (curves[0].results.events_executed != curves[1].results.events_executed) {
    std::cerr << "error: k8 event counts differ across worker counts ("
              << curves[0].results.events_executed << " vs "
              << curves[1].results.events_executed
              << ") — sharded determinism is broken\n";
    return 1;
  }
  // The same for the epoch count: every worker must take the same
  // idle-window skip decisions, under real threads.
  if (curves[0].results.epochs != curves[1].results.epochs) {
    std::cerr << "error: k8 epoch counts differ across worker counts ("
              << curves[0].results.epochs << " vs "
              << curves[1].results.epochs
              << ") — the shared skip decision is broken\n";
    return 1;
  }

  bench::write_bench_json("fig_fatree_scale", curves, total_wall);
  return 0;
}
