// Figure 11 — the testbed experiment, reproduced on the simulated
// leaf-spine fabric (4 racks x 21 servers, 1 Gb/s links, ~200 us RTT).
//
// Workload (Section VI): 42 long-lived iperf-like flows from the three
// sending racks towards the receiving rack, plus waves of web requests —
// 7 servers/rack x 3 racks x 6 clients x 10 parallel connections = 1260
// flows per wave, 11.5 KB each, repeated 5 times.  Baseline "TCP" runs
// plain (non-ECN) NewReno over drop-tail switches; "TCP-HWatch" runs the
// same guests with the hypervisor module and WRED/ECN marking enabled in
// the fabric (the deployment step HWatch prescribes).  Durations are
// compressed vs the 30 s testbed run (waves every 400 ms) so the bench
// finishes quickly; EXPERIMENTS.md records the scaling.
//
// Expected shape (paper): up to ~100% (2x) shorter average response
// times for the web flows, with long-flow goodput essentially unharmed.
#include <iostream>

#include "bench_common.hpp"

using namespace hwatch;

namespace {

api::ScenarioResults run_testbed(bool hwatch_on) {
  api::LeafSpineScenarioConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 21;
  cfg.link_rate = sim::DataRate::gbps(1);
  cfg.base_rtt = sim::microseconds(200);

  // Shallow-buffered 1 GbE fabric (the NetFPGA reference switch holds
  // ~256 KB per port); byte-based buffers of 170 full Ethernet frames.
  cfg.fabric_aqm.buffer_packets = 170;
  cfg.fabric_aqm.mark_threshold_packets = 34;  // 20%, as in Section V
  cfg.fabric_aqm.byte_mode = true;
  cfg.fabric_aqm.mtu_bytes = 1500;
  cfg.edge_aqm = cfg.fabric_aqm;
  cfg.edge_aqm.kind = api::AqmKind::kDropTail;

  // Guests: plain TCP with real 1500-byte Ethernet frames, not
  // ECN-capable, stock Linux 200 ms minRTO — exactly what unmodified
  // tenant VMs run (requirement R3 forbids touching them).
  tcp::TcpConfig guest = bench::paper_tcp(tcp::EcnMode::kNone);
  guest.mss = net::kDefaultMss;

  cfg.bulk_flows = 42;
  cfg.bulk_template = {tcp::Transport::kNewReno, guest, 0, "iperf"};

  cfg.web_servers_per_rack = 7;
  cfg.web_clients = 6;
  cfg.web.waves = 5;
  cfg.web.first_wave = sim::milliseconds(300);
  cfg.web.wave_interval = sim::milliseconds(400);
  cfg.web.connections_per_pair = 10;
  cfg.web.object_bytes = 11'500;
  // The testbed's request generators are closed-loop (each connection
  // fetches pages back to back), which spreads a wave's requests over a
  // large fraction of the epoch; 100 ms of spread approximates that
  // arrival process while keeping strong incast bursts per client.
  cfg.web.wave_spread = sim::milliseconds(100);
  cfg.web_transport = tcp::Transport::kNewReno;
  cfg.web_tcp = guest;

  if (hwatch_on) {
    // Deploying HWatch also enables WRED/ECN marking in the fabric
    // (Section IV-E); guests stay untouched — the shim stamps ECT
    // transparently.
    cfg.fabric_aqm.kind = api::AqmKind::kRed;
    cfg.hwatch_enabled = true;
    cfg.hwatch = bench::paper_hwatch(cfg.base_rtt);
    cfg.hwatch.mss = net::kDefaultMss;  // real 1500-byte frames here
    cfg.hwatch.min_window_bytes = net::kDefaultMss;
    // Admission pacing for the 1260-flow request waves: each client
    // hypervisor admits ~1000 connections/s, sized so the six clients'
    // 11.5 KB responses consume ~550 Mb/s of the 1 Gb/s downlink and
    // leave the rest to the bulk flows (the HWatch module's internal
    // timers run at the paper's 4 ms default granularity and finer).
    cfg.hwatch.pace_synacks = true;
    cfg.hwatch.synack_batch_size = 1;
    cfg.hwatch.synack_batch_interval = sim::milliseconds(1);
  }

  cfg.duration = sim::seconds(2.5);
  cfg.sample_interval = sim::milliseconds(5);
  cfg.seed = 11;
  cfg.run_label = hwatch_on ? "fig11-tcp-hwatch" : "fig11-tcp";
  return api::run_leaf_spine(cfg);
}

}  // namespace

int main() {
  bench::print_header("Figure 11",
                      "testbed (leaf-spine, 84 servers): TCP vs TCP-HWatch");

  std::vector<bench::Curve> curves;
  curves.push_back({"TCP", run_testbed(false)});
  curves.push_back({"TCP-HWatch", run_testbed(true)});
  const auto& hw = curves[1].results;
  std::cout << "  [TCP-HWatch] probes=" << hw.shim.probes_injected
            << " synack-rewrites=" << hw.shim.synacks_rewritten
            << " ack-rewrites=" << hw.shim.acks_rewritten
            << " flows=" << hw.shim.flows_tracked << "\n\n";

  // Panel (a): per-epoch average response time CDF of the web flows.
  bench::print_fct_panel(curves, /*per_epoch_mean=*/true);
  std::cout << "\n";
  bench::print_fct_panel(curves);
  std::cout << "\n";
  // Panel (b): long ("elephant") flow goodput, in Mb/s in the paper.
  std::cout << "Long-lived (iperf) goodput per flow [Mb/s]\n";
  stats::Table gp({"scheme", "mean", "p50", "min", "max"});
  for (const auto& c : curves) {
    stats::Cdf mbps;
    for (const auto& r : c.results.long_flows()) {
      mbps.add(r.goodput_bps / 1e6);
    }
    const auto s = mbps.summarize();
    gp.add_row({c.name, stats::Table::num(s.mean, 1),
                stats::Table::num(s.p50, 1), stats::Table::num(s.min, 1),
                stats::Table::num(s.max, 1)});
  }
  gp.print(std::cout);
  std::cout << "\n";
  bench::print_timeseries_panel(curves);
  bench::print_summary(curves);
  bench::print_improvements(curves, "TCP-HWatch");
  bench::write_csvs("fig11", curves);
  return 0;
}
