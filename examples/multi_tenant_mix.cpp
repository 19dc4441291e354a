// Multi-tenant coexistence: three TCP flavours share one fabric.
//
// A third of the tenants run DCTCP, a third ECN-responsive NewReno, and
// a third ECN-blind NewReno (a misbehaving or legacy stack) — the
// heterogeneity of Figure 2 that breaks DCTCP's queue regulation.  The
// example then shows the operator-side remedy: installing HWatch on the
// hypervisors reins in the blind tenants through their receive windows
// without touching any guest.
#include <iostream>

#include "api/scenario.hpp"
#include "stats/table.hpp"

using namespace hwatch;

namespace {

api::ScenarioResults run(bool hwatch_on) {
  api::DumbbellScenarioConfig cfg;
  cfg.pairs = 32;
  cfg.base_rtt = sim::microseconds(100);
  cfg.core_aqm.kind = api::AqmKind::kDctcpStep;
  cfg.core_aqm.buffer_packets = 250;
  cfg.core_aqm.mark_threshold_packets = 62;
  cfg.core_aqm.byte_mode = true;
  cfg.core_aqm.mtu_bytes = 1000;
  cfg.edge_aqm = cfg.core_aqm;

  tcp::TcpConfig base;
  base.mss = 942;
  base.min_rto = sim::milliseconds(200);
  base.initial_rto = sim::milliseconds(200);

  tcp::TcpConfig dctcp_t = base;
  dctcp_t.ecn = tcp::EcnMode::kDctcp;
  tcp::TcpConfig classic_t = base;
  classic_t.ecn = tcp::EcnMode::kClassic;
  tcp::TcpConfig blind_t = base;
  blind_t.ecn = tcp::EcnMode::kBlind;

  cfg.long_groups = {
      {tcp::Transport::kDctcp, dctcp_t, 4, "dctcp"},
      {tcp::Transport::kNewReno, classic_t, 4, "reno-ecn"},
      {tcp::Transport::kNewReno, blind_t, 4, "reno-blind"},
      {tcp::Transport::kCubic, classic_t, 4, "cubic"},
  };
  cfg.short_groups = cfg.long_groups;
  cfg.incast.epochs = 4;
  cfg.incast.first_epoch = sim::milliseconds(50);
  cfg.incast.epoch_interval = sim::milliseconds(100);
  cfg.duration = sim::milliseconds(500);
  cfg.seed = 3;
  cfg.run_label = hwatch_on ? "multi_tenant_mix-hwatch" : "multi_tenant_mix";

  if (hwatch_on) {
    cfg.hwatch_enabled = true;
    cfg.hwatch.mss = base.mss;
    cfg.hwatch.min_window_bytes = base.mss;
    cfg.hwatch.probe_span = sim::microseconds(50);
    cfg.hwatch.policy.batch_interval = sim::microseconds(50);
    cfg.hwatch.round_interval = sim::microseconds(100);
  }
  return api::run_dumbbell(cfg);
}

void report(const std::string& name, const api::ScenarioResults& res) {
  std::cout << "--- " << name << " ---\n";
  stats::Table t({"tenant flavour", "long flows", "goodput mean(Gb/s)",
                  "goodput max/min", "short FCT mean(ms)",
                  "short FCT p99(ms)"});
  for (const char* flavour : {"dctcp", "newreno", "cubic"}) {
    stats::Cdf goodput;
    stats::Cdf fct;
    for (const auto& r : res.records) {
      if (r.transport != flavour) continue;
      if (r.klass == stats::FlowClass::kLong) {
        goodput.add(r.goodput_bps / 1e9);
      } else if (r.completed) {
        fct.add(r.fct_ms());
      }
    }
    if (goodput.empty()) continue;
    const auto g = goodput.summarize();
    const auto f = fct.summarize();
    t.add_row({flavour, std::to_string(g.count),
               stats::Table::num(g.mean, 3),
               g.min > 0 ? stats::Table::num(g.max / g.min, 1) + "x" : "-",
               stats::Table::num(f.mean, 3),
               stats::Table::num(f.p99, 3)});
  }
  t.print(std::cout);
  std::cout << "bottleneck max queue: " << res.bottleneck_queue.max_len_pkts
            << " pkts, drops: " << res.bottleneck_queue.dropped
            << ", timeouts: " << res.timeouts << "\n\n";
}

}  // namespace

int main() {
  std::cout << "Multi-tenant mix: DCTCP + ECN-responsive NewReno + "
               "ECN-blind NewReno + CUBIC\nsharing one 10 Gb/s fabric "
               "(each tenant brings its preferred stack).\n\n";
  report("mixed tenants, no HWatch (Figure 2's pathology)", run(false));
  report("mixed tenants + HWatch on all hypervisors", run(true));
  return 0;
}
