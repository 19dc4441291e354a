// Figure 2 — DCTCP with and without heterogeneous neighbours.
//
// Run A ("DCTCP"): every tenant runs DCTCP.
// Run B ("MIX"):   one third DCTCP, one third ECN-responsive NewReno,
//                  one third ECN-blind NewReno, sharing the same fabric —
//                  the multi-tenant reality the paper argues breaks
//                  DCTCP's queue regulation.
//
// Expected shape (paper): in the MIX run the FCT spread widens by ~2
// orders of magnitude, the queue is no longer pinned at the threshold,
// goodput becomes unfair across tenants, yet the link stays fully
// utilized in both runs.
#include <iostream>

#include "bench_common.hpp"

using namespace hwatch;

namespace {

api::ScenarioResults run_mix(bool heterogeneous) {
  api::DumbbellScenarioConfig cfg = bench::paper_dumbbell_base();
  cfg.core_aqm.kind = api::AqmKind::kDctcpStep;
  cfg.edge_aqm.kind = api::AqmKind::kDctcpStep;
  cfg.core_aqm.mark_threshold_packets = 62;
  cfg.edge_aqm.mark_threshold_packets = 62;

  const tcp::TcpConfig dctcp_t = bench::paper_tcp(tcp::EcnMode::kDctcp);
  const tcp::TcpConfig classic_t = bench::paper_tcp(tcp::EcnMode::kClassic);
  const tcp::TcpConfig blind_t = bench::paper_tcp(tcp::EcnMode::kBlind);

  if (heterogeneous) {
    cfg.long_groups = {
        {tcp::Transport::kDctcp, dctcp_t, 9, "dctcp"},
        {tcp::Transport::kNewReno, classic_t, 8, "reno-ecn"},
        {tcp::Transport::kNewReno, blind_t, 8, "reno-blind"},
    };
    cfg.short_groups = {
        {tcp::Transport::kDctcp, dctcp_t, 9, "dctcp"},
        {tcp::Transport::kNewReno, classic_t, 8, "reno-ecn"},
        {tcp::Transport::kNewReno, blind_t, 8, "reno-blind"},
    };
  } else {
    cfg.long_groups = {{tcp::Transport::kDctcp, dctcp_t, 25, "dctcp"}};
    cfg.short_groups = {{tcp::Transport::kDctcp, dctcp_t, 25, "dctcp"}};
  }
  cfg.run_label = heterogeneous ? "fig2-mix" : "fig2-dctcp";
  return api::run_dumbbell(cfg);
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 2", "DCTCP alone vs coexistence with other TCP flavours");

  std::vector<bench::Curve> curves;
  curves.push_back({"DCTCP", run_mix(false)});
  curves.push_back({"MIX", run_mix(true)});

  bench::print_fct_panel(curves);
  std::cout << "\nFCT mean/variance (the paper's AVG and VAR curves)\n";
  stats::Table var_table({"scheme", "FCT mean(ms)", "FCT var", "FCT max(ms)"});
  for (const auto& c : curves) {
    const auto s = c.results.short_fct_cdf_ms().summarize();
    var_table.add_row({c.name, stats::Table::num(s.mean, 3),
                       stats::Table::num(s.variance, 2),
                       stats::Table::num(s.max, 3)});
  }
  var_table.print(std::cout);

  // Per-tenant-flavour goodput in the MIX run: the unfairness panel (c).
  std::cout << "\nPer-flavour long-flow goodput in the MIX run\n";
  stats::Table fair({"flavour", "flows", "goodput mean(Gb/s)",
                     "goodput min", "goodput max"});
  for (const char* flavour : {"dctcp", "newreno"}) {
    stats::Cdf cdf;
    for (const auto& r : curves[1].results.long_flows()) {
      if (r.transport == flavour) cdf.add(r.goodput_bps / 1e9);
    }
    if (cdf.empty()) continue;
    const auto s = cdf.summarize();
    fair.add_row({flavour, std::to_string(s.count),
                  stats::Table::num(s.mean, 3), stats::Table::num(s.min, 3),
                  stats::Table::num(s.max, 3)});
  }
  fair.print(std::cout);

  std::cout << "\n";
  bench::print_goodput_panel(curves);
  std::cout << "\n";
  bench::print_timeseries_panel(curves);
  bench::print_summary(curves);
  bench::write_csvs("fig2", curves);
  return 0;
}
