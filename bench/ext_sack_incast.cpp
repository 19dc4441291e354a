// Extension E2 — does SACK fix the incast problem instead?
//
// A natural objection to HWatch: selective acknowledgements (standard in
// every modern stack) already repair multi-segment losses in one RTT, so
// maybe the guests just need SACK.  This bench runs the fig8 scenario
// with SACK-enabled tenants (plus RFC 3042 limited transmit, the other
// stock mitigation) and compares against stock NewReno and HWatch.
//
// Expected: SACK repairs mid-window holes but cannot manufacture
// dupacks for tail losses (the paper's Observation 1) nor prevent the
// overflow itself, so short-flow RTOs persist; HWatch removes the
// losses at the source.
#include <iostream>

#include "fig89_common.hpp"

using namespace hwatch;

namespace {

api::ScenarioResults run_variant(bool sack, bool limited_transmit) {
  api::DumbbellScenarioConfig cfg = bench::paper_dumbbell_base();
  cfg.core_aqm.kind = api::AqmKind::kDctcpStep;
  cfg.edge_aqm = cfg.core_aqm;
  tcp::TcpConfig t = bench::paper_tcp(tcp::EcnMode::kNone);
  t.sack = sack;
  t.limited_transmit = limited_transmit;
  cfg.long_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
  cfg.short_groups = {{tcp::Transport::kNewReno, t, 25, "tcp"}};
  cfg.run_label = std::string("ext_sack_incast-") +
                  (sack ? (limited_transmit ? "sack-lt" : "sack")
                        : (limited_transmit ? "lt" : "stock"));
  return api::run_dumbbell(cfg);
}

}  // namespace

int main() {
  bench::print_header("Extension E2",
                      "guest-side mitigations (SACK, limited transmit) "
                      "vs HWatch on the fig8 incast");

  stats::Table t({"variant", "FCT mean(ms)", "FCT p99(ms)", "unfinished",
                  "drops", "timeouts", "goodput(Gb/s)"});
  auto add = [&t](const std::string& name,
                  const api::ScenarioResults& res) {
    const auto fct = res.short_fct_cdf_ms().summarize();
    t.add_row({name, stats::Table::num(fct.mean, 3),
               stats::Table::num(fct.p99, 3),
               std::to_string(res.incomplete_short_flows()),
               std::to_string(res.fabric_drops),
               std::to_string(res.timeouts),
               stats::Table::num(
                   res.long_goodput_cdf_gbps().summarize().mean, 3)});
  };
  add("stock NewReno", run_variant(false, false));
  add("+ SACK", run_variant(true, false));
  add("+ limited transmit", run_variant(false, true));
  add("+ SACK + LT", run_variant(true, true));
  api::DumbbellScenarioConfig hwatch =
      bench::scheme_config(bench::Scheme::kTcpHWatch, 50);
  hwatch.run_label = "ext_sack_incast-hwatch";
  add("HWatch (stock guests)", api::run_dumbbell(hwatch));
  t.print(std::cout);
  std::cout << "\nGuest-side recovery tricks shorten some recoveries but "
               "keep the drops and\nthe tail-loss RTOs; HWatch prevents "
               "the overflow itself — and needs no\nguest changes.\n";
  return 0;
}
