// Quickstart: build a small dumbbell, run a handful of long DCTCP flows
// plus one incast epoch of short flows, with and without HWatch, and
// print the headline numbers.  This is the 60-second tour of the API.
#include <iostream>

#include "api/scenario.hpp"
#include "stats/table.hpp"

using namespace hwatch;

namespace {

api::DumbbellScenarioConfig base_config() {
  api::DumbbellScenarioConfig cfg;
  cfg.pairs = 20;
  cfg.base_rtt = sim::microseconds(100);

  // Switch buffers: 250-packet bottleneck, step ECN marking at 20%.
  cfg.core_aqm.kind = api::AqmKind::kDctcpStep;
  cfg.core_aqm.buffer_packets = 250;
  cfg.core_aqm.mark_threshold_packets = 50;
  cfg.edge_aqm.kind = api::AqmKind::kDctcpStep;
  cfg.edge_aqm.buffer_packets = 250;
  cfg.edge_aqm.mark_threshold_packets = 50;

  // 10 long-lived DCTCP flows...
  workload::SenderGroup longs;
  longs.transport = tcp::Transport::kDctcp;
  longs.count = 10;
  cfg.long_groups = {longs};

  // ...and 10 short-lived DCTCP senders firing 10 KB incast epochs.
  workload::SenderGroup shorts = longs;
  cfg.short_groups = {shorts};
  cfg.incast.epochs = 3;
  cfg.incast.first_epoch = sim::milliseconds(20);
  cfg.incast.epoch_interval = sim::milliseconds(30);
  cfg.incast.flow_bytes = 10'000;

  cfg.duration = sim::milliseconds(120);
  cfg.seed = 42;
  return cfg;
}

void report(const std::string& name, const api::ScenarioResults& res) {
  const auto fct = res.short_fct_cdf_ms();
  const auto goodput = res.long_goodput_cdf_gbps();
  const auto fct_sum = fct.summarize();
  std::cout << "--- " << name << " ---\n"
            << "  short flows completed : " << fct_sum.count << " (missing "
            << res.incomplete_short_flows() << ")\n"
            << "  short FCT mean / p99  : "
            << stats::Table::num(fct_sum.mean, 3) << " / "
            << stats::Table::num(fct_sum.p99, 3) << " ms\n"
            << "  long goodput mean     : "
            << stats::Table::num(goodput.summarize().mean, 3) << " Gb/s\n"
            << "  bottleneck drops      : " << res.bottleneck_queue.dropped
            << ", marks: " << res.bottleneck_queue.ecn_marked << "\n"
            << "  retransmits/timeouts  : " << res.retransmits << "/"
            << res.timeouts << "\n"
            << "  mean utilization      : "
            << stats::Table::num(100 * res.mean_utilization(), 1) << " %\n"
            << "  events simulated      : " << res.events_executed << "\n";
  if (res.shim.probes_injected > 0) {
    std::cout << "  hwatch: probes=" << res.shim.probes_injected
              << " synack-rewrites=" << res.shim.synacks_rewritten
              << " ack-rewrites=" << res.shim.acks_rewritten << "\n";
  }
}

}  // namespace

int main() {
  std::cout << "HWatch quickstart: 20-pair 10G dumbbell, DCTCP tenants,\n"
            << "3 incast epochs of 10 KB flows against 10 bulk flows.\n\n";

  api::DumbbellScenarioConfig plain = base_config();
  plain.run_label = "quickstart-dctcp";
  report("DCTCP (no HWatch)", api::run_dumbbell(plain));

  api::DumbbellScenarioConfig watched = base_config();
  watched.run_label = "quickstart-hwatch";
  watched.hwatch_enabled = true;
  watched.hwatch.probe_count = 10;
  watched.hwatch.policy.batch_interval = sim::microseconds(50);
  watched.hwatch.round_interval = sim::microseconds(100);
  report("DCTCP + HWatch", api::run_dumbbell(watched));

  return 0;
}
