// Scenario-runner integration tests: end-to-end conservation properties,
// determinism, and the headline HWatch effect in miniature.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "api/scenario.hpp"
#include "api/sharded.hpp"

namespace hwatch::api {
namespace {

tcp::TcpConfig quick_tcp(tcp::EcnMode ecn) {
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(50);
  t.initial_rto = sim::milliseconds(50);
  t.ecn = ecn;
  return t;
}

/// A small, fast dumbbell scenario: 4 long + 4 short DCTCP tenants,
/// two incast epochs, 60 ms of simulated time.
DumbbellScenarioConfig small_scenario(std::uint64_t seed = 5) {
  DumbbellScenarioConfig cfg;
  cfg.pairs = 8;
  cfg.core_aqm.kind = AqmKind::kDctcpStep;
  cfg.core_aqm.buffer_packets = 100;
  cfg.core_aqm.mark_threshold_packets = 20;
  cfg.edge_aqm = cfg.core_aqm;
  workload::SenderGroup g{tcp::Transport::kDctcp,
                          quick_tcp(tcp::EcnMode::kDctcp), 4, "dctcp"};
  cfg.long_groups = {g};
  cfg.short_groups = {g};
  cfg.incast.epochs = 2;
  cfg.incast.first_epoch = sim::milliseconds(10);
  cfg.incast.epoch_interval = sim::milliseconds(20);
  cfg.duration = sim::milliseconds(60);
  cfg.seed = seed;
  return cfg;
}

TEST(ScenarioTest, ProducesAllRecordsAndSeries) {
  const ScenarioResults res = run_dumbbell(small_scenario());
  EXPECT_EQ(res.records.size(), 4u + 4u * 2u);  // longs + shorts x epochs
  EXPECT_EQ(res.short_flows().size(), 8u);
  EXPECT_EQ(res.long_flows().size(), 4u);
  EXPECT_FALSE(res.queue_packets.empty());
  EXPECT_FALSE(res.utilization.empty());
  EXPECT_FALSE(res.throughput_gbps.empty());
  EXPECT_GT(res.events_executed, 1000u);
}

TEST(ScenarioTest, ShortFlowsCompleteOnAHealthyFabric) {
  const ScenarioResults res = run_dumbbell(small_scenario());
  EXPECT_EQ(res.incomplete_short_flows(), 0u);
  const auto fct = res.short_fct_cdf_ms().summarize();
  EXPECT_EQ(fct.count, 8u);
  EXPECT_GT(fct.mean, 0.0);
}

TEST(ScenarioTest, LongFlowsReportGoodput) {
  const ScenarioResults res = run_dumbbell(small_scenario());
  for (const auto& r : res.long_flows()) {
    EXPECT_FALSE(r.completed);
    EXPECT_GT(r.goodput_bps, 1e8);  // each gets a share of 10G
  }
  // Aggregate close to the bottleneck rate.
  double total = 0;
  for (const auto& r : res.long_flows()) total += r.goodput_bps;
  EXPECT_GT(total, 5e9);
}

TEST(ScenarioTest, DeterministicForSameSeed) {
  const ScenarioResults a = run_dumbbell(small_scenario(7));
  const ScenarioResults b = run_dumbbell(small_scenario(7));
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].fct, b.records[i].fct) << i;
    EXPECT_EQ(a.records[i].retransmits, b.records[i].retransmits) << i;
    EXPECT_DOUBLE_EQ(a.records[i].goodput_bps, b.records[i].goodput_bps)
        << i;
  }
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.fabric_drops, b.fabric_drops);
}

TEST(ScenarioTest, DifferentSeedsDiffer) {
  const ScenarioResults a = run_dumbbell(small_scenario(7));
  const ScenarioResults b = run_dumbbell(small_scenario(8));
  // Incast start times are randomized: some flow must differ.
  bool any_diff = a.events_executed != b.events_executed;
  for (std::size_t i = 0; !any_diff && i < a.records.size(); ++i) {
    any_diff = a.records[i].fct != b.records[i].fct;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScenarioTest, PacketConservationAtTheBottleneck) {
  const ScenarioResults res = run_dumbbell(small_scenario());
  const auto& q = res.bottleneck_queue;
  // Everything admitted was either delivered or is still queued (the
  // sampler stops at `duration`, so at most a queue's worth in flight).
  EXPECT_EQ(q.enqueued, q.dequeued + (q.enqueued - q.dequeued));
  EXPECT_LE(q.enqueued - q.dequeued, q.max_len_pkts);
  // Drop accounting is consistent.
  EXPECT_EQ(q.dropped, q.dropped_data + q.dropped_ctrl + q.dropped_probes);
}

TEST(ScenarioTest, RejectsOversubscribedSources) {
  DumbbellScenarioConfig cfg = small_scenario();
  cfg.pairs = 4;  // but 8 sources requested
  EXPECT_THROW(run_dumbbell(cfg), std::invalid_argument);
}

/// The message of the std::invalid_argument `run` throws ("" if none).
template <class Run>
std::string invalid_argument_of(Run run) {
  try {
    run();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ScenarioTest, SourceCountIsCheckedBeforeTheTopology) {
  // pairs = 0 would also fail inside the topology builder; the config
  // check runs first and names the field.
  DumbbellScenarioConfig cfg = small_scenario();
  cfg.pairs = 0;
  const std::string what = invalid_argument_of([&] { run_dumbbell(cfg); });
  EXPECT_NE(what.find("pairs = 0"), std::string::npos) << what;
  EXPECT_NE(what.find("8 sources"), std::string::npos) << what;
}

TEST(ScenarioTest, RackCountIsCheckedBeforeTheTopology) {
  LeafSpineScenarioConfig cfg;
  for (std::uint32_t racks : {0u, 1u}) {
    cfg.racks = racks;
    const std::string what =
        invalid_argument_of([&] { run_leaf_spine(cfg); });
    EXPECT_NE(what.find("racks = " + std::to_string(racks)),
              std::string::npos)
        << what;
  }
}

TEST(ScenarioTest, SampleIntervalMustBePositive) {
  // A zero interval would re-arm every sampler at `now` forever; the
  // run path rejects it before any part exists, for every topology.
  for (sim::TimePs interval : {sim::TimePs{0}, sim::TimePs{-1}}) {
    DumbbellScenarioConfig dumbbell = small_scenario();
    dumbbell.sample_interval = interval;
    const std::string a =
        invalid_argument_of([&] { run_dumbbell(dumbbell); });
    EXPECT_NE(a.find("sample_interval"), std::string::npos) << a;

    FatTreeScenarioConfig fat_tree;
    fat_tree.k = 4;
    fat_tree.sample_interval = interval;
    const std::string b =
        invalid_argument_of([&] { run_fat_tree_sharded(fat_tree); });
    EXPECT_NE(b.find("sample_interval"), std::string::npos) << b;
  }
}

TEST(ScenarioTest, DurationMustNotBeNegative) {
  // A negative horizon used to return an empty run with no error.
  for (sim::TimePs duration : {sim::TimePs{-1}, sim::milliseconds(-5)}) {
    DumbbellScenarioConfig dumbbell = small_scenario();
    dumbbell.duration = duration;
    const std::string a =
        invalid_argument_of([&] { run_dumbbell(dumbbell); });
    EXPECT_NE(a.find("duration"), std::string::npos) << a;

    FatTreeScenarioConfig fat_tree;
    fat_tree.k = 4;
    fat_tree.duration = duration;
    const std::string b =
        invalid_argument_of([&] { run_fat_tree_sharded(fat_tree); });
    EXPECT_NE(b.find("duration"), std::string::npos) << b;
  }
  // Zero stays legal: the scenario is built and no event runs.
  DumbbellScenarioConfig dumbbell = small_scenario();
  dumbbell.duration = 0;
  EXPECT_EQ(run_dumbbell(dumbbell).events_executed, 0u);
  FatTreeScenarioConfig fat_tree;
  fat_tree.k = 4;
  fat_tree.duration = 0;
  EXPECT_EQ(run_fat_tree_sharded(fat_tree).events_executed, 0u);
}

TEST(ScenarioTest, HWatchReducesDropsUnderIncast) {
  // Miniature figure 8: plain TCP tenants, marginal buffer.
  auto base = [] {
    DumbbellScenarioConfig cfg;
    cfg.pairs = 16;
    cfg.core_aqm.kind = AqmKind::kDctcpStep;
    cfg.core_aqm.buffer_packets = 60;
    cfg.core_aqm.mark_threshold_packets = 12;
    cfg.core_aqm.byte_mode = true;
    cfg.edge_aqm = cfg.core_aqm;
    workload::SenderGroup g{tcp::Transport::kNewReno,
                            quick_tcp(tcp::EcnMode::kNone), 8, "tcp"};
    cfg.long_groups = {g};
    cfg.short_groups = {g};
    cfg.incast.epochs = 2;
    cfg.incast.first_epoch = sim::milliseconds(10);
    cfg.incast.epoch_interval = sim::milliseconds(30);
    cfg.duration = sim::milliseconds(80);
    cfg.seed = 9;
    return cfg;
  };
  const ScenarioResults plain = run_dumbbell(base());

  DumbbellScenarioConfig watched_cfg = base();
  watched_cfg.hwatch_enabled = true;
  watched_cfg.hwatch.probe_span = sim::microseconds(50);
  watched_cfg.hwatch.policy.batch_interval = sim::microseconds(50);
  const ScenarioResults watched = run_dumbbell(watched_cfg);

  EXPECT_GT(plain.fabric_drops, 0u);  // pathology present
  EXPECT_LT(watched.fabric_drops, plain.fabric_drops);
  EXPECT_GT(watched.shim.probes_injected, 0u);
  EXPECT_GT(watched.shim.acks_rewritten, 0u);
  EXPECT_GT(watched.shim.flows_tracked, 0u);
  // And the short flows are faster on average.
  EXPECT_LT(watched.short_fct_cdf_ms().summarize().mean,
            plain.short_fct_cdf_ms().summarize().mean);
}

TEST(ScenarioTest, EpochMeanCdfAggregatesPerEpoch) {
  const ScenarioResults res = run_dumbbell(small_scenario());
  const auto per_epoch = res.epoch_mean_fct_cdf_ms();
  EXPECT_EQ(per_epoch.sorted_samples().size(), 2u);  // 2 epochs
}

TEST(ScenarioTest, LeafSpineSmokeRun) {
  LeafSpineScenarioConfig cfg;
  cfg.racks = 3;
  cfg.hosts_per_rack = 4;
  cfg.link_rate = sim::DataRate::gbps(1);
  cfg.fabric_aqm.kind = AqmKind::kRed;
  cfg.fabric_aqm.buffer_packets = 100;
  cfg.fabric_aqm.mark_threshold_packets = 20;
  cfg.edge_aqm.kind = AqmKind::kDropTail;
  cfg.edge_aqm.buffer_packets = 100;
  cfg.bulk_flows = 4;
  cfg.bulk_template = {tcp::Transport::kNewReno,
                       quick_tcp(tcp::EcnMode::kNone), 0, "iperf"};
  cfg.web_servers_per_rack = 2;
  cfg.web_clients = 2;
  cfg.web.waves = 2;
  cfg.web.first_wave = sim::milliseconds(20);
  cfg.web.wave_interval = sim::milliseconds(50);
  cfg.web.connections_per_pair = 2;
  cfg.web.wave_spread = sim::milliseconds(5);
  cfg.web_tcp = quick_tcp(tcp::EcnMode::kNone);
  cfg.hwatch_enabled = true;
  cfg.duration = sim::milliseconds(200);
  const ScenarioResults res = run_leaf_spine(cfg);
  // 2 servers x 2 racks... web servers live in racks 0..racks-2.
  // servers = 2 per rack x 2 sending racks = 4; clients = 2; waves = 2;
  // conns = 2 -> 4*2*2*2 = 32 short flows + 4 bulk.
  EXPECT_EQ(res.records.size(), 36u);
  EXPECT_EQ(res.short_flows().size(), 32u);
  EXPECT_EQ(res.incomplete_short_flows(), 0u);
  EXPECT_GT(res.shim.probes_injected, 0u);
}

TEST(AqmConfigTest, FactoriesProduceConfiguredQueues) {
  AqmConfig cfg;
  cfg.kind = AqmKind::kDropTail;
  cfg.buffer_packets = 7;
  auto q = cfg.make_factory(sim::DataRate::gbps(10))();
  EXPECT_EQ(q->name(), "droptail");
  EXPECT_EQ(q->capacity_packets(), 7u);

  cfg.kind = AqmKind::kDctcpStep;
  cfg.mark_threshold_packets = 3;
  auto q2 = cfg.make_factory(sim::DataRate::gbps(10))();
  EXPECT_EQ(q2->name(), "dctcp-k");

  cfg.kind = AqmKind::kRed;
  auto q3 = cfg.make_factory(sim::DataRate::gbps(10))();
  EXPECT_EQ(q3->name(), "red");
}

TEST(AqmConfigTest, ByteModeSizesBufferInBytes) {
  AqmConfig cfg;
  cfg.kind = AqmKind::kDropTail;
  cfg.buffer_packets = 10;
  cfg.byte_mode = true;
  cfg.mtu_bytes = 1000;
  auto q = cfg.make_factory(sim::DataRate::gbps(10))();
  // 10 frames of 1000 B = 10 kB: fits ~263 tiny 38-byte probes.
  net::Packet probe;
  probe.kind = net::PacketKind::kProbe;
  int accepted = 0;
  for (int i = 0; i < 300; ++i) {
    net::Packet p = probe;
    if (q->enqueue(std::move(p), 0) != net::EnqueueOutcome::kDropped) {
      ++accepted;
    }
  }
  EXPECT_GT(accepted, 250);
  EXPECT_LT(accepted, 300);
}

TEST(AqmConfigTest, RejectsBuffersThatAdmitNothing) {
  const auto rejection = [](const AqmConfig& cfg) {
    return invalid_argument_of(
        [&] { cfg.make_factory(sim::DataRate::gbps(10)); });
  };
  AqmConfig empty;
  empty.buffer_packets = 0;
  EXPECT_NE(rejection(empty).find("buffer_packets = 0"), std::string::npos);

  AqmConfig zero_mtu;
  zero_mtu.byte_mode = true;
  zero_mtu.mtu_bytes = 0;
  EXPECT_NE(rejection(zero_mtu).find("mtu_bytes = 0"), std::string::npos);
  zero_mtu.byte_mode = false;  // the MTU only sizes byte-mode buffers
  EXPECT_EQ(rejection(zero_mtu), "");

  for (AqmKind kind : {AqmKind::kDctcpStep, AqmKind::kRed}) {
    AqmConfig never_marks;
    never_marks.kind = kind;
    never_marks.buffer_packets = 50;
    never_marks.mark_threshold_packets = 50;
    const std::string why = rejection(never_marks);
    EXPECT_NE(why.find("mark_threshold_packets = 50"), std::string::npos)
        << why;
    EXPECT_NE(why.find("buffer_packets = 50"), std::string::npos) << why;
    never_marks.mark_threshold_packets = 49;
    EXPECT_EQ(rejection(never_marks), "");
  }
  AqmConfig drop_tail;  // no marking, so the threshold is unused
  drop_tail.mark_threshold_packets = drop_tail.buffer_packets;
  EXPECT_EQ(rejection(drop_tail), "");

  for (double bad : {0.0, -0.1, 1.5}) {
    AqmConfig red;
    red.kind = AqmKind::kRed;
    red.red_max_p = bad;
    EXPECT_NE(rejection(red).find("red_max_p"), std::string::npos) << bad;
    red.red_max_p = 1.0;  // the closed end of (0, 1] is legal
    red.red_weight = bad;
    EXPECT_NE(rejection(red).find("red_weight"), std::string::npos) << bad;
    red.red_weight = 1.0;
    EXPECT_EQ(rejection(red), "");
  }
}

TEST(ScenarioTest, EmptyBuffersAreRejectedForEveryShape) {
  // Each used to build queues that drop every packet and "complete"
  // with every flow unfinished.
  DumbbellScenarioConfig dumbbell = small_scenario();
  dumbbell.core_aqm.buffer_packets = 0;
  const std::string a = invalid_argument_of([&] { run_dumbbell(dumbbell); });
  EXPECT_NE(a.find("buffer_packets = 0"), std::string::npos) << a;

  LeafSpineScenarioConfig leaf_spine;
  leaf_spine.fabric_aqm.byte_mode = true;
  leaf_spine.fabric_aqm.mtu_bytes = 0;
  const std::string b =
      invalid_argument_of([&] { run_leaf_spine(leaf_spine); });
  EXPECT_NE(b.find("mtu_bytes = 0"), std::string::npos) << b;

  FatTreeScenarioConfig fat_tree;
  fat_tree.k = 4;
  fat_tree.aqm.kind = AqmKind::kRed;
  fat_tree.aqm.red_weight = 0;
  const std::string c =
      invalid_argument_of([&] { run_fat_tree_sharded(fat_tree); });
  EXPECT_NE(c.find("red_weight"), std::string::npos) << c;
}

TEST(ScenarioTest, NamesForAqmKinds) {
  EXPECT_EQ(to_string(AqmKind::kDropTail), "droptail");
  EXPECT_EQ(to_string(AqmKind::kRed), "red-ecn");
  EXPECT_EQ(to_string(AqmKind::kDctcpStep), "dctcp-step");
}

}  // namespace
}  // namespace hwatch::api
