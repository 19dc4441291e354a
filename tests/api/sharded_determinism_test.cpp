// Sharded-run determinism: the headline invariant of the sharded
// runner is that the worker-thread count (cfg.shards / HWATCH_SHARDS)
// changes nothing but wall time — manifests and trace exports are
// byte-identical across 1, 2 and 4 threads because the logical
// partition and every event order are pure functions of (config, seed).
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "api/sharded.hpp"
#include "sim/json.hpp"

namespace hwatch {
namespace {

api::FatTreeScenarioConfig small_config() {
  api::FatTreeScenarioConfig cfg;
  cfg.k = 4;  // 16 hosts, 8 shards
  cfg.aqm.kind = api::AqmKind::kDctcpStep;
  cfg.flows_per_host = 1;
  cfg.flow_bytes = 50'000;
  cfg.start_spread = sim::milliseconds(1);
  cfg.transport = tcp::Transport::kDctcp;
  cfg.duration = sim::milliseconds(20);
  cfg.seed = 7;
  cfg.collect_metrics = true;
  cfg.trace_spans = true;
  cfg.run_label = "sharded-determinism";
  return cfg;
}

TEST(ShardedDeterminism, ByteIdenticalAcrossThreadCounts) {
  api::FatTreeScenarioConfig cfg = small_config();
  cfg.shards = 1;
  const api::ScenarioResults base = api::run_fat_tree_sharded(cfg);
  ASSERT_TRUE(base.has_manifest);
  ASSERT_FALSE(base.records.empty());
  EXPECT_EQ(base.incomplete_short_flows(), 0u);
  const std::string base_manifest = base.manifest.deterministic_dump();
  ASSERT_FALSE(base_manifest.empty());
  ASSERT_FALSE(base.trace_spans_jsonl.empty());
  ASSERT_FALSE(base.trace_chrome.empty());
  // The shards telemetry section and gauge series ride in the
  // deterministic dump, so the loop below byte-compares them too.
  EXPECT_NE(base_manifest.find("hwatch.shard_telemetry/v1"),
            std::string::npos);
  EXPECT_NE(base_manifest.find("shard0.net.queued_pkts_total"),
            std::string::npos);
  EXPECT_GE(base.shard_imbalance, 1.0);

  for (unsigned threads : {2u, 4u}) {
    cfg.shards = threads;
    const api::ScenarioResults run = api::run_fat_tree_sharded(cfg);
    ASSERT_TRUE(run.has_manifest);
    EXPECT_EQ(run.manifest.deterministic_dump(), base_manifest)
        << "manifest differs at " << threads << " worker threads";
    EXPECT_EQ(run.trace_spans_jsonl, base.trace_spans_jsonl)
        << "span dump differs at " << threads << " worker threads";
    EXPECT_EQ(run.trace_chrome, base.trace_chrome)
        << "chrome export differs at " << threads << " worker threads";
    EXPECT_DOUBLE_EQ(run.shard_imbalance, base.shard_imbalance);
  }
}

TEST(ShardedDeterminism, ShardsSectionIsWellFormed) {
  api::FatTreeScenarioConfig cfg = small_config();
  cfg.trace_spans = false;
  cfg.shards = 2;
  const api::ScenarioResults res = api::run_fat_tree_sharded(cfg);
  ASSERT_TRUE(res.has_manifest);
  const sim::Json& shards = res.manifest.shards;
  ASSERT_TRUE(shards.is_object());
  ASSERT_NE(shards.find("schema"), nullptr);
  EXPECT_EQ(shards.find("schema")->as_string(), "hwatch.shard_telemetry/v1");
  EXPECT_EQ(shards.find("shard_count")->as_uint(), 8u);
  EXPECT_GT(shards.find("epochs")->as_uint(), 0u);
  const sim::Json* per_shard = shards.find("per_shard");
  ASSERT_NE(per_shard, nullptr);
  ASSERT_EQ(per_shard->size(), 8u);
  // The per-shard events sum to the run total and cross-shard traffic
  // is conserved: everything pushed was drained (no packet stranded).
  std::uint64_t events = 0, pushed = 0, drained = 0;
  for (const sim::Json& s : per_shard->items()) {
    events += s.find("events")->as_uint();
    pushed += s.find("ingress")->find("pushed")->as_uint();
    drained += s.find("ingress")->find("drained")->as_uint();
  }
  EXPECT_EQ(events, shards.find("events")->find("total")->as_uint());
  EXPECT_EQ(events, res.events_executed);
  EXPECT_GT(pushed, 0u);
  EXPECT_EQ(pushed, drained);
  // Gauge series cover every shard; counters carry the drain totals.
  EXPECT_EQ(res.manifest.series.size(), 8u * 3u);
  const sim::Json* counters = res.manifest.metrics.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("shard.ingress.drained")->as_uint(), drained);
  ASSERT_NE(counters->find("shard.ingress.peak_depth"), nullptr);
}

TEST(ShardedDeterminism, EmptyWorkloadStaysByteIdentical) {
  api::FatTreeScenarioConfig cfg = small_config();
  cfg.trace_spans = false;
  cfg.flows_per_host = 0;  // telemetry over empty epochs
  // Push the first gauge tick past the horizon: sampler events would
  // otherwise be the only scheduler activity.
  cfg.sample_interval = sim::seconds(1);
  cfg.run_label = "sharded-empty";
  cfg.shards = 1;
  const api::ScenarioResults base = api::run_fat_tree_sharded(cfg);
  ASSERT_TRUE(base.has_manifest);
  EXPECT_TRUE(base.records.empty());
  EXPECT_EQ(base.shard_imbalance, 0.0);
  const sim::Json& shards = base.manifest.shards;
  ASSERT_TRUE(shards.is_object());
  EXPECT_GT(shards.find("epochs")->as_uint(), 0u);
  EXPECT_EQ(shards.find("events")->find("total")->as_uint(), 0u);
  EXPECT_EQ(shards.find("stragglers")->size(), 0u);
  const std::string dump = base.manifest.deterministic_dump();
  for (unsigned threads : {2u, 4u}) {
    cfg.shards = threads;
    const api::ScenarioResults run = api::run_fat_tree_sharded(cfg);
    EXPECT_EQ(run.manifest.deterministic_dump(), dump)
        << "empty-workload manifest differs at " << threads << " threads";
  }
}

TEST(ShardedScenario, IdleHorizonAddsNoEpochs) {
  // Once every flow has finished, no shard has an event left, so a
  // longer horizon adds at most the closing epoch — the property that
  // keeps wall time flat in the idle tail.  Metrics stay off: sampler
  // ticks would be events of their own.
  api::FatTreeScenarioConfig cfg = small_config();
  cfg.collect_metrics = false;
  cfg.trace_spans = false;
  cfg.shards = 2;
  cfg.duration = sim::milliseconds(50);
  const api::ScenarioResults short_run = api::run_fat_tree_sharded(cfg);
  cfg.duration = sim::milliseconds(400);
  const api::ScenarioResults long_run = api::run_fat_tree_sharded(cfg);
  ASSERT_EQ(short_run.incomplete_short_flows(), 0u);
  for (const auto& r : short_run.records) EXPECT_TRUE(r.completed);
  EXPECT_EQ(long_run.events_executed, short_run.events_executed);
  EXPECT_GT(short_run.epochs, 0u);
  EXPECT_LE(long_run.epochs, short_run.epochs + 1);
  EXPECT_GE(long_run.epochs, short_run.epochs);
}

TEST(ShardedScenario, ProfileReportsWithoutDisturbingResults) {
  api::FatTreeScenarioConfig cfg = small_config();
  cfg.trace_spans = false;
  cfg.shards = 2;
  const api::ScenarioResults plain = api::run_fat_tree_sharded(cfg);
  cfg.profile = true;  // stderr report only
  const api::ScenarioResults profiled = api::run_fat_tree_sharded(cfg);
  EXPECT_EQ(profiled.manifest.deterministic_dump(),
            plain.manifest.deterministic_dump());
}

TEST(ShardedScenario, WorkersTimelineIsSeparateFromMergedTrace) {
  api::FatTreeScenarioConfig cfg = small_config();
  cfg.shards = 2;
  const api::ScenarioResults res = api::run_fat_tree_sharded(cfg);
  ASSERT_FALSE(res.trace_workers_chrome.empty());
  std::string err;
  const sim::Json j = sim::Json::parse(res.trace_workers_chrome, &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(j.find("schema")->as_string(), "hwatch.trace_export/v1");
  EXPECT_GT(j.find("traceEvents")->size(), 0u);
  // Wall-clock data never leaks into the merged (byte-compared) export.
  EXPECT_EQ(res.trace_chrome.find("worker0"), std::string::npos);
}

TEST(ShardedScenario, CrossShardFlowsComplete) {
  api::FatTreeScenarioConfig cfg = small_config();
  cfg.collect_metrics = false;
  cfg.trace_spans = false;
  cfg.shards = 2;
  const api::ScenarioResults res = api::run_fat_tree_sharded(cfg);
  EXPECT_EQ(res.records.size(), 16u);
  EXPECT_EQ(res.incomplete_short_flows(), 0u);
  EXPECT_GT(res.events_executed, 0u);
  for (const auto& r : res.records) {
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.fct, 0);
  }
}

TEST(ShardedScenario, HwatchShimsRunAcrossShards) {
  api::FatTreeScenarioConfig cfg = small_config();
  cfg.collect_metrics = false;
  cfg.trace_spans = false;
  cfg.hwatch_enabled = true;
  cfg.shards = 2;
  const api::ScenarioResults res = api::run_fat_tree_sharded(cfg);
  EXPECT_EQ(res.incomplete_short_flows(), 0u);
  EXPECT_GT(res.shim.flows_tracked, 0u);
}

TEST(ShardedEnv, ShardsFromEnvValidation) {
  ::unsetenv("HWATCH_SHARDS");
  EXPECT_EQ(api::shards_from_env(), 0u);
  ::setenv("HWATCH_SHARDS", "3", 1);
  EXPECT_EQ(api::shards_from_env(), 3u);
  for (const char* bad : {"", "0", "-1", "2x", "abc", "99999999999"}) {
    ::setenv("HWATCH_SHARDS", bad, 1);
    if (*bad == '\0') {
      EXPECT_EQ(api::shards_from_env(), 0u);
    } else {
      EXPECT_THROW(api::shards_from_env(), std::invalid_argument) << bad;
    }
  }
  ::unsetenv("HWATCH_SHARDS");
}

TEST(ShardedEnv, RunnerResolvesEnv) {
  // shards = 0 defers to HWATCH_SHARDS; the resolved worker count is
  // recorded in the manifest's environment section.
  api::FatTreeScenarioConfig cfg = small_config();
  cfg.trace_spans = false;
  cfg.duration = sim::milliseconds(2);
  cfg.shards = 0;
  ::setenv("HWATCH_SHARDS", "2", 1);
  const api::ScenarioResults res = api::run_fat_tree_sharded(cfg);
  ::unsetenv("HWATCH_SHARDS");
  ASSERT_TRUE(res.has_manifest);
  EXPECT_EQ(res.manifest.sweep_threads, 2u);
  const api::ScenarioResults unset = api::run_fat_tree_sharded(cfg);
  EXPECT_EQ(unset.manifest.sweep_threads, 1u);
}

}  // namespace
}  // namespace hwatch
