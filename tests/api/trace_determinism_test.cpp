// Determinism contract of the tracing subsystem: the span JSONL dump
// and the Chrome export are pure functions of (config, seed) — byte
// identical across repeated runs and across sweep thread counts — and
// turning tracing on must not perturb the simulation itself (manifests
// stay byte-identical with tracing on or off).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "api/scenario.hpp"
#include "api/sweep.hpp"

namespace hwatch::api {
namespace {

tcp::TcpConfig quick_tcp() {
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(50);
  t.initial_rto = sim::milliseconds(50);
  t.ecn = tcp::EcnMode::kDctcp;
  return t;
}

/// Small, fast dumbbell point with HWatch on, so every span kind
/// (handshake, probe train, decision, rwnd write) shows up in traces.
DumbbellScenarioConfig traced_point(std::uint64_t seed) {
  DumbbellScenarioConfig cfg;
  cfg.pairs = 8;
  cfg.core_aqm.kind = AqmKind::kDctcpStep;
  cfg.core_aqm.buffer_packets = 100;
  cfg.core_aqm.mark_threshold_packets = 20;
  cfg.edge_aqm = cfg.core_aqm;
  workload::SenderGroup g{tcp::Transport::kDctcp, quick_tcp(), 4, "dctcp"};
  cfg.long_groups = {g};
  cfg.short_groups = {g};
  cfg.incast.epochs = 2;
  cfg.incast.first_epoch = sim::milliseconds(10);
  cfg.incast.epoch_interval = sim::milliseconds(20);
  cfg.duration = sim::milliseconds(60);
  cfg.hwatch_enabled = true;
  cfg.seed = seed;
  cfg.trace_spans = true;
  return cfg;
}

class TraceDeterminismTest : public ::testing::Test {
 protected:
  // These tests assert byte-identity, so stray environment overrides
  // (HWATCH_TRACE_DIR writing files, HWATCH_METRICS_DIR forcing
  // metrics) must not leak in.
  void SetUp() override {
    ::unsetenv("HWATCH_TRACE_DIR");
    ::unsetenv("HWATCH_METRICS_DIR");
    ::unsetenv("HWATCH_SWEEP_THREADS");
    ::unsetenv("HWATCH_PROGRESS");
  }
};

TEST_F(TraceDeterminismTest, SameSeedSameBytes) {
  const ScenarioResults a = run_dumbbell(traced_point(7));
  const ScenarioResults b = run_dumbbell(traced_point(7));
  ASSERT_FALSE(a.trace_spans_jsonl.empty());
  ASSERT_FALSE(a.trace_chrome.empty());
  EXPECT_EQ(a.trace_spans_jsonl, b.trace_spans_jsonl);
  EXPECT_EQ(a.trace_chrome, b.trace_chrome);
  // The dump registers flows ("ph":"F") and their latency ("ph":"L").
  EXPECT_NE(a.trace_spans_jsonl.find("\"ph\":\"F\""), std::string::npos);
  EXPECT_NE(a.trace_spans_jsonl.find("\"ph\":\"L\""), std::string::npos);
}

TEST_F(TraceDeterminismTest, DifferentSeedDifferentTrace) {
  const ScenarioResults a = run_dumbbell(traced_point(7));
  const ScenarioResults b = run_dumbbell(traced_point(8));
  EXPECT_NE(a.trace_spans_jsonl, b.trace_spans_jsonl);
}

TEST_F(TraceDeterminismTest, SweepThreadCountDoesNotChangeTraces) {
  std::vector<DumbbellScenarioConfig> points;
  for (std::uint64_t s = 1; s <= 4; ++s) points.push_back(traced_point(s));
  const std::vector<ScenarioResults> serial = SweepRunner(1).run(points);
  const std::vector<ScenarioResults> parallel = SweepRunner(4).run(points);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].trace_spans_jsonl, parallel[i].trace_spans_jsonl)
        << "point " << i;
    EXPECT_EQ(serial[i].trace_chrome, parallel[i].trace_chrome)
        << "point " << i;
  }
}

TEST_F(TraceDeterminismTest, TracingDoesNotPerturbTheSimulation) {
  DumbbellScenarioConfig off = traced_point(5);
  off.trace_spans = false;
  off.collect_metrics = true;
  DumbbellScenarioConfig on = traced_point(5);
  on.collect_metrics = true;
  const ScenarioResults a = run_dumbbell(off);
  const ScenarioResults b = run_dumbbell(on);
  EXPECT_TRUE(a.trace_spans_jsonl.empty());
  EXPECT_FALSE(b.trace_spans_jsonl.empty());
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.retransmits, b.retransmits);
  ASSERT_TRUE(a.has_manifest);
  ASSERT_TRUE(b.has_manifest);
  // The manifest is the simulation's observable fingerprint; tracing
  // must leave it byte-identical.
  EXPECT_EQ(a.manifest.deterministic_dump(), b.manifest.deterministic_dump());
}

TEST_F(TraceDeterminismTest, ExportCarriesTheSchemaTag) {
  const ScenarioResults r = run_dumbbell(traced_point(3));
  EXPECT_NE(r.trace_chrome.find("\"schema\":\"hwatch.trace_export/v1\""),
            std::string::npos);
  EXPECT_NE(r.trace_chrome.find("\"traceEvents\":["), std::string::npos);
  // Spans JSONL carries flow registrations and latency summaries.
  EXPECT_NE(r.trace_spans_jsonl.find("\"ph\":\"F\""), std::string::npos);
  EXPECT_NE(r.trace_spans_jsonl.find("\"queueing_ps\":"), std::string::npos);
}

}  // namespace
}  // namespace hwatch::api
