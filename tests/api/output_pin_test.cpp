// Output pins: FNV-1a hashes of the deterministic outputs of one small
// run per scenario runner, with metrics, span tracing and incident
// detection on.  The other determinism suites compare two runs of the
// same build; these compare against bytes recorded from an earlier
// tree, so a refactor of the run path that moves a single byte of a
// manifest or a trace export fails here.
//
// Re-record only for a deliberate output change: run the suite, copy
// the printed hashes into the table below, and say why in the commit.
//
// The one-part runs also check that `trace_inspect export` of the run's
// `<label>.spans.jsonl` rebuilds its Chrome export byte for byte: the
// tool and the run share one writer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "api/scenario.hpp"
#include "api/sharded.hpp"

namespace hwatch::api {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Pin {
  std::uint64_t manifest;
  std::uint64_t spans;
  std::uint64_t chrome;
};

void expect_pinned(const ScenarioResults& res, const Pin& pin) {
  ASSERT_TRUE(res.has_manifest);
  ASSERT_FALSE(res.trace_spans_jsonl.empty());
  ASSERT_FALSE(res.trace_chrome.empty());
  ASSERT_FALSE(res.records.empty());
  // Every pinned run has incidents, so the section's bytes are pinned.
  const sim::Json* incidents = res.manifest.incidents.find("count");
  ASSERT_NE(incidents, nullptr);
  EXPECT_GT(incidents->as_uint(), 0u);
  EXPECT_EQ(hex(fnv1a(res.manifest.deterministic_dump())), hex(pin.manifest))
      << "manifest bytes moved";
  EXPECT_EQ(hex(fnv1a(res.trace_spans_jsonl)), hex(pin.spans))
      << "span dump bytes moved";
  EXPECT_EQ(hex(fnv1a(res.trace_chrome)), hex(pin.chrome))
      << "chrome export bytes moved";
}

void expect_cli_export_matches(const ScenarioResults& res) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::create_directories(dir);
  const std::filesystem::path spans = dir / (res.manifest.name + ".spans.jsonl");
  const std::filesystem::path chrome = dir / "cli.trace.json";
  std::ofstream(spans, std::ios::binary) << res.trace_spans_jsonl;
  const std::string cmd = std::string(TRACE_INSPECT_BIN) + " export -o '" +
                          chrome.string() + "' '" + spans.string() + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::ifstream in(chrome, std::ios::binary);
  const std::string exported((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  EXPECT_EQ(hex(fnv1a(exported)), hex(fnv1a(res.trace_chrome)))
      << "trace_inspect export differs from the run's trace_chrome";
  std::filesystem::remove_all(dir);
}

tcp::TcpConfig quick_tcp(tcp::EcnMode ecn) {
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(50);
  t.initial_rto = sim::milliseconds(50);
  t.ecn = ecn;
  return t;
}

class OutputPinDeterminism : public ::testing::Test {
 protected:
  // The pins are for the configs below alone: no environment override
  // may switch on extra sections or write files.
  void SetUp() override {
    for (const char* name :
         {"HWATCH_METRICS_DIR", "HWATCH_TRACE_DIR", "HWATCH_INCIDENTS",
          "HWATCH_PROFILE", "HWATCH_PROGRESS", "HWATCH_FLIGHT_DIR",
          "HWATCH_FLIGHT_DUMP", "HWATCH_EPOCH_BUDGET_MS", "HWATCH_SHARDS"}) {
      ::unsetenv(name);
    }
  }
};

DumbbellScenarioConfig dumbbell_point(bool hwatch) {
  DumbbellScenarioConfig cfg;
  cfg.pairs = 8;
  cfg.core_aqm.kind = AqmKind::kDctcpStep;
  cfg.core_aqm.buffer_packets = 60;
  cfg.core_aqm.mark_threshold_packets = 15;
  cfg.edge_aqm = cfg.core_aqm;
  const workload::SenderGroup g{tcp::Transport::kDctcp,
                                quick_tcp(tcp::EcnMode::kDctcp), 3, "dctcp"};
  cfg.long_groups = {g};
  workload::SenderGroup s = g;
  s.count = 5;
  cfg.short_groups = {s};
  cfg.incast.epochs = 2;
  cfg.incast.first_epoch = sim::milliseconds(10);
  cfg.incast.epoch_interval = sim::milliseconds(20);
  cfg.duration = sim::milliseconds(60);
  cfg.hwatch_enabled = hwatch;
  cfg.seed = 11;
  cfg.collect_metrics = true;
  cfg.trace_spans = true;
  cfg.detect_incidents = true;
  return cfg;
}

TEST_F(OutputPinDeterminism, DumbbellWithHWatch) {
  const ScenarioResults res = run_dumbbell(dumbbell_point(true));
  expect_pinned(res, {0xbb216d0167d3162dull, 0x773450651fa884e0ull,
                      0x67495049ee713cc7ull});
  expect_cli_export_matches(res);
}

TEST_F(OutputPinDeterminism, DumbbellWithoutHWatch) {
  const ScenarioResults res = run_dumbbell(dumbbell_point(false));
  expect_pinned(res, {0x3d8b82a67d179b32ull, 0xdea97d144bd7459eull,
                      0x3b0271f9706360e5ull});
  expect_cli_export_matches(res);
}

TEST_F(OutputPinDeterminism, LeafSpineClosedLoop) {
  LeafSpineScenarioConfig cfg;
  cfg.racks = 3;
  cfg.hosts_per_rack = 4;
  cfg.link_rate = sim::DataRate::gbps(1);
  cfg.fabric_aqm.kind = AqmKind::kRed;
  cfg.fabric_aqm.buffer_packets = 60;
  cfg.fabric_aqm.mark_threshold_packets = 12;
  cfg.edge_aqm.kind = AqmKind::kDropTail;
  cfg.edge_aqm.buffer_packets = 100;
  cfg.bulk_flows = 4;
  cfg.bulk_template = {tcp::Transport::kNewReno,
                       quick_tcp(tcp::EcnMode::kNone), 0, "iperf"};
  cfg.web_servers_per_rack = 2;
  cfg.web_clients = 2;
  cfg.web_pattern = LeafSpineScenarioConfig::WebPattern::kClosedLoop;
  cfg.closed_loop.slots_per_pair = 2;
  cfg.closed_loop.requests_per_slot = 3;
  cfg.closed_loop.start = sim::milliseconds(20);
  cfg.web_tcp = quick_tcp(tcp::EcnMode::kNone);
  cfg.hwatch_enabled = true;
  cfg.duration = sim::milliseconds(150);
  cfg.seed = 5;
  cfg.collect_metrics = true;
  cfg.trace_spans = true;
  cfg.detect_incidents = true;
  const ScenarioResults res = run_leaf_spine(cfg);
  expect_pinned(res, {0xc5d5c74b023f2b74ull, 0x791af83538abc76cull,
                      0xec5166a80b3fa463ull});
  expect_cli_export_matches(res);
}

FatTreeScenarioConfig fat_tree_point(unsigned shards, bool hwatch) {
  FatTreeScenarioConfig cfg;
  cfg.k = 4;  // 16 hosts, 8 logical shards
  cfg.aqm.kind = AqmKind::kDctcpStep;
  cfg.aqm.buffer_packets = 12;
  cfg.aqm.mark_threshold_packets = 4;
  cfg.flows_per_host = 4;
  cfg.flow_bytes = 40'000;
  cfg.start_spread = sim::milliseconds(1);
  cfg.transport = tcp::Transport::kDctcp;
  cfg.tcp = quick_tcp(tcp::EcnMode::kDctcp);
  cfg.hwatch_enabled = hwatch;
  cfg.duration = sim::milliseconds(20);
  cfg.seed = 3;
  cfg.shards = shards;
  cfg.collect_metrics = true;
  cfg.trace_spans = true;
  cfg.detect_incidents = true;
  return cfg;
}

// One pin for both worker counts: the sharded byte-identity contract.
constexpr Pin kFatTreePin{0x251a4c42133a09feull, 0x2269e7f5cbf4bd7bull,
                          0xe33d85b3f39bbef0ull};

TEST_F(OutputPinDeterminism, FatTreeOneWorker) {
  expect_pinned(run_fat_tree_sharded(fat_tree_point(1, true)), kFatTreePin);
}

TEST_F(OutputPinDeterminism, FatTreeTwoWorkers) {
  expect_pinned(run_fat_tree_sharded(fat_tree_point(2, true)), kFatTreePin);
}

TEST_F(OutputPinDeterminism, FatTreeWithoutHWatch) {
  expect_pinned(run_fat_tree_sharded(fat_tree_point(2, false)),
                {0xd2e94ad90c38a636ull, 0x4b797f87463c1da1ull,
                 0xe361d7bc5276dde0ull});
}

}  // namespace
}  // namespace hwatch::api
