// ShardTelemetry — the deterministic counter plane must be a pure
// function of the hook sequence (independent of the worker count in the
// config), the flight ring must evict old epochs and dump valid JSON on
// shard exceptions / budget overruns, and the per-worker Chrome export
// must be well-formed (balanced B/E, sorted timestamps).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/sharded.hpp"
#include "sim/json.hpp"
#include "sim/shard_group.hpp"
#include "sim/shard_telemetry.hpp"
#include "sim/time.hpp"

namespace hwatch::sim {
namespace {

ShardTelemetry::Config base_config(std::size_t shards) {
  ShardTelemetry::Config cfg;
  cfg.shard_count = shards;
  cfg.workers = 1;
  cfg.label = "telemetry-test";
  cfg.lookahead = 1000;
  return cfg;
}

/// Drives `epochs` epochs of the hook protocol: shard 0 executes
/// `heavy` events per epoch, every other shard exactly one, and shard 0
/// additionally reports cumulative ingress counters growing by one push
/// per epoch.
void drive(ShardTelemetry& tel, std::size_t shards, std::uint64_t epochs,
           std::uint64_t heavy) {
  std::vector<std::uint64_t> events_cum(shards, 0);
  std::uint64_t pushed_cum = 0;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    const TimePs start = static_cast<TimePs>(e) * 1000;
    const TimePs end = start + 1000;
    for (std::size_t s = 0; s < shards; ++s) {
      ShardTelemetry::IngressSample in;
      if (s == 0) {
        ++pushed_cum;
        in.pushed = pushed_cum;
        in.peak_depth = 3;
        in.depth = 1;
      }
      tel.shard_drain(s, start, in);
    }
    for (std::size_t s = 0; s < shards; ++s) {
      events_cum[s] += s == 0 ? heavy : 1;
      tel.shard_run(s, end, events_cum[s]);
    }
    tel.epoch_end(end, static_cast<TimePs>(epochs) * 1000);
  }
}

TEST(ShardTelemetryTest, CountersImbalanceAndStragglers) {
  ShardTelemetry tel(base_config(4));
  drive(tel, 4, 10, 7);
  EXPECT_EQ(tel.epochs(), 10u);
  // 10 epochs of 7+1+1+1 events.
  EXPECT_EQ(tel.total_events(), 100u);
  // Every epoch's max shard delta is 7, mean is 10/4.
  EXPECT_DOUBLE_EQ(tel.imbalance_ratio(), 7.0 / (100.0 / (10 * 4)));
  const auto top = tel.top_stragglers(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 0u);  // the heavy shard
  EXPECT_EQ(top[1], 1u);  // tie among 1..3 broken by lower id
  EXPECT_EQ(tel.spill_total(), 0u);
  EXPECT_EQ(tel.inbox_peak_depth(), 3u);
}

TEST(ShardTelemetryTest, ShardsJsonIsWorkerCountFree) {
  ShardTelemetry::Config one = base_config(3);
  one.workers = 1;
  ShardTelemetry::Config four = base_config(3);
  four.workers = 4;
  // Wall-clock features differ too: they must not leak into the
  // deterministic section either.
  four.wall_spans = true;
  four.progress = false;
  ShardTelemetry a(std::move(one));
  ShardTelemetry b(std::move(four));
  drive(a, 3, 5, 4);
  drive(b, 3, 5, 4);
  const std::string da = a.shards_json().dump(2);
  const std::string db = b.shards_json().dump(2);
  EXPECT_EQ(da, db);

  std::string err;
  const Json j = Json::parse(da, &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_TRUE(j.is_object());
  ASSERT_NE(j.find("schema"), nullptr);
  EXPECT_EQ(j.find("schema")->as_string(), "hwatch.shard_telemetry/v1");
  EXPECT_EQ(j.find("shard_count")->as_uint(), 3u);
  EXPECT_EQ(j.find("epochs")->as_uint(), 5u);
  ASSERT_NE(j.find("events"), nullptr);
  EXPECT_GT(j.find("events")->find("imbalance_ratio")->as_double(), 1.0);
  ASSERT_NE(j.find("per_shard"), nullptr);
  EXPECT_EQ(j.find("per_shard")->size(), 3u);
  const Json& shard0 = j.find("per_shard")->at(0);
  EXPECT_EQ(shard0.find("events")->as_uint(), 20u);
  EXPECT_EQ(shard0.find("ingress")->find("pushed")->as_uint(), 5u);
}

TEST(ShardTelemetryTest, FlightRingKeepsOnlyNewestEpochs) {
  ShardTelemetry::Config cfg = base_config(2);
  cfg.ring_epochs = 4;
  ShardTelemetry tel(std::move(cfg));
  drive(tel, 2, 10, 2);

  std::ostringstream os;
  tel.dump_flight(os, "forced");
  std::string err;
  const Json j = Json::parse(os.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(j.find("schema")->as_string(), "hwatch.shard_flight/v1");
  EXPECT_EQ(j.find("reason")->as_string(), "forced");
  EXPECT_EQ(j.find("epochs_completed")->as_uint(), 10u);
  const Json* epochs = j.find("epochs");
  ASSERT_NE(epochs, nullptr);
  // ring_epochs - 1 = the newest 3 completed epochs: 7, 8, 9.
  ASSERT_EQ(epochs->size(), 3u);
  EXPECT_EQ(epochs->at(0).find("epoch")->as_uint(), 7u);
  EXPECT_EQ(epochs->at(2).find("epoch")->as_uint(), 9u);
  for (const Json& row : epochs->items()) {
    ASSERT_EQ(row.find("shards")->size(), 2u);
    EXPECT_EQ(row.find("shards")->at(0).find("events")->as_uint(), 2u);
    EXPECT_EQ(row.find("shards")->at(1).find("events")->as_uint(), 1u);
  }
}

TEST(ShardTelemetryTest, EmptyRunProducesValidOutputs) {
  ShardTelemetry tel(base_config(2));
  EXPECT_EQ(tel.epochs(), 0u);
  EXPECT_DOUBLE_EQ(tel.imbalance_ratio(), 0.0);
  EXPECT_TRUE(tel.top_stragglers(3).empty());

  std::string err;
  const Json shards = Json::parse(tel.shards_json().dump(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(shards.find("epochs")->as_uint(), 0u);
  EXPECT_EQ(shards.find("stragglers")->size(), 0u);

  std::ostringstream flight;
  tel.dump_flight(flight, "forced");
  const Json fj = Json::parse(flight.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(fj.find("epochs")->size(), 0u);

  std::ostringstream chrome;
  tel.export_chrome_workers(chrome, "empty");
  const Json cj = Json::parse(chrome.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(cj.find("schema")->as_string(), "hwatch.trace_export/v1");

  std::ostringstream report;
  tel.report(report);
  EXPECT_NE(report.str().find("epochs 0"), std::string::npos);
}

TEST(ShardTelemetryTest, WorkerTimelineBalancedAndSorted) {
  ShardTelemetry::Config cfg = base_config(2);
  cfg.workers = 2;
  cfg.wall_spans = true;
  ShardTelemetry tel(std::move(cfg));
  for (int e = 0; e < 3; ++e) {
    for (unsigned w = 0; w < 2; ++w) {
      tel.worker_mark(w, ShardTelemetry::Mark::kDrain);
      tel.worker_mark(w, ShardTelemetry::Mark::kBarrier);
      tel.worker_mark(w, ShardTelemetry::Mark::kRun);
      tel.worker_mark(w, ShardTelemetry::Mark::kBarrier);
    }
  }
  for (unsigned w = 0; w < 2; ++w) {
    tel.worker_mark(w, ShardTelemetry::Mark::kEnd);
  }
  EXPECT_EQ(tel.worker_spans_dropped(), 0u);

  std::ostringstream os;
  tel.export_chrome_workers(os, "timeline-test");
  std::string err;
  const Json j = Json::parse(os.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  const Json* events = j.find("traceEvents");
  ASSERT_NE(events, nullptr);
  double last_ts = -1;
  std::map<std::uint64_t, int> open;  // tid -> B minus E
  int spans = 0;
  for (const Json& ev : events->items()) {
    const std::string ph = ev.find("ph")->as_string();
    if (ph == "M") continue;
    const double ts = ev.find("ts")->as_double();
    EXPECT_GE(ts, last_ts) << "timestamps must be globally sorted";
    last_ts = ts;
    const std::uint64_t tid = ev.find("tid")->as_uint();
    if (ph == "B") {
      ++open[tid];
      ++spans;
      const std::string name = ev.find("name")->as_string();
      EXPECT_TRUE(name == "drain" || name == "barrier_wait" ||
                  name == "run")
          << name;
    } else {
      ASSERT_EQ(ph, "E");
      --open[tid];
      EXPECT_GE(open[tid], 0);
    }
  }
  for (const auto& [tid, n] : open) {
    EXPECT_EQ(n, 0) << "unbalanced B/E on tid " << tid;
  }
  // 2 workers x 3 epochs x 4 marks, each closing one phase span.
  EXPECT_EQ(spans, 2 * 3 * 4);
}

TEST(ShardTelemetryTest, WorkerExportEscapesProcessName) {
  ShardTelemetry::Config cfg = base_config(2);
  cfg.wall_spans = true;
  ShardTelemetry tel(std::move(cfg));
  tel.worker_mark(0, ShardTelemetry::Mark::kRun);
  tel.worker_mark(0, ShardTelemetry::Mark::kEnd);

  const std::string label = "run \"a\" in C:\\tmp";
  std::ostringstream os;
  tel.export_chrome_workers(os, label);
  std::string err;
  const Json j = Json::parse(os.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  const Json& meta = j.find("traceEvents")->items().front();
  EXPECT_EQ(meta.find("name")->as_string(), "process_name");
  EXPECT_EQ(meta.find("args")->find("name")->as_string(), label + "/workers");

  // A plain label keeps its exact bytes.
  std::ostringstream plain;
  tel.export_chrome_workers(plain, "plain-run");
  EXPECT_NE(plain.str().find(
                "\"args\":{\"name\":\"plain-run/workers\"}}"),
            std::string::npos);
}

TEST(ShardTelemetryTest, BudgetEnvParsing) {
  // The run path reads HWATCH_EPOCH_BUDGET_MS before it builds anything;
  // a value that is not a positive integer is an error naming the
  // variable and the value, never a silently disabled watchdog.  The
  // boolean flags follow the same rule.
  api::FatTreeScenarioConfig cfg;
  cfg.k = 4;
  cfg.flows_per_host = 1;
  cfg.flow_bytes = 10'000;
  cfg.duration = milliseconds(1);
  cfg.shards = 2;
  for (const char* bad : {"nonsense", "0", "-5", "12ms"}) {
    ::setenv("HWATCH_EPOCH_BUDGET_MS", bad, 1);
    try {
      (void)api::run_fat_tree_sharded(cfg);
      ADD_FAILURE() << "no error for HWATCH_EPOCH_BUDGET_MS=" << bad;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("HWATCH_EPOCH_BUDGET_MS"), std::string::npos)
          << what;
      EXPECT_NE(what.find(std::string("\"") + bad + "\""),
                std::string::npos)
          << what;
    }
  }
  // A positive budget far above any epoch's wall time runs normally.
  ::setenv("HWATCH_EPOCH_BUDGET_MS", "600000", 1);
  EXPECT_NO_THROW((void)api::run_fat_tree_sharded(cfg));
  ::unsetenv("HWATCH_EPOCH_BUDGET_MS");
  // The boolean flags are read at the same point: only "", "0" and "1"
  // are values, so "no" is an error rather than switching the flag on.
  for (const char* var : {"HWATCH_PROFILE", "HWATCH_INCIDENTS",
                          "HWATCH_FLIGHT_DUMP", "HWATCH_PROGRESS"}) {
    for (const char* bad : {"no", "true", "2"}) {
      ::setenv(var, bad, 1);
      try {
        (void)api::run_fat_tree_sharded(cfg);
        ADD_FAILURE() << "no error for " << var << "=" << bad;
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(var), std::string::npos) << what;
        EXPECT_NE(what.find(std::string("\"") + bad + "\""),
                  std::string::npos)
            << what;
      }
    }
    ::unsetenv(var);
  }
}

// ---- flight dumps through the real ShardGroup ------------------------

struct CountingTask final : ShardTask {
  std::uint64_t events = 0;
  ShardTelemetry* tel = nullptr;
  std::size_t id = 0;
  void drain(TimePs start) override {
    if (tel != nullptr) tel->shard_drain(id, start, {});
  }
  void run(TimePs end) override {
    events += 2;
    if (tel != nullptr) tel->shard_run(id, end, events);
  }
};

struct ThrowingTask final : ShardTask {
  void drain(TimePs) override {}
  void run(TimePs window_end) override {
    if (window_end >= 30) {
      throw std::runtime_error("shard blew up at t=30");
    }
  }
};

std::string flight_dir_for(const char* test) {
  const auto dir =
      std::filesystem::temp_directory_path() / "hwatch_flight_test" / test;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ShardGroupFlightTest, DumpsOnShardException) {
  for (unsigned threads : {1u, 2u}) {
    const std::string dir = flight_dir_for("exception");
    ShardTelemetry::Config cfg = base_config(2);
    cfg.workers = threads;
    cfg.flight_dir = dir;
    cfg.label = "boom";
    ShardTelemetry tel(std::move(cfg));

    ShardGroup group(threads);
    CountingTask ok;
    ok.tel = &tel;
    ok.id = 0;
    ThrowingTask bad;
    group.add(&ok);
    group.add(&bad);
    group.set_telemetry(&tel);
    EXPECT_THROW(group.run(100, 10), std::runtime_error)
        << threads << " threads";

    const auto path = std::filesystem::path(dir) / "boom.flight.json";
    ASSERT_TRUE(std::filesystem::exists(path)) << threads << " threads";
    std::string err;
    const Json j = Json::parse(read_file(path), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(j.find("schema")->as_string(), "hwatch.shard_flight/v1");
    EXPECT_EQ(j.find("reason")->as_string(), "shard_exception");
    ASSERT_NE(j.find("error"), nullptr);
    EXPECT_NE(j.find("error")->as_string().find("shard blew up"),
              std::string::npos);
    std::filesystem::remove_all(dir);
  }
}

TEST(ShardGroupFlightTest, CreatesMissingFlightDirectories) {
  const std::string base = flight_dir_for("mkdirs");
  ShardTelemetry::Config cfg = base_config(1);
  // Two levels that don't exist yet: the dump must create them rather
  // than silently writing nothing.
  cfg.flight_dir = (std::filesystem::path(base) / "a" / "b").string();
  cfg.label = "nested";
  ShardTelemetry tel(std::move(cfg));
  tel.dump_flight("forced");
  const auto path =
      std::filesystem::path(base) / "a" / "b" / "nested.flight.json";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::string err;
  const Json j = Json::parse(read_file(path), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(j.find("reason")->as_string(), "forced");
  std::filesystem::remove_all(base);
}

TEST(ShardGroupFlightTest, UnwritableFlightDirThrowsNamingTheVariable) {
  const std::string base = flight_dir_for("unwritable");
  // A regular file where a directory is needed: create_directories can
  // neither traverse nor create through it.
  const auto blocker = std::filesystem::path(base) / "file";
  { std::ofstream(blocker) << "not a directory"; }
  const std::string bad_dir = (blocker / "sub").string();
  ShardTelemetry::Config cfg = base_config(1);
  cfg.flight_dir = bad_dir;
  cfg.label = "stuck";
  ShardTelemetry tel(std::move(cfg));
  try {
    tel.dump_flight("forced");
    FAIL() << "dump_flight must throw when the flight dir is unwritable";
  } catch (const std::runtime_error& e) {
    // The message must name the knob and the value so the operator can
    // fix the environment, not grep the source.
    const std::string what = e.what();
    EXPECT_NE(what.find("HWATCH_FLIGHT_DIR"), std::string::npos) << what;
    EXPECT_NE(what.find(bad_dir), std::string::npos) << what;
  }
  std::filesystem::remove_all(base);
}

struct SlowTask final : ShardTask {
  void drain(TimePs) override {}
  void run(TimePs) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
};

TEST(ShardGroupFlightTest, DumpsOnEpochBudgetOverrun) {
  const std::string dir = flight_dir_for("budget");
  ShardTelemetry::Config cfg = base_config(1);
  cfg.flight_dir = dir;
  cfg.label = "slow";
  cfg.epoch_budget_ms = 1;
  ShardTelemetry tel(std::move(cfg));

  ShardGroup group(1);
  SlowTask slow;
  group.add(&slow);
  group.set_telemetry(&tel);
  group.run(30, 10);  // 3 epochs of ~5 ms against a 1 ms budget

  const auto path = std::filesystem::path(dir) / "slow.flight.json";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::string err;
  const Json j = Json::parse(read_file(path), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(j.find("reason")->as_string(), "epoch_budget_exceeded");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hwatch::sim
