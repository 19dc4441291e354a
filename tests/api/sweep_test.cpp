// SweepRunner tests: per-point seeding, ordered result collection, and
// the determinism contract — results must be identical whether points
// run serially or across a thread pool, because each point runs on its
// own SimContext with zero shared mutable state.
#include "api/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "api/run.hpp"
#include "api/scenario.hpp"
#include "sim/random.hpp"

namespace hwatch::api {
namespace {

tcp::TcpConfig quick_tcp() {
  tcp::TcpConfig t;
  t.min_rto = sim::milliseconds(50);
  t.initial_rto = sim::milliseconds(50);
  t.ecn = tcp::EcnMode::kDctcp;
  return t;
}

/// Small, fast dumbbell point (mirrors scenario_test's miniature).
DumbbellScenarioConfig small_point(std::uint64_t seed) {
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
  cfg.seed = seed;
  return cfg;
}

/// Field-by-field comparison of two scenario results; EXPECTs on every
/// mismatch so failures name the diverging quantity.
void expect_identical(const ScenarioResults& a, const ScenarioResults& b) {
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.fabric_drops, b.fabric_drops);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.timeouts, b.timeouts);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].bytes, b.records[i].bytes) << i;
    EXPECT_EQ(a.records[i].completed, b.records[i].completed) << i;
    EXPECT_EQ(a.records[i].start_time, b.records[i].start_time) << i;
    EXPECT_EQ(a.records[i].fct, b.records[i].fct) << i;
    EXPECT_EQ(a.records[i].retransmits, b.records[i].retransmits) << i;
    EXPECT_EQ(a.records[i].timeouts, b.records[i].timeouts) << i;
    EXPECT_DOUBLE_EQ(a.records[i].goodput_bps, b.records[i].goodput_bps)
        << i;
  }
  ASSERT_EQ(a.queue_packets.size(), b.queue_packets.size());
  for (std::size_t i = 0; i < a.queue_packets.size(); ++i) {
    EXPECT_EQ(a.queue_packets[i].time, b.queue_packets[i].time) << i;
    EXPECT_DOUBLE_EQ(a.queue_packets[i].value, b.queue_packets[i].value)
        << i;
  }
}

TEST(DerivePointSeedTest, DistinctPerIndexAndBase) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 20ull, 0xdeadbeefull}) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      seen.insert(sim::mix64(base, i));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 64u);  // no collisions across the grid
  // Stable: the same pair always derives the same seed, and the
  // constants are splitmix64's (its first output from state 0).
  EXPECT_EQ(sim::mix64(20, 3), sim::mix64(20, 3));
  EXPECT_EQ(sim::mix64(0, 0), 0xe220a8397b1dcdafull);
}

TEST(SweepRunnerTest, DefaultsToHardwareConcurrency) {
  EXPECT_GE(SweepRunner().threads(), 1u);
  EXPECT_EQ(SweepRunner(3).threads(), 3u);
}

TEST(SweepRunnerTest, RunsEveryPointInOrder) {
  std::vector<DumbbellScenarioConfig> points;
  for (std::uint64_t s : {3ull, 4ull, 5ull}) points.push_back(small_point(s));
  const auto results = SweepRunner(2).run(points);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_GT(r.events_executed, 1000u);
    EXPECT_EQ(r.records.size(), 4u + 4u * 2u);
  }
  // Per-point results match an individually-run scenario (order kept).
  for (std::size_t i = 0; i < points.size(); ++i) {
    expect_identical(results[i], run_dumbbell(points[i]));
  }
}

TEST(SweepRunnerTest, SameSeedTwiceIsByteIdentical) {
  const ScenarioResults a = run_dumbbell(small_point(7));
  const ScenarioResults b = run_dumbbell(small_point(7));
  expect_identical(a, b);
}

TEST(SweepRunnerTest, ThreadCountDoesNotChangeResults) {
  std::vector<DumbbellScenarioConfig> points;
  for (std::uint64_t s : {11ull, 12ull, 13ull, 14ull, 15ull}) {
    points.push_back(small_point(s));
  }
  const auto serial = SweepRunner(1).run(points);
  const auto threaded = SweepRunner(4).run(points);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i], threaded[i]);
  }
}

TEST(SweepRunnerTest, PropagatesExceptions) {
  std::vector<DumbbellScenarioConfig> points(3, small_point(9));
  points[1].pairs = 4;  // oversubscribed: 8 sources into 4 pairs -> throw
  EXPECT_THROW(SweepRunner(2).run(points), std::invalid_argument);
  EXPECT_THROW(SweepRunner(1).run(points), std::invalid_argument);
}

TEST(SweepRunnerTest, EmptySweepReturnsEmpty) {
  EXPECT_TRUE(SweepRunner(4)
                  .run(std::vector<DumbbellScenarioConfig>{})
                  .empty());
}

/// RAII helper: sets HWATCH_SWEEP_THREADS for one test and restores the
/// previous value on exit.
class ThreadsEnvGuard {
 public:
  explicit ThreadsEnvGuard(const char* value) {
    const char* old = std::getenv(kVar);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(kVar, value, /*overwrite=*/1);
    } else {
      ::unsetenv(kVar);
    }
  }
  ~ThreadsEnvGuard() {
    if (had_) {
      ::setenv(kVar, saved_.c_str(), 1);
    } else {
      ::unsetenv(kVar);
    }
  }

 private:
  static constexpr const char* kVar = "HWATCH_SWEEP_THREADS";
  std::string saved_;
  bool had_ = false;
};

TEST(ThreadsFromEnvTest, UnsetOrEmptyMeansAuto) {
  {
    ThreadsEnvGuard guard(nullptr);
    EXPECT_EQ(SweepRunner::threads_from_env(), 0u);
  }
  {
    ThreadsEnvGuard guard("");
    EXPECT_EQ(SweepRunner::threads_from_env(), 0u);
  }
}

TEST(ThreadsFromEnvTest, ParsesPositiveIntegers) {
  {
    ThreadsEnvGuard guard("1");
    EXPECT_EQ(SweepRunner::threads_from_env(), 1u);
  }
  {
    ThreadsEnvGuard guard("16");
    EXPECT_EQ(SweepRunner::threads_from_env(), 16u);
  }
}

TEST(ThreadsFromEnvTest, RejectsZero) {
  ThreadsEnvGuard guard("0");
  EXPECT_THROW(SweepRunner::threads_from_env(), std::invalid_argument);
}

TEST(ThreadsFromEnvTest, RejectsNonNumeric) {
  for (const char* bad : {"four", "x4", "--2", "nan"}) {
    ThreadsEnvGuard guard(bad);
    EXPECT_THROW(SweepRunner::threads_from_env(), std::invalid_argument)
        << bad;
  }
}

TEST(ThreadsFromEnvTest, RejectsNegative) {
  ThreadsEnvGuard guard("-3");
  EXPECT_THROW(SweepRunner::threads_from_env(), std::invalid_argument);
}

TEST(ThreadsFromEnvTest, RejectsTrailingJunk) {
  for (const char* bad : {"4x", "4 threads", "4.5"}) {
    ThreadsEnvGuard guard(bad);
    EXPECT_THROW(SweepRunner::threads_from_env(), std::invalid_argument)
        << bad;
  }
}

TEST(ThreadsFromEnvTest, RejectsOutOfRange) {
  ThreadsEnvGuard guard("99999999999999999999");
  EXPECT_THROW(SweepRunner::threads_from_env(), std::invalid_argument);
}

TEST(ThreadsFromEnvTest, ErrorMessageNamesVariableAndValue) {
  ThreadsEnvGuard guard("banana");
  try {
    SweepRunner::threads_from_env();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("HWATCH_SWEEP_THREADS"), std::string::npos);
    EXPECT_NE(what.find("banana"), std::string::npos);
    EXPECT_NE(what.find("positive integer"), std::string::npos);
  }
}

/// The boolean flags (HWATCH_PROGRESS, HWATCH_PROFILE, HWATCH_INCIDENTS,
/// HWATCH_FLIGHT_DUMP) are strict: "" and "0" are off, "1" is on, and
/// anything else is an error naming the variable and the value, not a
/// silent "on".
TEST(EnvFlagTest, StrictBooleanValues) {
  const char* var = "HWATCH_PROGRESS";
  ::unsetenv(var);
  EXPECT_FALSE(detail::env_flag(var));
  ::setenv(var, "", 1);
  EXPECT_FALSE(detail::env_flag(var));
  ::setenv(var, "0", 1);
  EXPECT_FALSE(detail::env_flag(var));
  ::setenv(var, "1", 1);
  EXPECT_TRUE(detail::env_flag(var));
  for (const char* bad : {"no", "yes", "true", "off", "2", "01", " 1"}) {
    ::setenv(var, bad, 1);
    try {
      (void)detail::env_flag(var);
      ADD_FAILURE() << "no error for " << var << "=" << bad;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(var), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("\"") + bad + "\""),
                std::string::npos)
          << what;
    }
  }
  // A sweep reads HWATCH_PROGRESS before it runs any point.
  ::setenv(var, "no", 1);
  EXPECT_THROW(SweepRunner(1).run(std::vector<DumbbellScenarioConfig>(
                   1, small_point(3))),
               std::invalid_argument);
  ::unsetenv(var);
}

}  // namespace
}  // namespace hwatch::api
