// ShardGroup epoch protocol: the drain/run call sequence each task sees
// must be a pure function of (horizon, window, pending event times) —
// identical whether the group runs sequentially or across worker
// threads, resumable across run() calls, and with errors from any shard
// rethrown to the caller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/json.hpp"
#include "sim/shard_group.hpp"
#include "sim/shard_telemetry.hpp"
#include "sim/time.hpp"

namespace hwatch::sim {
namespace {

struct RecordingTask final : ShardTask {
  struct Call {
    char phase;  // 'd' = drain, 'r' = run
    TimePs t;
    friend bool operator==(const Call&, const Call&) = default;
  };
  std::vector<Call> calls;

  void drain(TimePs window_start) override {
    calls.push_back({'d', window_start});
  }
  void run(TimePs window_end) override { calls.push_back({'r', window_end}); }
};

TEST(ShardGroupTest, SequentialWindowsClampAtHorizon) {
  ShardGroup g(1);
  RecordingTask a;
  RecordingTask b;
  g.add(&a);
  g.add(&b);
  g.run(100, 30);
  // Windows (0,30] (30,60] (60,90] (90,100]: the last clamps to the
  // horizon instead of overshooting it.
  const std::vector<RecordingTask::Call> expect = {
      {'d', 0},  {'r', 30}, {'d', 30}, {'r', 60},
      {'d', 60}, {'r', 90}, {'d', 90}, {'r', 100},
  };
  EXPECT_EQ(a.calls, expect);
  EXPECT_EQ(b.calls, expect);
  EXPECT_EQ(g.epochs(), 4u);
}

TEST(ShardGroupTest, ParallelSeesSameCallSequence) {
  ShardGroup seq(1);
  ShardGroup par(3);
  std::vector<RecordingTask> st(4);
  std::vector<RecordingTask> pt(4);
  for (auto& t : st) seq.add(&t);
  for (auto& t : pt) par.add(&t);
  seq.run(sim::microseconds(1), 70);
  par.run(sim::microseconds(1), 70);
  EXPECT_EQ(seq.epochs(), par.epochs());
  for (std::size_t i = 0; i < st.size(); ++i) {
    EXPECT_EQ(pt[i].calls, st[i].calls) << "shard " << i;
  }
}

TEST(ShardGroupTest, ThreadsAboveShardCountStillAgree) {
  ShardGroup seq(1);
  ShardGroup par(16);  // clamped to the 2 registered shards
  RecordingTask s0, s1, p0, p1;
  seq.add(&s0);
  seq.add(&s1);
  par.add(&p0);
  par.add(&p1);
  seq.run(90, 40);
  par.run(90, 40);
  EXPECT_EQ(p0.calls, s0.calls);
  EXPECT_EQ(p1.calls, s1.calls);
  EXPECT_EQ(par.threads(), 16u);  // the accessor reports the request
}

TEST(ShardGroupTest, ResumesFromPreviousHorizon) {
  ShardGroup g(1);
  RecordingTask t;
  g.add(&t);
  g.run(50, 30);
  EXPECT_EQ(g.epochs(), 2u);
  g.run(100, 30);  // resumes at 50, not at 0
  const std::vector<RecordingTask::Call> expect = {
      {'d', 0},  {'r', 30}, {'d', 30}, {'r', 50},
      {'d', 50}, {'r', 80}, {'d', 80}, {'r', 100},
  };
  EXPECT_EQ(t.calls, expect);
  EXPECT_EQ(g.epochs(), 4u);

  // A horizon at or before the reached time is a no-op.
  g.run(100, 30);
  g.run(60, 30);
  EXPECT_EQ(t.calls.size(), expect.size());
  EXPECT_EQ(g.epochs(), 4u);
}

TEST(ShardGroupTest, RejectsBadArguments) {
  ShardGroup g(2);
  EXPECT_THROW(g.add(nullptr), std::invalid_argument);
  RecordingTask t;
  g.add(&t);
  EXPECT_THROW(g.run(100, 0), std::invalid_argument);
  EXPECT_THROW(g.run(100, -5), std::invalid_argument);
  EXPECT_TRUE(t.calls.empty());  // nothing ran
}

struct ThrowingTask final : ShardTask {
  void drain(TimePs) override {}
  void run(TimePs window_end) override {
    if (window_end >= 60) throw std::runtime_error("shard blew up");
  }
};

TEST(ShardGroupTest, SequentialRethrowsTaskError) {
  ShardGroup g(1);
  ThrowingTask bad;
  g.add(&bad);
  EXPECT_THROW(g.run(100, 30), std::runtime_error);
}

TEST(ShardGroupTest, ParallelRethrowsTaskError) {
  ShardGroup g(2);
  RecordingTask ok;
  ThrowingTask bad;
  g.add(&ok);
  g.add(&bad);
  // Workers keep arriving at the barriers after a failure, so this must
  // rethrow rather than deadlock.
  EXPECT_THROW(g.run(100, 30), std::runtime_error);
}

// With a 1-ps window, epoch k (counting from 1) runs through t = k.
struct FailsInEpochSixTask final : ShardTask {
  void drain(TimePs) override {}
  void run(TimePs window_end) override {
    if (window_end == 6) throw std::runtime_error("epoch 6 failed");
  }
};

// Every worker leaves the epoch loop at the first failure instead of
// walking the remaining windows with stale state: the group, the shard
// calls and the wall-clock worker timeline all end at the failing epoch.
TEST(ShardGroupTest, StopsAtTheFirstFailure) {
  for (unsigned threads : {1u, 2u}) {
    ShardTelemetry::Config cfg;
    cfg.shard_count = 2;
    cfg.workers = threads;
    cfg.label = "stop";
    cfg.wall_spans = true;
    ShardTelemetry tel(std::move(cfg));
    ShardGroup g(threads);
    RecordingTask ok;
    FailsInEpochSixTask bad;
    g.add(&ok);
    g.add(&bad);
    g.set_telemetry(&tel);
    EXPECT_THROW(g.run(2000, 1), std::runtime_error) << threads;
    EXPECT_EQ(g.epochs(), 5u) << threads;
    // The healthy shard sees no window past the failing one (its own
    // run of that window may or may not happen first).
    ASSERT_FALSE(ok.calls.empty());
    EXPECT_LE(ok.calls.size(), 12u) << threads;
    EXPECT_LE(ok.calls.back().t, 6) << threads;

    std::ostringstream os;
    tel.export_chrome_workers(os, "stop");
    std::string err;
    const Json doc = Json::parse(os.str(), &err);
    ASSERT_TRUE(err.empty()) << err;
    std::uint64_t spans = 0, last_epoch = 0;
    for (const Json& e : doc.find("traceEvents")->items()) {
      const Json* args = e.find("args");
      const Json* epoch = args != nullptr ? args->find("epoch") : nullptr;
      if (epoch == nullptr) continue;
      ++spans;
      last_epoch = std::max(last_epoch, epoch->as_uint());
    }
    // Epochs 0..5 in the timeline's numbering; at most drain, barrier
    // and run spans for each, per worker.
    EXPECT_EQ(last_epoch, 5u) << threads;
    EXPECT_LE(spans, 6u * 4u * threads) << threads;
  }
}

// A shard with a fixed set of pending event times.  run(end) executes
// every event <= end and records (window end, event time); with
// `report` false it keeps the default next_event_time(), so the group
// may never skip a window.
struct SparseTask final : ShardTask {
  using Call = RecordingTask::Call;
  struct Executed {
    TimePs window_end;
    TimePs time;
    friend bool operator==(const Executed&, const Executed&) = default;
  };

  SparseTask(std::vector<TimePs> times, bool report)
      : pending(std::move(times)), report(report) {}

  std::vector<TimePs> pending;  // ascending
  bool report;
  std::size_t cursor = 0;
  std::vector<Call> calls;
  std::vector<Executed> executed;

  void drain(TimePs window_start) override {
    calls.push_back({'d', window_start});
  }
  TimePs next_event_time() override {
    if (!report) return ShardTask::next_event_time();
    return cursor < pending.size() ? pending[cursor] : kTimeNever;
  }
  void run(TimePs window_end) override {
    calls.push_back({'r', window_end});
    for (; cursor < pending.size() && pending[cursor] <= window_end;
         ++cursor) {
      executed.push_back({window_end, pending[cursor]});
    }
  }
};

// Pending times for four shards: three of the 100-ps windows up to the
// horizon 1000 hold an event — (100,200], (300,400] and (700,800] —
// plus one event past the horizon.
std::vector<std::vector<TimePs>> sparse_times() {
  return {{150, 400}, {}, {310, 1500}, {800}};
}

std::vector<std::unique_ptr<SparseTask>> sparse_tasks(ShardGroup& g,
                                                      bool report) {
  std::vector<std::unique_ptr<SparseTask>> tasks;
  for (std::vector<TimePs>& times : sparse_times()) {
    tasks.push_back(std::make_unique<SparseTask>(std::move(times), report));
    g.add(tasks.back().get());
  }
  return tasks;
}

TEST(ShardGroupTest, SkipsWindowsWithoutEvents) {
  ShardGroup g(1);
  const auto tasks = sparse_tasks(g, true);
  g.run(1000, 100);
  // One epoch per busy window — each opens where the previous one
  // closed and runs through the idle windows before it — plus the
  // closing run to the horizon (the 1500 event lies past it).
  const std::vector<SparseTask::Call> expect = {
      {'d', 0},   {'r', 200}, {'d', 200}, {'r', 400},
      {'d', 400}, {'r', 800}, {'d', 800}, {'r', 1000},
  };
  for (const auto& t : tasks) EXPECT_EQ(t->calls, expect);
  EXPECT_EQ(g.epochs(), 4u);
}

TEST(ShardGroupTest, SkipRunsBusyWindowsAsTheDefaultDoes) {
  ShardGroup skip(1);
  ShardGroup step(1);
  const auto skipping = sparse_tasks(skip, true);
  const auto stepping = sparse_tasks(step, false);
  skip.run(1000, 100);
  step.run(1000, 100);
  EXPECT_EQ(step.epochs(), 10u);  // the default never skips
  std::size_t ran = 0;
  for (std::size_t i = 0; i < skipping.size(); ++i) {
    // Every event runs in the same grid window either way.
    EXPECT_EQ(skipping[i]->executed, stepping[i]->executed) << "shard " << i;
    // Each busy window's run end is a run end of the stepping group,
    // and each skipping epoch opens where the previous one closed.
    const std::vector<SparseTask::Call>& calls = skipping[i]->calls;
    TimePs last = 0;
    for (std::size_t c = 0; c < calls.size(); c += 2) {
      EXPECT_EQ(calls[c], (SparseTask::Call{'d', last}));
      last = calls[c + 1].t;
      const auto& ref = stepping[i]->calls;
      EXPECT_NE(std::find(ref.begin(), ref.end(),
                          SparseTask::Call{'r', last}),
                ref.end());
    }
    ran += skipping[i]->executed.size();
  }
  EXPECT_EQ(ran, 4u);  // 1500 stays pending
}

TEST(ShardGroupTest, SkippingIsTheSameAcrossWorkerCounts) {
  ShardGroup seq(1);
  const auto st = sparse_tasks(seq, true);
  seq.run(1000, 100);
  for (const unsigned workers : {2u, 4u}) {
    ShardGroup par(workers);
    const auto pt = sparse_tasks(par, true);
    par.run(1000, 100);
    EXPECT_EQ(par.epochs(), seq.epochs()) << workers << " workers";
    for (std::size_t i = 0; i < st.size(); ++i) {
      EXPECT_EQ(pt[i]->calls, st[i]->calls)
          << workers << " workers, shard " << i;
      EXPECT_EQ(pt[i]->executed, st[i]->executed)
          << workers << " workers, shard " << i;
    }
  }
}

TEST(ShardGroupTest, EventPastTheHorizonStillRunsToTheHorizon) {
  for (const unsigned workers : {1u, 2u}) {
    ShardGroup g(workers);
    SparseTask a({5000}, true);
    SparseTask b({}, true);
    g.add(&a);
    g.add(&b);
    g.run(1000, 100);
    const std::vector<SparseTask::Call> expect = {{'d', 0}, {'r', 1000}};
    EXPECT_EQ(a.calls, expect) << workers << " workers";
    EXPECT_EQ(b.calls, expect) << workers << " workers";
    EXPECT_TRUE(a.executed.empty());
    EXPECT_EQ(g.epochs(), 1u);
  }
}

TEST(ShardGroupTest, SkippingResumesFromPreviousHorizon) {
  for (const unsigned workers : {1u, 2u}) {
    ShardGroup g(workers);
    SparseTask a({120, 950}, true);
    SparseTask b({}, true);
    g.add(&a);
    g.add(&b);
    g.run(500, 100);
    g.run(1000, 100);  // a new grid from 500: 950 is in (900,1000]
    const std::vector<SparseTask::Call> expect = {
        {'d', 0},   {'r', 200},  {'d', 200}, {'r', 500},
        {'d', 500}, {'r', 1000},
    };
    EXPECT_EQ(a.calls, expect) << workers << " workers";
    const std::vector<SparseTask::Executed> ran = {{200, 120}, {1000, 950}};
    EXPECT_EQ(a.executed, ran) << workers << " workers";
    EXPECT_EQ(g.epochs(), 3u);
  }
}

TEST(ShardGroupTest, EmptyGroupAdvancesTime) {
  ShardGroup g(4);
  g.run(100, 30);
  EXPECT_EQ(g.epochs(), 0u);
  EXPECT_EQ(g.shard_count(), 0u);
}

}  // namespace
}  // namespace hwatch::sim
