// Micro perf gate: the three simulator-substrate hot loops whose
// regressions historically hid inside scenario noise — raw
// schedule/run throughput, schedule/cancel timer churn, and the
// qdisc enqueue/dequeue decision — run as plain timed loops and
// reported as hwatch.bench/v1 JSON so scripts/check_perf.py ratchets
// them like the figure benches.  (micro_simcore stays the exploration
// tool: google-benchmark output is a foreign format the gate skips.)
//
// Each micro runs a fixed op count per repetition and reports the best
// repetition's rate: the best-of filter rejects scheduler-noise
// outliers on shared CI runners, and the fixed `events` count keeps the
// baseline's event-drift note meaningful.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace hwatch;
using Clock = std::chrono::steady_clock;

std::uint64_t g_sink = 0;  // defeats dead-code elimination

/// 100k schedules at pseudo-random near-horizon times, then run():
/// the wheel's insert/extract fast path.
std::uint64_t schedule_run() {
  sim::Scheduler sched;
  std::uint64_t x = 123;
  std::uint64_t sum = 0;
  for (int i = 0; i < 100'000; ++i) {
    x = x * 6364136223846793005ull + 1;
    sched.schedule_at(static_cast<sim::TimePs>(x % 1'000'000),
                      [&sum] { ++sum; });
  }
  sched.run();
  return sum;
}

/// Rolling window of 256 pending timers, most cancelled before firing —
/// the RTO/delayed-ack pattern; stresses slot recycling and stale-entry
/// compaction across the wheel/heap split.
std::uint64_t cancel_churn() {
  constexpr int kWindow = 256;
  sim::Scheduler sched;
  sim::EventId window[kWindow] = {};
  std::uint64_t x = 99;
  for (int i = 0; i < 100'000; ++i) {
    x = x * 6364136223846793005ull + 1;
    const int slot = i % kWindow;
    if (window[slot].valid()) sched.cancel(window[slot]);
    window[slot] = sched.schedule_at(sched.now() + 1 + (x % 10'000), [] {});
    if (slot == 0) sched.run_until(sched.now() + 500);
  }
  sched.run();
  return sched.executed();
}

/// 1M enqueue/dequeue pairs through a DropTail qdisc — the per-packet
/// decision and pool-block cost every hop pays before transmission.
std::uint64_t droptail_churn() {
  net::DropTailQueue q(250);
  net::Packet p;
  p.ip.src = 1;
  p.ip.dst = 2;
  p.tcp.src_port = 1000;
  p.tcp.dst_port = 80;
  p.payload_bytes = 1442;
  sim::TimePs now = 0;
  std::uint64_t delivered = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    now += 1000;
    net::Packet copy = p;
    q.enqueue(std::move(copy), now);
    if (q.dequeue(now)) ++delivered;
  }
  return delivered;
}

struct Micro {
  const char* name;
  std::uint64_t ops;
  std::uint64_t (*fn)();
};

struct Result {
  const Micro* micro;
  double best_wall_s = 0;
};

}  // namespace

int main() {
  // Per-micro wall budget.  HWATCH_BENCH_DURATION_MS (the CI smoke
  // knob) scales it the same way it shortens the figure benches.
  long budget_ms = 500;
  if (const char* ms = std::getenv("HWATCH_BENCH_DURATION_MS")) {
    budget_ms = std::max(5 * std::atol(ms), 20L);
  }

  const Micro micros[] = {
      {"micro_schedule_run", 100'000, schedule_run},
      {"micro_cancel_churn", 100'000, cancel_churn},
      {"micro_droptail_churn", 1'000'000, droptail_churn},
  };

  std::vector<Result> results;
  for (const Micro& m : micros) {
    g_sink += m.fn();  // warm-up repetition, untimed
    double best = 0;
    const Clock::time_point start = Clock::now();
    int reps = 0;
    do {
      const Clock::time_point t0 = Clock::now();
      g_sink += m.fn();
      const double wall =
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (best == 0 || wall < best) best = wall;
      ++reps;
    } while (std::chrono::duration<double, std::milli>(Clock::now() - start)
                     .count() < static_cast<double>(budget_ms));
    results.push_back({&m, best});
    std::cout << m.name << ": "
              << static_cast<double>(m.ops) / best / 1e6
              << "M ops/s (best of " << reps << " reps)\n";
  }

  double total_wall = 0;
  std::vector<bench::ReportPoint> points;
  for (const Result& r : results) {
    const bench::ReportPoint point{r.micro->name, r.micro->ops};
    bench::write_bench_report(r.micro->name, {point}, r.best_wall_s);
    total_wall += r.best_wall_s;
    points.push_back(point);
  }
  // Combined roll-up: one headline number for the substrate trajectory.
  bench::write_bench_report("micro", points, total_wall);
  if (g_sink == 42) std::cout << "";  // keep g_sink observable
  return 0;
}
