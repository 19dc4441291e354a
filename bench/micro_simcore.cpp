// Microbenchmarks of the simulator substrate (google-benchmark): event
// scheduling throughput, queue-discipline decision cost, checksum
// stamping/adjustment, and whole-scenario event rate.  These bound how
// large a datacenter the simulator can sweep per CPU-second.
#include <benchmark/benchmark.h>

#include <optional>

#include "api/scenario.hpp"
#include "net/checksum.hpp"
#include "net/queue.hpp"
#include "sim/context.hpp"
#include "sim/random.hpp"
#include "sim/incident_hooks.hpp"
#include "sim/scheduler.hpp"
#include "sim/self_profiler.hpp"
#include "sim/shard_group.hpp"
#include "sim/shard_telemetry.hpp"
#include "sim/trace_span.hpp"
#include "stats/incident.hpp"
#include "tcp/connection.hpp"
#include "topo/dumbbell.hpp"

using namespace hwatch;

namespace {

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    sim::Scheduler sched;
    std::uint64_t x = 123;
    std::int64_t sum = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      x = x * 6364136223846793005ull + 1;
      sched.schedule_at(static_cast<sim::TimePs>(x % 1'000'000),
                        [&sum] { ++sum; });
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1'000)->Arg(100'000);

void BM_SchedulerCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(sched.schedule_at(i + 1, [] {}));
    }
    for (auto id : ids) sched.cancel(id);
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerCancel);

/// Timer-wheel style churn: a rolling window of pending timers where
/// most are cancelled (rescheduled) before firing — the retransmission
/// and delayed-ack pattern that dominates TCP-heavy scenarios.  Stresses
/// slot recycling and stale-entry compaction rather than pure heap push.
void BM_SchedulerScheduleCancelChurn(benchmark::State& state) {
  constexpr int kWindow = 256;
  for (auto _ : state) {
    sim::Scheduler sched;
    sim::EventId window[kWindow] = {};
    std::uint64_t x = 99;
    for (int i = 0; i < 100'000; ++i) {
      x = x * 6364136223846793005ull + 1;
      const int slot = i % kWindow;
      if (window[slot].valid()) sched.cancel(window[slot]);
      window[slot] =
          sched.schedule_at(sched.now() + 1 + (x % 10'000), [] {});
      // Occasionally let time advance so due events actually fire.
      if (slot == 0) sched.run_until(sched.now() + 500);
    }
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_SchedulerScheduleCancelChurn);

/// Many independent SimContexts driven in sequence — the per-point cost
/// the SweepRunner pays; also proves context construction is cheap and
/// contexts don't interfere.
void BM_MultiContextSweep(benchmark::State& state) {
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (std::uint64_t p = 0; p < 8; ++p) {
      sim::SimContext ctx(sim::mix64(42, p));
      std::uint64_t fired = 0;
      for (int i = 0; i < 1'000; ++i) {
        ctx.scheduler().schedule_at(
            static_cast<sim::TimePs>(ctx.rng().uniform_int(0, 999'999)),
            [&fired] { ++fired; });
      }
      ctx.scheduler().run();
      total += fired + ctx.next_packet_uid();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 8 * 1'000);
}
BENCHMARK(BM_MultiContextSweep);

/// Steady-state link-hop cost, end to end: two hosts bounce a packet
/// over a duplex link, so every item is the full hop pipeline (agent
/// send -> qdisc enqueue/dequeue -> tx-complete event -> propagation
/// event -> delivery -> agent handler).  This is the path the
/// allocation-regression test pins at zero heap allocations; the rate
/// here is the ceiling on per-hop throughput.
void BM_LinkHopPingPong(benchmark::State& state) {
  sim::SimContext ctx(1);
  net::Network net(ctx);
  net::Host& a = net.add_host("a");
  net::Host& b = net.add_host("b");
  net.connect(a, b, sim::DataRate::gbps(10), sim::microseconds(2),
              net::make_droptail_factory(64));
  std::uint64_t hops = 0;
  auto bounce = [&net, &hops](net::Host& self, net::Packet&& p) {
    ++hops;
    std::swap(p.ip.src, p.ip.dst);
    std::swap(p.tcp.src_port, p.tcp.dst_port);
    p.uid = net.next_packet_uid();
    self.send(std::move(p));
  };
  a.bind(1, [&a, &bounce](net::Packet&& p) { bounce(a, std::move(p)); });
  b.bind(2, [&b, &bounce](net::Packet&& p) { bounce(b, std::move(p)); });
  net::Packet seed;
  seed.uid = net.next_packet_uid();
  seed.ip.src = a.id();
  seed.ip.dst = b.id();
  seed.tcp.src_port = 1;
  seed.tcp.dst_port = 2;
  seed.payload_bytes = 1442;
  a.send(std::move(seed));
  sim::Scheduler& sched = ctx.scheduler();
  sched.run_until(sched.now() + sim::milliseconds(1));  // warm-up
  const std::uint64_t hops_at_start = hops;
  for (auto _ : state) {
    sched.run_until(sched.now() + sim::milliseconds(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hops - hops_at_start));
}
BENCHMARK(BM_LinkHopPingPong);

net::Packet bench_packet() {
  net::Packet p;
  p.ip.src = 1;
  p.ip.dst = 2;
  p.ip.ecn = net::Ecn::kEct0;
  p.tcp.src_port = 1000;
  p.tcp.dst_port = 80;
  p.payload_bytes = 1442;
  return p;
}

template <typename MakeQueue>
void queue_churn(benchmark::State& state, MakeQueue make) {
  auto q = make();
  sim::TimePs now = 0;
  for (auto _ : state) {
    now += 1000;
    q->enqueue(bench_packet(), now);
    benchmark::DoNotOptimize(q->dequeue(now));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_DropTailChurn(benchmark::State& state) {
  queue_churn(state,
              [] { return std::make_unique<net::DropTailQueue>(250); });
}
BENCHMARK(BM_DropTailChurn);

void BM_DctcpStepChurn(benchmark::State& state) {
  queue_churn(state, [] {
    return std::make_unique<net::DctcpThresholdQueue>(250, 50);
  });
}
BENCHMARK(BM_DctcpStepChurn);

void BM_RedChurn(benchmark::State& state) {
  queue_churn(state, [] {
    net::RedConfig cfg;
    cfg.min_th_pkts = 50;
    cfg.max_th_pkts = 150;
    return std::make_unique<net::RedQueue>(250, cfg);
  });
}
BENCHMARK(BM_RedChurn);

void BM_ChecksumStamp(benchmark::State& state) {
  net::Packet p = bench_packet();
  for (auto _ : state) {
    net::stamp_checksum(p);
    benchmark::DoNotOptimize(p.tcp.checksum);
    ++p.tcp.seq;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChecksumStamp);

void BM_ChecksumIncrementalAdjust(benchmark::State& state) {
  net::Packet p = bench_packet();
  net::stamp_checksum(p);
  std::uint16_t w = 100;
  for (auto _ : state) {
    const std::uint16_t next = static_cast<std::uint16_t>(w + 7);
    p.tcp.checksum = net::checksum_adjust(p.tcp.checksum, w, next);
    w = next;
    benchmark::DoNotOptimize(p.tcp.checksum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChecksumIncrementalAdjust);

/// Whole-stack event rate: a small dumbbell scenario; reports simulated
/// events per wall second.  `collect_metrics` toggles the observability
/// subsystem, so comparing the two arguments measures the full cost of
/// metrics collection (registry, gauges, sampler, manifest build) —
/// and Arg(0) vs the pre-observability baseline bounds the disabled
/// overhead the acceptance criterion caps at 2%.
void BM_ScenarioEventRate(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    api::DumbbellScenarioConfig cfg;
    cfg.pairs = 8;
    cfg.core_aqm.kind = api::AqmKind::kDctcpStep;
    cfg.edge_aqm = cfg.core_aqm;
    tcp::TcpConfig t;
    t.ecn = tcp::EcnMode::kDctcp;
    cfg.long_groups = {{tcp::Transport::kDctcp, t, 8, "dctcp"}};
    cfg.incast.epochs = 0;
    cfg.duration = sim::milliseconds(10);
    cfg.collect_metrics = state.range(0) != 0;
    api::ScenarioResults res = api::run_dumbbell(cfg);
    events += res.events_executed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ScenarioEventRate)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---- observability overhead (disabled path) -------------------------
//
// The contract is "one predictable branch per hot-path hit when the
// registry is disabled".  These benches pin that down at the two
// granularities that matter: a raw instrument bump, and the queue
// enqueue/dequeue cycle with a depth histogram attached.

void BM_MetricsCounterInc(benchmark::State& state) {
  sim::MetricsRegistry reg;
  reg.set_enabled(state.range(0) != 0);
  sim::Counter& c = reg.counter("bench.counter");
  for (auto _ : state) {
    c.inc();
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterInc)->Arg(0)->Arg(1);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  sim::MetricsRegistry reg;
  reg.set_enabled(state.range(0) != 0);
  sim::Histogram& h = reg.histogram(
      "bench.hist", sim::Histogram::linear_bounds(0, 10, 26));
  double v = 0;
  for (auto _ : state) {
    h.record(v);
    v = v < 250 ? v + 1 : 0;
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramRecord)->Arg(0)->Arg(1);

/// Span-tracer hooks on the disabled path: the contract is the same as
/// the registry's — one predictable branch per hook, no allocation, no
/// hashing.  Arg(0) = disabled (what every default run pays at each
/// instrumented site), Arg(1) = enabled (record into the event buffer;
/// the buffer is drained each iteration block so it never hits the cap).
void BM_SpanTracerHooks(benchmark::State& state) {
  sim::SpanTracer tr;
  tr.set_enabled(state.range(0) != 0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::uint64_t id =
        tr.begin_span(static_cast<sim::TimePs>(i), sim::SpanKind::kRecovery,
                      1, 1, i);
    tr.add_latency(id, sim::LatencyComponent::kQueueing,
                   static_cast<sim::TimePs>(i % 1'000'000));
    tr.end_span(static_cast<sim::TimePs>(i + 1), id);
    benchmark::DoNotOptimize(id);
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_SpanTracerHooks)->Arg(0)->Arg(1);

/// Incident-detector hooks follow the same discipline: every site in
/// the packet path is `if (sink = ctx.incidents())`, so a run without
/// detection pays one predictable null-pointer branch per hook and
/// nothing else — no virtual call, no allocation.  Arg(0) pins that
/// disabled path; Arg(1) attaches a stats::IncidentDetector and pays
/// the dispatch plus episode bookkeeping (the depth ramp opens and
/// closes a queue episode every 64 iterations; sub-threshold episodes
/// are discarded, so state stays bounded).
void BM_IncidentHooks(benchmark::State& state) {
  sim::SimContext ctx(1);
  stats::IncidentDetector doctor;
  std::uint32_t q = 0;
  if (state.range(0) != 0) {
    q = doctor.register_queue("bench.q", 64);
    ctx.set_incident_sink(&doctor);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    if (sim::IncidentSink* sink = ctx.incidents()) {
      sink->on_queue_depth(q, i % 64, static_cast<sim::TimePs>(i));
      sink->on_flow_progress(1, 2, static_cast<sim::TimePs>(i),
                             sim::microseconds(100));
    }
    benchmark::DoNotOptimize(ctx);
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_IncidentHooks)->Arg(0)->Arg(1);

/// Flow-span lookup links do per traced packet (disabled: the enabled()
/// guard in the caller makes this free; this bench isolates the lookup
/// itself for the enabled path).
void BM_SpanTracerFlowLookup(benchmark::State& state) {
  sim::SpanTracer tr;
  tr.set_enabled(true);
  for (std::uint64_t f = 0; f < 64; ++f) {
    const std::uint64_t id = tr.begin_span(0, sim::SpanKind::kFlow, 0, 0);
    tr.register_flow(f, f << 16, id);
  }
  std::uint64_t f = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tr.flow_span_of(f, f << 16));
    f = (f + 1) % 64;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanTracerFlowLookup);

/// ProfScope on the disabled path: one branch at construction, one at
/// destruction, no clock read.  Arg(1) shows the two steady_clock reads
/// the enabled path pays per handler.
void BM_ProfScope(benchmark::State& state) {
  sim::SelfProfiler prof;
  prof.set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    sim::ProfScope scope(prof, sim::ProfComponent::kTcpSender);
    benchmark::DoNotOptimize(prof);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfScope)->Arg(0)->Arg(1);

/// DropTail churn with a depth histogram attached: Arg(0) = registry
/// disabled (the branch-only path every default run takes once a
/// histogram is wired), Arg(1) = enabled (binary search + bump).
/// Compare against BM_DropTailChurn for the no-histogram baseline.
void BM_DropTailChurnWithHistogram(benchmark::State& state) {
  sim::MetricsRegistry reg;
  reg.set_enabled(state.range(0) != 0);
  net::DropTailQueue q(250);
  q.attach_depth_histogram(&reg.histogram(
      "bench.depth", sim::Histogram::linear_bounds(0, 10, 26)));
  sim::TimePs now = 0;
  for (auto _ : state) {
    now += 1000;
    q.enqueue(bench_packet(), now);
    benchmark::DoNotOptimize(q.dequeue(now));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DropTailChurnWithHistogram)->Arg(0)->Arg(1);

/// ShardGroup epoch loop with the telemetry hooks detached (Arg 0) vs
/// attached with deterministic counters only (Arg 1).  The contract for
/// the detached path is ONE predictable branch per hook site — no call,
/// no clock read, no allocation — so Arg(0) must match the
/// pre-telemetry epoch cost; Arg(1) bounds what the counter plane adds
/// per (epoch x shard).  Tasks are no-ops: the measurement isolates the
/// coordinator + hook overhead, not simulated work.
void BM_ShardGroupEpochs(benchmark::State& state) {
  constexpr std::size_t kShards = 8;
  struct NoopTask final : sim::ShardTask {
    sim::ShardTelemetry* telemetry = nullptr;
    std::size_t shard_id = 0;
    std::uint64_t events = 0;
    void drain(sim::TimePs start) override {
      if (telemetry != nullptr) {
        telemetry->shard_drain(shard_id, start, {});
      }
    }
    void run(sim::TimePs end) override {
      ++events;
      if (telemetry != nullptr) {
        telemetry->shard_run(shard_id, end, events);
      }
    }
  };
  const bool attached = state.range(0) != 0;
  std::uint64_t epochs = 0;
  for (auto _ : state) {
    std::optional<sim::ShardTelemetry> tel;
    if (attached) {
      sim::ShardTelemetry::Config tc;
      tc.shard_count = kShards;
      tc.label = "bench";
      tel.emplace(std::move(tc));
    }
    sim::ShardGroup group(1);
    NoopTask tasks[kShards];
    for (std::size_t s = 0; s < kShards; ++s) {
      tasks[s].telemetry = tel ? &*tel : nullptr;
      tasks[s].shard_id = s;
      group.add(&tasks[s]);
    }
    group.set_telemetry(tel ? &*tel : nullptr);
    group.run(1'000'000, 100);  // 10k epochs x 8 shards
    epochs += group.epochs();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(epochs * kShards));
}
BENCHMARK(BM_ShardGroupEpochs)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
