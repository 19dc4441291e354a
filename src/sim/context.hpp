// SimContext — everything one simulation instance owns.
//
// A SimContext bundles the mutable engine state that used to be plumbed
// ad hoc through the layers: the event scheduler, the root RNG, the
// packet-UID counter (trace identity), and the log sink.  Every object
// of a scenario (Network, links, hosts, transports, the HWatch shim,
// samplers) hangs off exactly one context, so two contexts share zero
// mutable state and whole simulations can run concurrently on different
// threads — the property SweepRunner builds on.
//
// Determinism contract: a (scenario config, seed) pair fully determines
// the event trace.  All randomness flows from rng() / fork_rng(), event
// ordering is FIFO at equal timestamps, and packet UIDs are allocated
// from the per-context counter — nothing reads global mutable state.
#pragma once

#include <cstdint>

#include "sim/annotations.hpp"
#include "sim/log.hpp"
#include "sim/metrics.hpp"
#include "sim/pool.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/self_profiler.hpp"
#include "sim/trace_span.hpp"

namespace hwatch::sim {

class IncidentSink;

class HWATCH_SHARD_CONFINED SimContext {
 public:
  explicit SimContext(std::uint64_t seed = 1) : rng_(seed), seed_(seed) {}

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  Scheduler& scheduler() { return sched_; }
  const Scheduler& scheduler() const { return sched_; }

  /// Current simulated time (convenience for sched().now()).
  TimePs now() const { return sched_.now(); }

  /// Root random stream; components fork independent children from it
  /// in a deterministic order.
  Rng& rng() { return rng_; }
  Rng fork_rng() { return rng_.fork(); }

  /// The seed this context was created with.
  std::uint64_t seed() const { return seed_; }

  /// Fresh unique packet uid (trace identity), scoped to this context.
  std::uint64_t next_packet_uid() { return ++packet_uid_; }

  /// Stripes the uid space for sharded runs: shard s sets base s<<48, so
  /// uids stay unique across every shard of one scenario — which is what
  /// makes the cross-shard inbox drain order (deliver_time, uid) total
  /// and the merged run deterministic.  Call before any packet exists.
  void set_packet_uid_base(std::uint64_t base) { packet_uid_ = base; }

  /// Per-context log configuration (level + sink).
  SimLog& log() { return log_; }
  const SimLog& log() const { return log_; }

  /// Per-context metrics (counters, gauges, histograms).  Disabled by
  /// default; instruments cost one branch per hit until enabled.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Per-context span/event tracer (flow lifecycle, HWatch decision
  /// provenance, latency decomposition).  Disabled by default; every
  /// hook costs one predictable branch until enabled.
  SpanTracer& tracer() { return tracer_; }
  const SpanTracer& tracer() const { return tracer_; }

  /// Per-context self-profiler (handler wall-time attribution).  Off by
  /// default; ProfScopes cost one branch each way until enabled.
  SelfProfiler& profiler() { return profiler_; }
  const SelfProfiler& profiler() const { return profiler_; }

  /// Per-context congestion-incident sink (sim/incident_hooks.hpp).
  /// Null by default: every hook site checks the pointer — one
  /// predictable branch, no call, no allocation — until the api layer
  /// attaches a detector.  The sink must outlive the simulation run.
  IncidentSink* incidents() const { return incidents_; }
  void set_incident_sink(IncidentSink* sink) { incidents_ = sink; }

  /// Block size of packet_pool(): fits a net::Packet (the net layer
  /// static_asserts this) with headroom so header growth doesn't break
  /// the pool.
  static constexpr std::size_t kPacketBlockBytes = 192;

  /// Free-list pool for packet-sized blocks.  Every packet waiting
  /// inside this context — queued, in flight on a link, drained from a
  /// cross-shard inbox, or held by the shim — lives in one of its
  /// blocks behind a PoolPtr, so the packet path recycles blocks
  /// instead of hitting the global allocator.
  BlockPool& packet_pool() { return packet_pool_; }
  const BlockPool& packet_pool() const { return packet_pool_; }

 private:
  // Declared before the scheduler: pending callbacks holding PoolPtrs
  // must be destroyed (returning their blocks) before the pool dies.
  BlockPool packet_pool_{kPacketBlockBytes};
  Scheduler sched_;
  Rng rng_;
  std::uint64_t seed_;
  std::uint64_t packet_uid_ = 0;
  SimLog log_;
  MetricsRegistry metrics_;
  SpanTracer tracer_;
  SelfProfiler profiler_;
  IncidentSink* incidents_ = nullptr;
};

}  // namespace hwatch::sim
