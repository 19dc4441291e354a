// ShardGroup — conservative time-window coordinator for sharded runs.
//
// Classic conservative parallel discrete-event simulation: the fabric is
// partitioned into shards, each owning its own SimContext (scheduler,
// RNG stream, metrics, tracer), and simulated time advances in windows
// of at most `lookahead` picoseconds — the minimum propagation delay of
// any cross-shard link.  Within a window shards run independently; a
// packet sent across a shard boundary during window (T, T+W] arrives no
// earlier than T+W (its link's propagation delay is >= W), so it is
// enqueued into the destination shard's inbox and delivered in a later
// window.  No shard can ever receive an event in its past.
//
// Each epoch runs in two barrier-separated phases:
//   1. drain(T):  every shard empties its inboxes, scheduling the
//      received packets into its own scheduler (sorted by
//      (deliver_time, packet uid) for determinism), and reports its
//      earliest pending event (next_event_time);
//   2. run(end):  every shard executes its events through `end`.
// The barrier between the phases is what makes the schedule
// deterministic: all cross-shard pushes of window N are published
// before any shard starts window N+1, so the set of packets a drain
// observes — and therefore every scheduler sequence number — is a pure
// function of (config, seed), independent of thread count or timing.
//
// Idle windows are skipped.  Windows lie on a fixed grid T0 + kW from
// the time the run() call starts at.  After the drain, the global
// minimum e of the shards' next-event times decides the epoch's end:
// normally T+W; when e lies past it, the end of the grid window
// (T0+kW, T0+(k+1)W] that holds e, so the epoch runs straight through
// the empty windows before it; when e is at or past the horizon, the
// horizon.  Nothing can happen in a skipped window — every inbox was
// just drained, and no shard has an event there to send from — so the
// busy windows, their drain sets and the event order are exactly those
// of a run that steps every window.  e is a pure function of the
// drained state, so the skip is as deterministic as the rest.
//
// Threads vs shards: the logical partition is fixed by the topology;
// the thread count only decides how many workers execute the shard
// tasks.  Shard i is always handled by worker (i mod threads) — static
// ownership, no work stealing — so byte-identical results across
// HWATCH_SHARDS=1/2/4 are structural, not incidental.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "sim/annotations.hpp"
#include "sim/time.hpp"

namespace hwatch::sim {

class ShardTelemetry;

/// One shard's view of the epoch protocol.  Implementations wrap a
/// SimContext plus its cross-shard inboxes; the coordinator never
/// touches shard internals (the hwlint cross-shard-state rule enforces
/// the inverse: shard code never touches another shard's context).
class HWATCH_SHARD_CONFINED ShardTask {
 public:
  virtual ~ShardTask();

  /// Phase 1: drain every inbox into the local scheduler.  `window_start`
  /// is the epoch's opening time T (== the local scheduler's now).
  virtual void drain(TimePs window_start) = 0;

  /// Phase 2: advance the local scheduler through `window_end`
  /// (run_until semantics: events <= window_end execute, now becomes
  /// window_end).
  virtual void run(TimePs window_end) = 0;

  /// Time of the earliest event pending after drain(), or kTimeNever
  /// when none is.  The coordinator skips windows in which no shard has
  /// an event.  The default, 0, means "due now": a task that does not
  /// report its schedule is never skipped over.
  virtual TimePs next_event_time() { return 0; }
};

class HWATCH_SHARD_SHARED ShardGroup {
 public:
  /// `threads` = workers executing the shard tasks; values above the
  /// shard count are clamped.  Worker 0 is the calling thread, so 1
  /// runs everything sequentially and starts no thread (the
  /// determinism baseline).
  explicit ShardGroup(unsigned threads = 1);
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  /// Registers a shard.  Must happen before run(); tasks are identified
  /// by registration order (shard id).
  void add(ShardTask* task);

  /// Advances all shards to `horizon` in conservative windows of
  /// `window` picoseconds (the lookahead), skipping windows in which no
  /// shard has an event.  May be called repeatedly; each call resumes
  /// from the previous horizon.
  void run(TimePs horizon, TimePs window);

  unsigned threads() const { return threads_; }
  std::size_t shard_count() const { return tasks_.size(); }

  /// Attaches a telemetry sink (nullptr detaches — the default).  When
  /// attached, every worker marks its drain/barrier/run transitions and
  /// the coordinator closes each epoch; a failing shard task triggers a
  /// flight-recorder dump before the exception is rethrown.  Detached,
  /// each hook site costs one predictable branch.  The telemetry must
  /// outlive run().
  void set_telemetry(ShardTelemetry* telemetry) { telemetry_ = telemetry; }

  /// Epochs (drain+run rounds) executed so far: one per busy window,
  /// plus the closing run to the horizon when no event is left before
  /// it.  Skipped idle windows are not counted.
  std::uint64_t epochs() const { return epochs_; }

 private:
  void dump_flight_on_error(const std::exception_ptr& error);

  unsigned threads_;
  std::vector<ShardTask*> tasks_;
  // Per-shard next-event time, written by the shard's owner after its
  // drain and read by every worker after the drain barrier.
  std::vector<TimePs> next_;
  ShardTelemetry* telemetry_ = nullptr;
  TimePs now_ = 0;  // horizon reached by the previous run() call
  std::uint64_t epochs_ = 0;
};

}  // namespace hwatch::sim
