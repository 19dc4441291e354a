// ShardTelemetry — runtime observability for the sharded PDES engine.
//
// Two strictly separated data planes share one object:
//
//  * Deterministic counters.  Each shard's owner worker reports, once
//    per epoch, cumulative shard-local quantities (scheduler events,
//    cross-shard ingress pushed/drained/spilled, inbox peak depth).
//    The telemetry folds them into per-shard deltas, per-run totals and
//    load-imbalance stats that are pure functions of (config, seed) —
//    they feed the manifest `shards` section and must stay
//    byte-identical across HWATCH_SHARDS=1/2/4.
//
//  * Wall-clock timelines.  Per-worker drain / barrier-wait / run spans
//    and per-epoch wall durations measure the simulator itself, like
//    SelfProfiler: readings never enter the manifest or the merged
//    trace export (both are byte-compared across thread counts).  They
//    surface only through export_chrome_workers() — a SEPARATE Perfetto
//    file — the stderr report, the HWATCH_PROGRESS heartbeat, and the
//    flight recorder.  All clock access lives in shard_telemetry.cpp
//    (hwlint-allowlisted); this header is clock-free.
//
// Thread-safety without locks: every mutable slot has exactly one
// writer.  Shard records are written by the shard's statically assigned
// owner worker; worker timelines by that worker; epoch aggregation and
// the heartbeat run on the coordinator (worker 0) strictly after the
// run-phase barrier of the epoch they read, so the ShardGroup barriers
// provide all the happens-before edges.  The flight ring holds
// `ring_epochs` epochs and live dumps read only the newest
// ring_epochs-1, so a concurrently recycled slot is never touched.
//
// Overhead discipline: when telemetry is off, ShardGroup / the shard
// tasks hold a null pointer and every hook site costs one predictable
// branch — no call, no clock read, no allocation (pinned by the
// BM_ShardGroupEpochs microbenchmark).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/annotations.hpp"
#include "sim/json.hpp"
#include "sim/time.hpp"

namespace hwatch::sim {

class HWATCH_SHARD_SHARED ShardTelemetry {
 public:
  static constexpr const char* kFlightSchemaId = "hwatch.shard_flight/v1";
  static constexpr const char* kShardsSchemaId = "hwatch.shard_telemetry/v1";

  struct Config {
    std::size_t shard_count = 0;
    unsigned workers = 1;
    /// Flight-recorder depth in epochs (clamped to >= 2).
    std::size_t ring_epochs = 64;
    /// Run label, used in reports / heartbeat lines / dump file names.
    std::string label;
    /// Conservative window width, recorded in dumps for context.
    TimePs lookahead = 0;
    /// Collect per-worker drain/run/barrier wall spans (feeds
    /// export_chrome_workers and the report's worker-share lines).
    bool wall_spans = false;
    /// Print the once-per-second stderr heartbeat (HWATCH_PROGRESS=1).
    bool progress = false;
    /// Incident detectors are attached (shard_incidents() will report
    /// per-epoch open-episode counts); adds the heartbeat's incident
    /// column.  Off, the heartbeat keeps its exact pre-incident format.
    bool incidents = false;
    /// Dump the flight ring when one epoch's wall time exceeds this
    /// budget (0 disables the watchdog).
    std::uint64_t epoch_budget_ms = 0;
    /// Directory for flight dumps ("<label>.flight.json"); "" = stderr.
    std::string flight_dir;
  };

  explicit ShardTelemetry(Config cfg);

  ShardTelemetry(const ShardTelemetry&) = delete;
  ShardTelemetry& operator=(const ShardTelemetry&) = delete;

  // ---- deterministic per-shard hooks (owner worker only) -------------

  /// Cumulative ingress-channel totals, sampled by the owner at the
  /// start of its drain phase (the barrier has published every producer
  /// write of the previous run phase; producers are quiescent).
  struct IngressSample {
    std::uint64_t pushed = 0;      // sum over the shard's channels
    std::uint64_t spilled = 0;     // sum
    std::uint64_t peak_depth = 0;  // max over the shard's channels
    std::uint64_t depth = 0;       // items pending right now (= drained
                                   // this epoch)
  };
  void shard_drain(std::size_t shard, TimePs window_start,
                   const IngressSample& in);
  /// End of the shard's run phase; `events_cum` = scheduler.executed().
  void shard_run(std::size_t shard, TimePs window_end,
                 std::uint64_t events_cum);
  /// Open congestion incidents on this shard's detector at the end of
  /// its run phase (stats::IncidentDetector::active_count()).  Called
  /// only on detectors-on runs; its first call enables the heartbeat's
  /// incident column.  Deterministic — derived from sim-time episode
  /// state, never from the wall clock.
  void shard_incidents(std::size_t shard, std::uint32_t active);

  // ---- wall-clock hooks (ShardGroup) ---------------------------------

  /// Phase transitions of one worker's epoch loop.  Each mark closes the
  /// previous phase span and (except kEnd) opens the next.
  enum class Mark : std::uint8_t { kDrain = 0, kBarrier, kRun, kEnd };
  void worker_mark(unsigned worker, Mark m);

  /// Coordinator hook, once per epoch after the run-phase barrier:
  /// folds the epoch's shard records into the run totals, measures the
  /// epoch's wall time (budget watchdog) and prints the heartbeat.
  void epoch_end(TimePs window_end, TimePs horizon);

  /// Remembers the failing task's what() for the next flight dump.
  void note_error(std::string what);

  /// Dumps the flight ring (schema hwatch.shard_flight/v1) to
  /// `flight_dir`/<label>.flight.json, or stderr when no directory is
  /// configured.  `reason`: "shard_exception", "epoch_budget_exceeded"
  /// or "forced".
  void dump_flight(const char* reason);
  /// Same document to an explicit stream (testing / stderr path).
  void dump_flight(std::ostream& os, const char* reason) const;

  // ---- deterministic outputs -----------------------------------------

  std::uint64_t epochs() const { return epochs_done_; }
  std::uint64_t total_events() const { return total_events_; }
  std::uint64_t spill_total() const;
  std::uint64_t inbox_peak_depth() const;  // max over shards

  /// Average per-epoch max-shard events over average per-epoch mean
  /// events: 1.0 = perfectly balanced, S = one shard does everything.
  /// 0 when no events were recorded.
  HWATCH_DETERMINISTIC_PLANE double imbalance_ratio() const;

  /// Top-`n` shards by total events, descending (ties: lower id first);
  /// empty when no events were recorded.
  HWATCH_DETERMINISTIC_PLANE
  std::vector<std::uint32_t> top_stragglers(std::size_t n) const;

  /// The manifest `shards` section (schema hwatch.shard_telemetry/v1):
  /// run totals, derived imbalance stats and the per-shard breakdown.
  /// Pure function of the deterministic counters — this TU holds a
  /// nondeterminism allowlist entry for its wall-clock half, and these
  /// markers are what keeps the clock out of the manifest half.
  HWATCH_DETERMINISTIC_PLANE Json shards_json() const;

  // ---- wall-clock outputs (stderr / separate files only) -------------

  /// Per-worker epoch timelines as Chrome trace-event JSON (schema
  /// hwatch.trace_export/v1, loads in Perfetto): one track per worker,
  /// B/E pairs named drain / barrier_wait / run, args carry the epoch.
  /// Wall times — never merge this into the deterministic trace export.
  void export_chrome_workers(std::ostream& os,
                             std::string_view process_name) const;

  /// Straggler / imbalance report: totals, per-epoch imbalance, top
  /// stragglers, spill + grow-capacity advice, per-worker phase shares
  /// (when wall spans were collected).  Stderr-only by convention.
  void report(std::ostream& os) const;

  std::uint64_t worker_spans_dropped() const;

 private:
  /// One (epoch, shard) cell of the flight ring — per-epoch deltas,
  /// written only by the shard's owner worker.
  struct EpochShardRecord {
    std::uint64_t epoch = ~std::uint64_t{0};  // validity tag
    TimePs window_end = 0;
    std::uint64_t events = 0;   // delta
    std::uint64_t pushed = 0;   // delta
    std::uint64_t drained = 0;  // inbox depth at drain start
    std::uint64_t spilled = 0;  // delta
    std::uint64_t inbox_peak = 0;
    std::uint64_t inbox_depth = 0;
  };

  /// Per-shard run totals, written only by the shard's owner worker.
  struct ShardStats {
    std::uint64_t epochs = 0;
    std::uint64_t events = 0;
    std::uint64_t busy_epochs = 0;
    std::uint64_t max_epoch_events = 0;
    std::uint64_t max_epoch_events_epoch = 0;
    std::uint64_t pushed = 0;
    std::uint64_t drained = 0;
    std::uint64_t spilled = 0;
    std::uint64_t max_epoch_spill = 0;
    std::uint64_t inbox_peak = 0;
    // Open incidents on the shard's detector after its latest run
    // phase; owner-written, coordinator-read after the barrier.
    std::uint32_t active_incidents = 0;
    // Cumulative baselines for delta computation.
    std::uint64_t last_events = 0;
    std::uint64_t last_pushed = 0;
    std::uint64_t last_spilled = 0;
    // Epoch currently being filled (drain seen, run pending).
    std::uint64_t cur_epoch = 0;
  };

  static constexpr std::size_t kPhases = 3;  // drain, barrier, run
  struct WorkerSpan {
    std::uint64_t t0_ns = 0;
    std::uint64_t t1_ns = 0;
    std::uint32_t epoch = 0;
    std::uint8_t phase = 0;
  };
  struct WorkerState {
    std::vector<WorkerSpan> spans;
    std::uint64_t phase_t0_ns = 0;
    std::uint8_t phase = 0;
    bool phase_open = false;
    std::uint32_t cur_epoch = 0;
    std::uint32_t drains_seen = 0;
    std::uint64_t dropped = 0;
    std::uint64_t busy_ns[kPhases] = {};
  };

  EpochShardRecord& ring_at(std::uint64_t epoch, std::size_t shard) {
    return ring_[(epoch % cfg_.ring_epochs) * cfg_.shard_count + shard];
  }
  const EpochShardRecord& ring_at(std::uint64_t epoch,
                                  std::size_t shard) const {
    return ring_[(epoch % cfg_.ring_epochs) * cfg_.shard_count + shard];
  }
  Json flight_json(const char* reason) const;
  void heartbeat(std::uint64_t now_ns, TimePs window_end, TimePs horizon);

  Config cfg_;
  bool timing_ = false;  // any wall-clock feature active
  std::vector<ShardStats> shards_;
  std::vector<EpochShardRecord> ring_;
  std::vector<WorkerState> workers_;
  std::vector<double> epoch_wall_ms_;  // ring, coordinator-written

  // Coordinator-owned run aggregates (epoch_end only).
  std::uint64_t epochs_done_ = 0;
  std::uint64_t total_events_ = 0;
  std::uint64_t epoch_max_sum_ = 0;  // sum over epochs of max shard delta
  TimePs last_window_end_ = 0;

  // Wall-clock state (coordinator-owned).
  std::uint64_t t0_ns_ = 0;
  std::uint64_t last_epoch_ns_ = 0;
  std::uint64_t last_beat_ns_ = 0;
  bool budget_tripped_ = false;
  std::string error_;
};

}  // namespace hwatch::sim
