// The one scenario run path (private to src/api).
//
// run_dumbbell, run_leaf_spine and run_fat_tree_sharded are thin
// adapters over run_scenario.  An adapter validates its config, then
// hands run_scenario a ScenarioSpec whose callbacks build the topology
// into parts, name the bottleneck link if there is one, add the
// workload and produce the manifest `config` section.  Everything else
// happens once, here: the environment read, incident detectors, HWatch
// shims, gauges and shard telemetry, the run, the results, the metrics
// harvest, the manifest, and the trace and profile output.
//
// Every scenario runs as a sim::ShardGroup of one or more topo::Parts,
// a part being one SimContext with its Network.  A single-context
// scenario is one part whose window is the horizon: with no cross-part
// link there is nothing to wait for, so the group does one drain plus
// one run_until(duration), the same event sequence as a bare scheduler
// run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/scenario.hpp"
#include "sim/json.hpp"
#include "topo/shard.hpp"

namespace hwatch::api::detail {

/// What an adapter's build step returns; run_scenario keeps it alive
/// until the run's results are collected.
struct ScenarioTopology {
  std::vector<topo::Part> parts;
  /// Minimum propagation delay of a cross-part link, the epoch window;
  /// 0 when there is no such link, and the run is one window.
  sim::TimePs lookahead = 0;
  /// The link the bottleneck samplers, counters and gauges watch; it
  /// lives in part 0.  Null when the scenario names none.
  net::Link* bottleneck = nullptr;
  /// The bottleneck's buffer bound; sizes its depth histogram.
  std::uint64_t bottleneck_buffer_pkts = 0;
};

/// One traffic manager per part, in part order.
using TrafficManagers = std::vector<std::unique_ptr<workload::TrafficManager>>;

struct ScenarioSpec {
  const char* kind = "";  // manifest scenario_kind and default label stem
  std::uint64_t seed = 1;
  std::string run_label;  // "" -> "<kind>-seed<seed>"
  sim::TimePs duration = 0;
  sim::TimePs sample_interval = 0;
  const core::HWatchConfig* hwatch = nullptr;  // null: HWatch off
  unsigned workers = 1;  // ShardGroup threads
  bool collect_metrics = false;
  bool trace_spans = false;
  bool profile = false;
  bool detect_incidents = false;
  bool shard_telemetry = false;

  /// Builds the topology.  Called once, after the environment is read.
  std::function<ScenarioTopology()> build;
  /// Adds the flows; called after the shims are installed.
  std::function<void(const TrafficManagers&)> add_workload;
  /// The manifest `config` section; called only when a manifest is made.
  std::function<sim::Json()> config;
};

/// Copies the fields every scenario config shares.
template <class Config>
ScenarioSpec spec_for(const char* kind, const Config& cfg) {
  ScenarioSpec s;
  s.kind = kind;
  s.seed = cfg.seed;
  s.run_label = cfg.run_label;
  s.duration = cfg.duration;
  s.sample_interval = cfg.sample_interval;
  s.hwatch = cfg.hwatch_enabled ? &cfg.hwatch : nullptr;
  s.collect_metrics = cfg.collect_metrics;
  s.trace_spans = cfg.trace_spans;
  s.profile = cfg.profile;
  s.detect_incidents = cfg.detect_incidents;
  return s;
}

/// Runs one scenario.  Throws std::invalid_argument naming
/// `sample_interval` when it is not positive, before any part exists.
ScenarioResults run_scenario(const ScenarioSpec& spec);

/// Parses the environment variable `name` as a positive integer no
/// larger than `max`: 0 when unset or empty; anything else that is not
/// such an integer throws std::invalid_argument naming the variable and
/// the value.
unsigned positive_env(const char* name, unsigned long max);

/// Reads the boolean environment variable `name`: unset, "" or "0" is
/// off and "1" is on; any other value throws std::invalid_argument
/// naming the variable and the value.
bool env_flag(const char* name);

/// The manifest form of one AqmConfig.
sim::Json aqm_json(const AqmConfig& a);

}  // namespace hwatch::api::detail
