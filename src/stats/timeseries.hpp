// Periodic samplers: queue occupancy over time and link utilization over
// time — the data behind the paper's "persistent queue" and "bottleneck
// utilization" panels.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include <string>

#include "net/link.hpp"
#include "sim/context.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace hwatch::stats {

struct TimePoint {
  sim::TimePs time;
  double value;
};

using TimeSeries = std::vector<TimePoint>;

/// Calls `sample(now)` every `interval` until `until` and records the
/// returned value.  Stateful samplers keep their state in the closure.
class PeriodicSampler {
 public:
  using SampleFn = std::function<double(sim::TimePs)>;

  PeriodicSampler(sim::Scheduler& sched, sim::TimePs interval,
                  sim::TimePs until, SampleFn sample);
  // The scheduled tick holds `this`.
  PeriodicSampler(const PeriodicSampler&) = delete;
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  const TimeSeries& series() const { return series_; }

  /// Mean of the recorded values (0 when empty).
  double mean() const;

  /// Maximum recorded value (0 when empty).
  double max() const;

 private:
  void tick();

  sim::Scheduler& sched_;
  sim::TimePs interval_;
  sim::TimePs until_;
  SampleFn sample_;
  TimeSeries series_;
};

/// Samples a link's queue length in packets.
PeriodicSampler make_queue_sampler(sim::Scheduler& sched, net::Link& link,
                                   sim::TimePs interval, sim::TimePs until);

/// Samples a link's utilization over each interval (busy-time delta /
/// interval, in [0, 1]).
class UtilizationSampler : public PeriodicSampler {
 public:
  UtilizationSampler(sim::Scheduler& sched, net::Link& link,
                     sim::TimePs interval, sim::TimePs until);
};

/// Samples every gauge registered with the context's MetricsRegistry on
/// one shared tick, producing one named TimeSeries per gauge.  Register
/// gauges *before* constructing the sampler; gauges added later are not
/// picked up.  Sampling order (and thus the series vector) follows
/// registration order; manifest emission sorts by name.
class MetricsSampler {
 public:
  struct GaugeSeries {
    std::string name;
    TimeSeries series;
  };

  MetricsSampler(sim::SimContext& ctx, sim::TimePs interval,
                 sim::TimePs until);

  const std::vector<GaugeSeries>& series() const { return series_; }

 private:
  void tick();

  sim::SimContext& ctx_;
  sim::TimePs interval_;
  sim::TimePs until_;
  std::vector<GaugeSeries> series_;
};

/// Goodput-over-time: bytes delivered by a link per interval, as Gb/s.
class ThroughputSampler : public PeriodicSampler {
 public:
  ThroughputSampler(sim::Scheduler& sched, net::Link& link,
                    sim::TimePs interval, sim::TimePs until);
};

}  // namespace hwatch::stats
