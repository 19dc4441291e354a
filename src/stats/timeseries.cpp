#include "stats/timeseries.hpp"

#include <algorithm>

namespace hwatch::stats {

PeriodicSampler::PeriodicSampler(sim::Scheduler& sched, sim::TimePs interval,
                                 sim::TimePs until, SampleFn sample)
    : sched_(sched),
      interval_(interval),
      until_(until),
      sample_(std::move(sample)) {
  sched_.schedule_in(interval_, [this] { tick(); });
}

void PeriodicSampler::tick() {
  const sim::TimePs now = sched_.now();
  series_.push_back(TimePoint{now, sample_(now)});
  if (now + interval_ <= until_) {
    sched_.schedule_in(interval_, [this] { tick(); });
  }
}

double PeriodicSampler::mean() const {
  if (series_.empty()) return 0;
  double sum = 0;
  for (const auto& p : series_) sum += p.value;
  return sum / static_cast<double>(series_.size());
}

double PeriodicSampler::max() const {
  double m = 0;
  for (const auto& p : series_) m = std::max(m, p.value);
  return m;
}

PeriodicSampler make_queue_sampler(sim::Scheduler& sched, net::Link& link,
                                   sim::TimePs interval, sim::TimePs until) {
  return PeriodicSampler(sched, interval, until, [&link](sim::TimePs) {
    return static_cast<double>(link.qdisc().len_packets());
  });
}

UtilizationSampler::UtilizationSampler(sim::Scheduler& sched,
                                       net::Link& link, sim::TimePs interval,
                                       sim::TimePs until)
    : PeriodicSampler(
          sched, interval, until,
          [&link, interval, last_busy = sim::TimePs{0}](sim::TimePs) mutable {
            const sim::TimePs busy = link.busy_time();
            const double util = static_cast<double>(busy - last_busy) /
                                static_cast<double>(interval);
            last_busy = busy;
            return std::min(util, 1.0);
          }) {}

MetricsSampler::MetricsSampler(sim::SimContext& ctx, sim::TimePs interval,
                               sim::TimePs until)
    : ctx_(ctx), interval_(interval), until_(until) {
  series_.reserve(ctx_.metrics().gauges().size());
  for (const auto& g : ctx_.metrics().gauges()) {
    series_.push_back(GaugeSeries{g.name, {}});
  }
  if (!series_.empty()) {
    ctx_.scheduler().schedule_in(interval_, [this] { tick(); });
  }
}

void MetricsSampler::tick() {
  const sim::TimePs now = ctx_.scheduler().now();
  const auto& gauges = ctx_.metrics().gauges();
  for (std::size_t i = 0; i < series_.size(); ++i) {
    series_[i].series.push_back(TimePoint{now, gauges[i].fn()});
  }
  if (now + interval_ <= until_) {
    ctx_.scheduler().schedule_in(interval_, [this] { tick(); });
  }
}

ThroughputSampler::ThroughputSampler(sim::Scheduler& sched, net::Link& link,
                                     sim::TimePs interval, sim::TimePs until)
    : PeriodicSampler(
          sched, interval, until,
          [&link, interval, last_bytes = std::uint64_t{0}](sim::TimePs) mutable {
            const std::uint64_t bytes = link.bytes_delivered();
            const double bits = static_cast<double>(bytes - last_bytes) * 8.0;
            last_bytes = bytes;
            return bits / sim::to_seconds(interval) / 1e9;
          }) {}

}  // namespace hwatch::stats
