// MetricsRegistry — named counters, gauges and fixed-bucket histograms
// for one simulation instance.
//
// Overhead discipline (same as SimLog): a disabled registry costs one
// predictable branch per hot-path hit.  Counter::inc and
// Histogram::record test the registry's enabled flag and return; no
// allocation, no hashing, no formatting.  Name lookup (hashing) happens
// once, at component construction, never per event — components cache
// the returned Counter*/Histogram* and bump it directly.  Scenario code
// additionally skips the wiring entirely (no histogram attached, no
// gauges registered) when metrics collection is off, so the default
// fast path is identical to the pre-observability simulator.
//
// Determinism: instruments live in the per-context registry, so two
// contexts share no metric state and parallel sweep points produce
// byte-identical snapshots regardless of thread count.  Snapshots are
// sorted by name, independent of registration order.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/unique_function.hpp"

namespace hwatch::sim {

class MetricsRegistry;

namespace metrics_detail {
/// Pass-key: only MetricsRegistry can mint one, so Counter/Histogram
/// construction stays registry-only while std::make_unique still works
/// (no raw `new` inside the registry).
class RegistryKey {
  friend class hwatch::sim::MetricsRegistry;
  RegistryKey() = default;
};
}  // namespace metrics_detail

/// Monotonic named counter.  inc() is one branch when disabled.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    if (*enabled_) value_ += delta;
  }
  std::uint64_t value() const { return value_; }
  const std::string& name() const { return name_; }

  Counter(metrics_detail::RegistryKey, std::string name, const bool* enabled)
      : name_(std::move(name)), enabled_(enabled) {}

 private:
  std::string name_;
  const bool* enabled_;
  std::uint64_t value_ = 0;
};

/// Fixed-bucket histogram: bucket i counts samples <= bounds[i]; one
/// extra overflow bucket counts the rest.  record() is one branch when
/// disabled; when enabled, a binary search over a handful of bounds.
class Histogram {
 public:
  void record(double v) {
    if (!*enabled_) return;
    std::size_t lo = 0, hi = bounds_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (v <= bounds_[mid]) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    ++counts_[lo];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  const std::string& name() const { return name_; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0; }
  double max() const { return count_ ? max_ : 0; }

  /// {start, start*factor, start*factor^2, ...}, `n` bounds.
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t n);
  /// {start, start+width, start+2*width, ...}, `n` bounds.
  static std::vector<double> linear_bounds(double start, double width,
                                           std::size_t n);

  Histogram(metrics_detail::RegistryKey, std::string name,
            std::vector<double> bounds, const bool* enabled);

 private:
  std::string name_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  const bool* enabled_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Point-in-time copy of every counter and histogram, sorted by name.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> bucket_counts;
    std::uint64_t count;
    double sum;
    double min;
    double max;
  };
  std::vector<CounterValue> counters;
  std::vector<HistogramValue> histograms;
};

/// Merges per-shard snapshots into one scenario-wide snapshot: counters
/// with the same name are summed, histograms merged bucket-wise (their
/// bounds must agree — std::invalid_argument names the histogram if
/// not), and the output is sorted by name like any snapshot().  Pure,
/// so the result depends only on the parts, not on which worker thread
/// produced them.
MetricsSnapshot merge_snapshots(const std::vector<MetricsSnapshot>& parts);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  // Instruments capture &enabled_; the registry must stay put.
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Finds or creates; the returned reference is stable for the
  /// registry's lifetime (components cache the pointer at construction).
  Counter& counter(std::string_view name);

  /// Finds or creates.  When the name already exists the existing
  /// instrument is returned and `bounds` is ignored (first caller wins).
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Registers a read-on-demand gauge; sampled by stats::MetricsSampler
  /// on its tick.  Gauges are cheap closures over live state (queue
  /// depth, flow-table size) and cost nothing between samples.
  using GaugeFn = UniqueFunction<double() const>;
  void register_gauge(std::string name, GaugeFn fn);

  struct Gauge {
    std::string name;
    GaugeFn fn;
  };
  const std::vector<Gauge>& gauges() const { return gauges_; }

  std::size_t counter_count() const { return counters_.size(); }

  MetricsSnapshot snapshot() const;

 private:
  bool enabled_ = false;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, std::size_t> counter_index_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::unordered_map<std::string, std::size_t> histogram_index_;
  std::vector<Gauge> gauges_;
};

}  // namespace hwatch::sim
