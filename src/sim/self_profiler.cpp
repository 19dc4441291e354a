// The one translation unit where the profiler touches the wall clock
// (see tools/hwlint/allowlist.txt): measurement of the simulator itself,
// never of simulated behaviour, and reported to stderr only.
#include "sim/self_profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>

namespace hwatch::sim {

namespace {

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* to_string(ProfComponent c) {
  switch (c) {
    case ProfComponent::kLinkTx:
      return "link_tx";
    case ProfComponent::kTcpSender:
      return "tcp_sender";
    case ProfComponent::kTcpSink:
      return "tcp_sink";
    case ProfComponent::kShim:
      return "hwatch_shim";
  }
  return "?";
}

std::uint64_t SelfProfiler::now_ns() const { return wall_now_ns(); }

void SelfProfiler::record(ProfComponent c, std::uint64_t t0_ns) {
  const std::uint64_t dt = wall_now_ns() - t0_ns;
  ComponentStats& s = stats_[static_cast<std::size_t>(c)];
  ++s.calls;
  s.total_ns += dt;
  if (dt > s.max_ns) s.max_ns = dt;
  const auto& bounds = bucket_bounds_ns();
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(),
                       static_cast<double>(dt)) -
      bounds.begin());
  ++s.hist[bucket];
}

void SelfProfiler::merge_from(const SelfProfiler& other) {
  for (std::size_t i = 0; i < kProfComponents; ++i) {
    ComponentStats& dst = stats_[i];
    const ComponentStats& src = other.stats_[i];
    dst.calls += src.calls;
    dst.total_ns += src.total_ns;
    dst.max_ns = std::max(dst.max_ns, src.max_ns);
    for (std::size_t b = 0; b < dst.hist.size(); ++b) {
      dst.hist[b] += src.hist[b];
    }
  }
}

const std::array<double, SelfProfiler::kBuckets>&
SelfProfiler::bucket_bounds_ns() {
  // 32 ns .. ~1 ms, doubling: handlers run tens of ns to (pathological)
  // fractions of a millisecond.
  static const std::array<double, kBuckets> kBounds = [] {
    std::array<double, kBuckets> b{};
    double v = 32;
    for (auto& x : b) {
      x = v;
      v *= 2;
    }
    return b;
  }();
  return kBounds;
}

void SelfProfiler::report(std::ostream& os,
                          const EventLoopStats* loop) const {
  os << "-- self-profile (wall time; not part of any manifest) --\n";
  if (loop != nullptr) {
    const double wall_s = static_cast<double>(loop->wall_ns) / 1e9;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "event loop: %llu events in %.3fs (%.2fM events/s), "
                  "heap peak %llu\n",
                  static_cast<unsigned long long>(loop->events_executed),
                  wall_s,
                  wall_s > 0 ? static_cast<double>(loop->events_executed) /
                                   wall_s / 1e6
                             : 0.0,
                  static_cast<unsigned long long>(loop->heap_peak));
    os << buf;
  }
  for (std::size_t i = 0; i < kProfComponents; ++i) {
    const ComponentStats& s = stats_[i];
    if (s.calls == 0) continue;
    // Bucket-midpoint percentiles are plenty for a profiler readout.
    const auto quantile = [&](double q) {
      const std::uint64_t target =
          static_cast<std::uint64_t>(q * static_cast<double>(s.calls));
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b < s.hist.size(); ++b) {
        cum += s.hist[b];
        if (cum >= target && s.hist[b] > 0) {
          return b < kBuckets ? bucket_bounds_ns()[b]
                              : bucket_bounds_ns()[kBuckets - 1];
        }
      }
      return bucket_bounds_ns()[kBuckets - 1];
    };
    char buf[200];
    std::snprintf(
        buf, sizeof(buf),
        "%-12s calls=%-10llu total=%.3fms mean=%.0fns p50<=%.0fns "
        "p99<=%.0fns max=%lluns\n",
        to_string(static_cast<ProfComponent>(i)),
        static_cast<unsigned long long>(s.calls),
        static_cast<double>(s.total_ns) / 1e6,
        static_cast<double>(s.total_ns) / static_cast<double>(s.calls),
        quantile(0.50), quantile(0.99),
        static_cast<unsigned long long>(s.max_ns));
    os << buf;
  }
}

ProgressMeter::ProgressMeter(std::size_t total, std::string label)
    : label_(std::move(label)), total_(total), t0_ns_(wall_now_ns()) {}

void ProgressMeter::tick() {
  const std::size_t k = done_.fetch_add(1, std::memory_order_relaxed) + 1;
  const double elapsed_s =
      static_cast<double>(wall_now_ns() - t0_ns_) / 1e9;
  const double eta_s =
      k > 0 ? elapsed_s / static_cast<double>(k) *
                  static_cast<double>(total_ > k ? total_ - k : 0)
            : 0.0;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "[%s] %zu/%zu done, %.1fs elapsed, eta %.1fs\n",
                label_.c_str(), k, total_, elapsed_s, eta_s);
  // One atomic write per line; interleaving across workers is harmless.
  std::fputs(buf, stderr);
}

}  // namespace hwatch::sim
