// SelfProfiler — wall-time attribution of the simulator's own event
// handlers, plus a sweep progress heartbeat.
//
// This measures the simulator (like bench harness timing), never the
// simulated system: wall-clock readings stay inside this component and
// are reported to stderr only — they never enter manifests, traces or
// any deterministic payload.  All clock access lives in
// self_profiler.cpp (hwlint-allowlisted); this header is clock-free so
// including it keeps the nondeterminism gate airtight.
//
// Overhead discipline: disabled, a ProfScope costs one predictable
// branch in its constructor and one in its destructor — no clock read,
// no out-of-line call, no allocation.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace hwatch::sim {

/// Handler categories the scopes attribute to.
enum class ProfComponent : std::uint8_t {
  kLinkTx = 0,   // Link::on_transmission_complete (dequeue + next tx)
  kTcpSender,    // TcpSender::on_packet (ACK clock)
  kTcpSink,      // TcpSink::on_packet (reassembly + ACK generation)
  kShim,         // HypervisorShim inbound/outbound filters
};
inline constexpr std::size_t kProfComponents = 4;

const char* to_string(ProfComponent c);

/// Event-loop totals a scenario fills from Scheduler counters plus the
/// wall time of the run_until call, for the events/s line of the report.
struct EventLoopStats {
  std::uint64_t events_executed = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t heap_peak = 0;
  std::uint64_t wall_ns = 0;
};

class SelfProfiler {
 public:
  static constexpr std::size_t kBuckets = 16;

  struct ComponentStats {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    /// Exponential handler-time histogram; bucket i counts handlers
    /// <= bucket_bounds_ns()[i], one overflow bucket.
    std::array<std::uint64_t, kBuckets + 1> hist{};
  };

  SelfProfiler() = default;
  SelfProfiler(const SelfProfiler&) = delete;
  SelfProfiler& operator=(const SelfProfiler&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Monotonic wall clock in nanoseconds (out of line: the clock lives
  /// in the profiler translation unit only).
  std::uint64_t now_ns() const;

  /// Attributes now_ns() - t0_ns to `c`.
  void record(ProfComponent c, std::uint64_t t0_ns);

  const ComponentStats& stats(ProfComponent c) const {
    return stats_[static_cast<std::size_t>(c)];
  }
  static const std::array<double, kBuckets>& bucket_bounds_ns();

  /// Folds another profiler's per-component stats into this one (calls
  /// and histograms summed, max of max) — how the sharded runner
  /// aggregates its per-shard profilers into one report.  Call after
  /// the run, never while `other` is still recording.
  void merge_from(const SelfProfiler& other);

  /// Human-readable report (per-component table + event-loop line when
  /// `loop` is non-null).  Wall times, so stderr-only by convention.
  void report(std::ostream& os, const EventLoopStats* loop) const;

 private:
  bool enabled_ = false;
  std::array<ComponentStats, kProfComponents> stats_{};
};

/// RAII wall-time scope.  One branch at each end when disabled.
class ProfScope {
 public:
  ProfScope(SelfProfiler& p, ProfComponent c)
      : p_(p), c_(c), active_(p.enabled()) {
    if (active_) t0_ = p.now_ns();
  }
  ~ProfScope() {
    if (active_) p_.record(c_, t0_);
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  SelfProfiler& p_;
  ProfComponent c_;
  bool active_;
  std::uint64_t t0_ = 0;
};

/// Sweep progress heartbeat (HWATCH_PROGRESS=1): one stderr line per
/// completed point with elapsed wall time and a linear ETA.  Thread-safe
/// (SweepRunner workers tick concurrently); wall-clock use confined to
/// self_profiler.cpp like the profiler's.
class ProgressMeter {
 public:
  ProgressMeter(std::size_t total, std::string label);

  /// Marks one unit done and prints the heartbeat line.
  void tick();

  std::size_t done() const {
    return done_.load(std::memory_order_relaxed);
  }

 private:
  std::string label_;
  std::size_t total_;
  std::atomic<std::size_t> done_{0};
  std::uint64_t t0_ns_;
};

}  // namespace hwatch::sim
