// SweepRunner — parallel execution of independent scenario points.
//
// Every figure and ablation of the reproduction is a parameter sweep of
// self-contained simulations: each point builds its own SimContext (via
// run_dumbbell / run_leaf_spine), so points share zero mutable state and
// can execute on any thread.  SweepRunner fans a vector of scenario
// configurations out over a thread pool and collects results in point
// order — the output is byte-identical no matter how many threads run
// the sweep, which the determinism tests assert.
//
// Seeding: each point's config carries its own seed.  For sweeps that
// want independent per-point streams derived from one base seed, use
// sim::mix64(base, index) (sim/random.hpp), stable across platforms and
// thread counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "api/scenario.hpp"
#include "sim/annotations.hpp"

namespace hwatch::api {

class HWATCH_SHARD_SHARED SweepRunner {
 public:
  /// `threads` == 0 picks std::thread::hardware_concurrency() (at least
  /// 1).  One SimContext lives per in-flight point, created inside the
  /// worker that claims it.
  explicit SweepRunner(unsigned threads = 0);

  /// Parses the HWATCH_SWEEP_THREADS environment variable.  Unset or
  /// empty returns 0 (auto = hardware concurrency); anything that is
  /// not a positive integer (non-numeric, 0, negative, trailing junk,
  /// out of range) throws std::invalid_argument with a message naming
  /// the variable and the offending value.
  static unsigned threads_from_env();

  unsigned threads() const { return threads_; }

  /// Runs every configuration; results[i] corresponds to points[i].
  std::vector<ScenarioResults> run(
      const std::vector<DumbbellScenarioConfig>& points) const;
  std::vector<ScenarioResults> run(
      const std::vector<LeafSpineScenarioConfig>& points) const;

  /// Generic ordered fan-out: out[i] = fn(i).  `fn` must be safe to call
  /// concurrently from several threads (scenario runs are: each call
  /// builds its own SimContext).
  template <typename R>
  std::vector<R> map(std::size_t n,
                     const std::function<R(std::size_t)>& fn) const {
    std::vector<R> out(n);
    dispatch(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Runs task(i) for every i in [0, n) across the pool; blocks until
  /// all complete.  The first exception thrown by any task is rethrown
  /// on the calling thread after the pool drains.
  void dispatch(std::size_t n,
                const std::function<void(std::size_t)>& task) const;

 private:
  unsigned threads_;
};

}  // namespace hwatch::api
