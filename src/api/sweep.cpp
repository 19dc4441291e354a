#include "api/sweep.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <optional>
#include <string>

#include "api/run.hpp"
#include "sim/self_profiler.hpp"

namespace hwatch::api {

unsigned SweepRunner::threads_from_env() {
  return detail::positive_env("HWATCH_SWEEP_THREADS",
                              std::numeric_limits<unsigned>::max());
}

SweepRunner::SweepRunner(unsigned threads) : threads_(threads) {
  if (threads_ == 0) {
    threads_ = std::max(1u, std::thread::hardware_concurrency());
  }
}

void SweepRunner::dispatch(
    std::size_t n, const std::function<void(std::size_t)>& task) const {
  if (n == 0) return;
  // Heartbeat (HWATCH_PROGRESS=1): one stderr line per finished point.
  // Progress output never touches results, so determinism is unaffected.
  std::optional<sim::ProgressMeter> progress;
  if (detail::env_flag("HWATCH_PROGRESS")) progress.emplace(n, "sweep");
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      task(i);
      if (progress) progress->tick();
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      if (progress) progress->tick();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<ScenarioResults> SweepRunner::run(
    const std::vector<DumbbellScenarioConfig>& points) const {
  return map<ScenarioResults>(points.size(), [&](std::size_t i) {
    DumbbellScenarioConfig cfg = points[i];
    if (cfg.run_label.empty()) cfg.run_label = "point" + std::to_string(i);
    ScenarioResults res = run_dumbbell(cfg);
    if (res.has_manifest) res.manifest.sweep_threads = threads_;
    return res;
  });
}

std::vector<ScenarioResults> SweepRunner::run(
    const std::vector<LeafSpineScenarioConfig>& points) const {
  return map<ScenarioResults>(points.size(), [&](std::size_t i) {
    LeafSpineScenarioConfig cfg = points[i];
    if (cfg.run_label.empty()) cfg.run_label = "point" + std::to_string(i);
    ScenarioResults res = run_leaf_spine(cfg);
    if (res.has_manifest) res.manifest.sweep_threads = threads_;
    return res;
  });
}

}  // namespace hwatch::api
