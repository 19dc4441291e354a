#include "sim/shard_group.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/shard_telemetry.hpp"

namespace hwatch::sim {

ShardTask::~ShardTask() = default;

namespace {

/// End of the epoch that opens at grid point `t`: the next window
/// (t, t+W] or, when the earliest pending event `next` lies past it, the
/// grid window (t+kW, t+(k+1)W] that holds `next`; never past `horizon`.
TimePs next_window_end(TimePs t, TimePs window, TimePs horizon, TimePs next) {
  if (next >= horizon) return horizon;
  const TimePs skipped = next > t + window ? (next - t - 1) / window : 0;
  return std::min(horizon, t + (skipped + 1) * window);
}

}  // namespace

ShardGroup::ShardGroup(unsigned threads)
    : threads_(threads == 0 ? 1 : threads) {}

ShardGroup::~ShardGroup() = default;

void ShardGroup::add(ShardTask* task) {
  if (task == nullptr) {
    throw std::invalid_argument("ShardGroup::add: null task");
  }
  tasks_.push_back(task);
  next_.push_back(0);
}

void ShardGroup::run(TimePs horizon, TimePs window) {
  if (window <= 0) {
    throw std::invalid_argument(
        "ShardGroup::run: window (lookahead) must be > 0 ps");
  }
  if (tasks_.empty() || horizon <= now_) {
    now_ = std::max(now_, horizon);
    return;
  }
  const std::size_t n = tasks_.size();
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, n));
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;
  // `stop` is written only by the barrier's completion step, which runs
  // once every worker has arrived and before any is released, so all
  // workers read the same value between two barriers and leave the loop
  // together.
  bool stop = false;
  const auto on_barrier = [&]() noexcept {
    stop = failed.load(std::memory_order_relaxed);
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(workers), on_barrier);

  const auto guard = [&](auto&& fn) {
    if (failed.load(std::memory_order_relaxed)) return;
    try {
      fn();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };

  // Static shard ownership: worker w always runs shards w, w+workers,
  // ... — the assignment (and with it every per-shard event order) does
  // not depend on scheduling luck.  A failure stops every worker at the
  // next barrier; its epoch is neither counted nor closed, which keeps
  // the flight ring anchored at the failure.
  //
  // The skip decision needs no barrier of its own: each owner writes
  // its shards' next-event slots before the drain barrier, and no slot
  // is written again before the run barrier, so every worker reads the
  // same slots in between and computes the same epoch end.
  //
  // Telemetry hooks: each worker marks its own phase transitions (one
  // predictable branch when detached); the coordinator (worker 0)
  // closes the epoch after the run-phase barrier — every shard record
  // of epoch N was published before that barrier, and worker 0 can lag
  // the others by at most one barrier phase, so the epoch's flight-ring
  // slots stay stable while it reads them.
  ShardTelemetry* const tel = telemetry_;
  const auto worker = [&](unsigned w) {
    for (TimePs t = now_; t < horizon;) {
      if (tel != nullptr) tel->worker_mark(w, ShardTelemetry::Mark::kDrain);
      for (std::size_t s = w; s < n; s += workers) {
        guard([&] {
          tasks_[s]->drain(t);
          next_[s] = tasks_[s]->next_event_time();
        });
      }
      if (tel != nullptr) {
        tel->worker_mark(w, ShardTelemetry::Mark::kBarrier);
      }
      sync.arrive_and_wait();
      if (stop) break;
      const TimePs end = next_window_end(
          t, window, horizon, *std::min_element(next_.begin(), next_.end()));
      if (tel != nullptr) tel->worker_mark(w, ShardTelemetry::Mark::kRun);
      for (std::size_t s = w; s < n; s += workers) {
        guard([&] { tasks_[s]->run(end); });
      }
      if (tel != nullptr) {
        tel->worker_mark(w, ShardTelemetry::Mark::kBarrier);
      }
      sync.arrive_and_wait();
      if (stop) break;
      if (w == 0) {
        ++epochs_;
        if (tel != nullptr) tel->epoch_end(end, horizon);
      }
      t = end;
    }
    if (tel != nullptr) tel->worker_mark(w, ShardTelemetry::Mark::kEnd);
  };

  // One worker runs inline on the caller's thread and spawns none.
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    pool.emplace_back(worker, w);
  }
  worker(0);
  for (std::thread& th : pool) th.join();

  if (first_error) {
    dump_flight_on_error(first_error);
    std::rethrow_exception(first_error);
  }
  now_ = horizon;
}

void ShardGroup::dump_flight_on_error(const std::exception_ptr& error) {
  if (telemetry_ == nullptr) return;
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    telemetry_->note_error(e.what());
  } catch (...) {
    telemetry_->note_error("unknown exception");
  }
  // A flight-dir configuration error must never mask the shard's own
  // exception (our caller rethrows it next); the dump already fell
  // back to stderr, so only the message is left to report.
  try {
    telemetry_->dump_flight("shard_exception");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
  }
}

}  // namespace hwatch::sim
