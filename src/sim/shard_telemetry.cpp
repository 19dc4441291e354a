// The shard-telemetry clock-reading translation unit (see
// tools/hwlint/allowlist.txt): wall time measures the simulator itself
// — worker timelines, the epoch budget watchdog, the progress heartbeat
// — and surfaces only through stderr, the separate workers trace file
// and the flight recorder.  Every deterministic quantity in this file
// is computed from shard-reported counters alone.
#include "sim/shard_telemetry.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/manifest.hpp"

namespace hwatch::sim {

namespace {

// Beyond this many spans per worker the timeline stops growing and the
// export reports the overflow in dropped_events (a 50 ms k=16 run is
// ~24k spans per worker; the cap covers runs two orders larger).
constexpr std::size_t kMaxWorkerSpans = std::size_t{1} << 20;

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* phase_name(std::uint8_t phase) {
  switch (phase) {
    case 0:
      return "drain";
    case 1:
      return "barrier_wait";
    case 2:
      return "run";
  }
  return "?";
}

/// Writes `ns` as microseconds with fixed three fractional digits —
/// the same fixed-point discipline as the span tracer's ts field.
void write_ns_as_us(std::ostream& os, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  os << buf;
}

}  // namespace

ShardTelemetry::ShardTelemetry(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.ring_epochs < 2) cfg_.ring_epochs = 2;
  if (cfg_.workers == 0) cfg_.workers = 1;
  shards_.resize(cfg_.shard_count);
  ring_.resize(cfg_.ring_epochs * cfg_.shard_count);
  workers_.resize(cfg_.workers);
  epoch_wall_ms_.assign(cfg_.ring_epochs, 0.0);
  timing_ = cfg_.wall_spans || cfg_.progress || cfg_.epoch_budget_ms > 0;
  if (timing_) {
    t0_ns_ = wall_now_ns();
    last_epoch_ns_ = t0_ns_;
  }
}

void ShardTelemetry::shard_drain(std::size_t shard, TimePs /*window_start*/,
                                 const IngressSample& in) {
  if (shard >= shards_.size()) return;
  ShardStats& st = shards_[shard];
  st.cur_epoch = st.epochs;
  EpochShardRecord& r = ring_at(st.cur_epoch, shard);
  const std::uint64_t d_pushed = in.pushed - st.last_pushed;
  const std::uint64_t d_spilled = in.spilled - st.last_spilled;
  r.epoch = st.cur_epoch;
  r.window_end = 0;
  r.events = 0;
  r.pushed = d_pushed;
  r.drained = in.depth;
  r.spilled = d_spilled;
  r.inbox_peak = in.peak_depth;
  r.inbox_depth = in.depth;
  st.last_pushed = in.pushed;
  st.last_spilled = in.spilled;
  st.pushed += d_pushed;
  st.drained += in.depth;
  st.spilled += d_spilled;
  if (d_spilled > st.max_epoch_spill) st.max_epoch_spill = d_spilled;
  if (in.peak_depth > st.inbox_peak) st.inbox_peak = in.peak_depth;
}

void ShardTelemetry::shard_run(std::size_t shard, TimePs window_end,
                               std::uint64_t events_cum) {
  if (shard >= shards_.size()) return;
  ShardStats& st = shards_[shard];
  EpochShardRecord& r = ring_at(st.cur_epoch, shard);
  if (r.epoch != st.cur_epoch) {
    // run without a drain hook this epoch (direct driving in tests):
    // open a fresh record so the stale ring slot cannot leak.
    r = EpochShardRecord{};
    r.epoch = st.cur_epoch;
  }
  const std::uint64_t d_events = events_cum - st.last_events;
  r.events = d_events;
  r.window_end = window_end;
  st.last_events = events_cum;
  st.events += d_events;
  if (d_events > 0) ++st.busy_epochs;
  if (d_events > st.max_epoch_events) {
    st.max_epoch_events = d_events;
    st.max_epoch_events_epoch = st.cur_epoch;
  }
  ++st.epochs;
}

void ShardTelemetry::shard_incidents(std::size_t shard,
                                     std::uint32_t active) {
  if (shard >= shards_.size()) return;
  shards_[shard].active_incidents = active;
}

void ShardTelemetry::worker_mark(unsigned worker, Mark m) {
  if (!cfg_.wall_spans || worker >= workers_.size()) return;
  WorkerState& w = workers_[worker];
  const std::uint64_t now = wall_now_ns();
  if (w.phase_open) {
    if (w.phase < kPhases) w.busy_ns[w.phase] += now - w.phase_t0_ns;
    if (w.spans.size() < kMaxWorkerSpans) {
      w.spans.push_back(WorkerSpan{w.phase_t0_ns, now, w.cur_epoch, w.phase});
    } else {
      ++w.dropped;
    }
  }
  if (m == Mark::kEnd) {
    w.phase_open = false;
    return;
  }
  if (m == Mark::kDrain) w.cur_epoch = w.drains_seen++;
  w.phase = static_cast<std::uint8_t>(m);
  w.phase_open = true;
  w.phase_t0_ns = now;
}

void ShardTelemetry::epoch_end(TimePs window_end, TimePs horizon) {
  const std::uint64_t e = epochs_done_;
  std::uint64_t total = 0;
  std::uint64_t mx = 0;
  for (std::size_t s = 0; s < cfg_.shard_count; ++s) {
    const EpochShardRecord& r = ring_at(e, s);
    if (r.epoch != e) continue;
    total += r.events;
    if (r.events > mx) mx = r.events;
  }
  total_events_ += total;
  epoch_max_sum_ += mx;
  last_window_end_ = window_end;
  ++epochs_done_;
  if (!timing_) return;
  const std::uint64_t now = wall_now_ns();
  const double epoch_ms =
      static_cast<double>(now - last_epoch_ns_) / 1e6;
  epoch_wall_ms_[e % cfg_.ring_epochs] = epoch_ms;
  last_epoch_ns_ = now;
  if (cfg_.epoch_budget_ms > 0 && !budget_tripped_ &&
      epoch_ms > static_cast<double>(cfg_.epoch_budget_ms)) {
    budget_tripped_ = true;
    // The coordinator cannot unwind mid-epoch (the other workers are
    // parked at a barrier), so a flight-dir configuration error is
    // reported on stderr here instead of thrown; the dump itself
    // already fell back to stderr.
    try {
      dump_flight("epoch_budget_exceeded");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
    }
  }
  if (cfg_.progress) heartbeat(now, window_end, horizon);
}

void ShardTelemetry::heartbeat(std::uint64_t now_ns, TimePs window_end,
                               TimePs horizon) {
  if (last_beat_ns_ != 0 && now_ns - last_beat_ns_ < 1'000'000'000ull) {
    return;
  }
  last_beat_ns_ = now_ns;
  const double elapsed_s = static_cast<double>(now_ns - t0_ns_) / 1e9;
  const double ev_s =
      elapsed_s > 0 ? static_cast<double>(total_events_) / elapsed_s : 0.0;
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "[%s] epoch %llu, t=%.2f/%.2f ms, %.2fM ev/s, "
                "imbalance %.2fx",
                cfg_.label.c_str(),
                static_cast<unsigned long long>(epochs_done_),
                to_seconds(window_end) * 1e3, to_seconds(horizon) * 1e3,
                ev_s / 1e6, imbalance_ratio());
  std::string line(buf);
  if (cfg_.incidents) {
    // Open congestion incidents right now, summed over the shards
    // (each shard's owner wrote its count before the epoch barrier).
    std::uint64_t active = 0;
    for (const ShardStats& st : shards_) active += st.active_incidents;
    std::snprintf(buf, sizeof(buf), ", %llu incidents",
                  static_cast<unsigned long long>(active));
    line += buf;
  }
  line += '\n';
  std::fputs(line.c_str(), stderr);
}

void ShardTelemetry::note_error(std::string what) { error_ = std::move(what); }

std::uint64_t ShardTelemetry::spill_total() const {
  std::uint64_t n = 0;
  for (const ShardStats& st : shards_) n += st.spilled;
  return n;
}

std::uint64_t ShardTelemetry::inbox_peak_depth() const {
  std::uint64_t peak = 0;
  for (const ShardStats& st : shards_) peak = std::max(peak, st.inbox_peak);
  return peak;
}

double ShardTelemetry::imbalance_ratio() const {
  if (total_events_ == 0 || cfg_.shard_count == 0) return 0.0;
  // (average per-epoch max shard delta) / (average per-epoch mean shard
  // delta) = epoch_max_sum * shard_count / total_events.
  return static_cast<double>(epoch_max_sum_) *
         static_cast<double>(cfg_.shard_count) /
         static_cast<double>(total_events_);
}

std::vector<std::uint32_t> ShardTelemetry::top_stragglers(
    std::size_t n) const {
  if (total_events_ == 0) return {};
  std::vector<std::uint32_t> ids(shards_.size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::sort(ids.begin(), ids.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              if (shards_[a].events != shards_[b].events) {
                return shards_[a].events > shards_[b].events;
              }
              return a < b;
            });
  if (ids.size() > n) ids.resize(n);
  return ids;
}

Json ShardTelemetry::shards_json() const {
  Json j = Json::object();
  j.set("schema", Json(kShardsSchemaId));
  j.set("shard_count", Json(static_cast<std::uint64_t>(cfg_.shard_count)));
  j.set("epochs", Json(epochs_done_));
  j.set("lookahead_ps", Json(cfg_.lookahead));
  Json ev = Json::object();
  ev.set("total", Json(total_events_));
  ev.set("per_epoch_max_sum", Json(epoch_max_sum_));
  const double mean =
      epochs_done_ > 0 && cfg_.shard_count > 0
          ? static_cast<double>(total_events_) /
                (static_cast<double>(epochs_done_) *
                 static_cast<double>(cfg_.shard_count))
          : 0.0;
  ev.set("mean_per_epoch_shard", Json(mean));
  ev.set("imbalance_ratio", Json(imbalance_ratio()));
  j.set("events", std::move(ev));
  Json stragglers = Json::array();
  if (total_events_ > 0) {
    for (const std::uint32_t id : top_stragglers(3)) {
      stragglers.push_back(Json(static_cast<std::uint64_t>(id)));
    }
  }
  j.set("stragglers", std::move(stragglers));
  Json per = Json::array();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardStats& st = shards_[s];
    Json sj = Json::object();
    sj.set("shard", Json(static_cast<std::uint64_t>(s)));
    sj.set("events", Json(st.events));
    sj.set("busy_epochs", Json(st.busy_epochs));
    sj.set("max_epoch_events", Json(st.max_epoch_events));
    sj.set("max_epoch_events_epoch", Json(st.max_epoch_events_epoch));
    Json in = Json::object();
    in.set("pushed", Json(st.pushed));
    in.set("drained", Json(st.drained));
    in.set("spilled", Json(st.spilled));
    in.set("max_epoch_spill", Json(st.max_epoch_spill));
    in.set("peak_depth", Json(st.inbox_peak));
    sj.set("ingress", std::move(in));
    per.push_back(std::move(sj));
  }
  j.set("per_shard", std::move(per));
  return j;
}

Json ShardTelemetry::flight_json(const char* reason) const {
  Json j = Json::object();
  j.set("schema", Json(kFlightSchemaId));
  j.set("label", Json(cfg_.label));
  j.set("reason", Json(std::string(reason)));
  j.set("shard_count", Json(static_cast<std::uint64_t>(cfg_.shard_count)));
  j.set("workers", Json(static_cast<std::uint64_t>(cfg_.workers)));
  j.set("ring_epochs", Json(static_cast<std::uint64_t>(cfg_.ring_epochs)));
  j.set("lookahead_ps", Json(cfg_.lookahead));
  j.set("epochs_completed", Json(epochs_done_));
  j.set("events_total", Json(total_events_));
  j.set("imbalance_ratio", Json(imbalance_ratio()));
  if (!error_.empty()) j.set("error", Json(error_));
  // Window: the newest ring_epochs-1 completed epochs (the oldest slot
  // may be concurrently recycled in a live budget dump), plus the
  // current partially recorded epoch when any shard reached it (an
  // exception mid-epoch leaves such records behind).
  bool partial = false;
  for (std::size_t s = 0; s < cfg_.shard_count; ++s) {
    if (ring_at(epochs_done_, s).epoch == epochs_done_) partial = true;
  }
  const std::uint64_t hi_excl = epochs_done_ + (partial ? 1 : 0);
  const std::uint64_t span = cfg_.ring_epochs - 1;
  const std::uint64_t lo = hi_excl > span ? hi_excl - span : 0;
  Json epochs = Json::array();
  for (std::uint64_t e = lo; e < hi_excl; ++e) {
    Json shards = Json::array();
    TimePs window_end = 0;
    for (std::size_t s = 0; s < cfg_.shard_count; ++s) {
      const EpochShardRecord& r = ring_at(e, s);
      if (r.epoch != e) continue;
      window_end = std::max(window_end, r.window_end);
      Json sj = Json::object();
      sj.set("shard", Json(static_cast<std::uint64_t>(s)));
      sj.set("events", Json(r.events));
      sj.set("pushed", Json(r.pushed));
      sj.set("drained", Json(r.drained));
      sj.set("spilled", Json(r.spilled));
      sj.set("inbox_peak", Json(r.inbox_peak));
      sj.set("inbox_depth", Json(r.inbox_depth));
      shards.push_back(std::move(sj));
    }
    if (shards.size() == 0) continue;
    Json row = Json::object();
    row.set("epoch", Json(e));
    row.set("window_end_ps", Json(window_end));
    row.set("partial", Json(e >= epochs_done_));
    if (e < epochs_done_) {
      row.set("wall_ms", Json(epoch_wall_ms_[e % cfg_.ring_epochs]));
    }
    row.set("shards", std::move(shards));
    epochs.push_back(std::move(row));
  }
  j.set("epochs", std::move(epochs));
  if (spill_total() > 0) {
    j.set("advice",
          Json("inbox spills observed; raise inbox_capacity to >= " +
               std::to_string(std::bit_ceil(inbox_peak_depth()))));
  }
  return j;
}

void ShardTelemetry::dump_flight(std::ostream& os,
                                 const char* reason) const {
  flight_json(reason).dump(os, 2);
  os << '\n';
}

void ShardTelemetry::dump_flight(const char* reason) {
  if (!cfg_.flight_dir.empty()) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(cfg_.flight_dir, ec);
    const fs::path path =
        fs::path(cfg_.flight_dir) /
        (RunManifest::sanitize(cfg_.label) + ".flight.json");
    bool written = false;
    if (!ec) {
      std::ofstream os(path, std::ios::binary);
      dump_flight(os, reason);
      written = static_cast<bool>(os);
    }
    if (written) {
      std::fprintf(stderr, "[%s] flight recorder (%s) written to %s\n",
                   cfg_.label.c_str(), reason, path.string().c_str());
      return;
    }
    // Same contract as HWATCH_METRICS_DIR / HWATCH_TRACE_DIR: an
    // unusable directory is a configuration error, never a silent
    // no-op.  The document still reaches stderr first, so the flight
    // data survives the throw; callers that must not let a dump
    // failure mask a shard's own exception catch this (see
    // ShardGroup::dump_flight_on_error and the budget watchdog).
    dump_flight(std::cerr, reason);
    throw std::runtime_error(
        std::string("HWATCH_FLIGHT_DIR=\"") + cfg_.flight_dir +
        "\": cannot create the directory or write \"" + path.string() +
        "\"; point HWATCH_FLIGHT_DIR at a writable path");
  }
  dump_flight(std::cerr, reason);
}

std::uint64_t ShardTelemetry::worker_spans_dropped() const {
  std::uint64_t n = 0;
  for (const WorkerState& w : workers_) n += w.dropped;
  return n;
}

void ShardTelemetry::export_chrome_workers(
    std::ostream& os, std::string_view process_name) const {
  os << "{\"schema\":\"hwatch.trace_export/v1\",\"dropped_events\":"
     << worker_spans_dropped() << ",\"traceEvents\":[";
  bool first = true;
  const auto emit_sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  emit_sep();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
     << "\"args\":{\"name\":";
  Json::write_escaped(os, std::string(process_name) + "/workers");
  os << "}}";
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    emit_sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << (w + 1) << ",\"args\":{\"name\":\"worker" << w << "\"}}";
  }
  // K-way merge of the per-worker B/E streams.  Within a worker, spans
  // are sequential and non-overlapping, so each stream is already
  // time-ordered; picking the globally smallest next timestamp keeps
  // the merged ts monotonic and every (pid,tid) stack balanced.
  std::vector<std::size_t> pos(workers_.size(), 0);
  const auto event_ns = [&](std::size_t w) {
    const WorkerSpan& sp = workers_[w].spans[pos[w] / 2];
    return pos[w] % 2 == 0 ? sp.t0_ns : sp.t1_ns;
  };
  for (;;) {
    std::size_t best = workers_.size();
    std::uint64_t best_ns = 0;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (pos[w] >= workers_[w].spans.size() * 2) continue;
      const std::uint64_t t = event_ns(w);
      if (best == workers_.size() || t < best_ns) {
        best = w;
        best_ns = t;
      }
    }
    if (best == workers_.size()) break;
    const WorkerSpan& sp = workers_[best].spans[pos[best] / 2];
    const bool open = pos[best] % 2 == 0;
    emit_sep();
    os << "{\"name\":\"" << phase_name(sp.phase) << "\",\"ph\":\""
       << (open ? 'B' : 'E') << "\",\"pid\":1,\"tid\":" << (best + 1)
       << ",\"ts\":";
    write_ns_as_us(os, best_ns - std::min(best_ns, t0_ns_));
    if (open) os << ",\"args\":{\"epoch\":" << sp.epoch << "}";
    os << "}";
    ++pos[best];
  }
  os << "\n]}\n";
}

void ShardTelemetry::report(std::ostream& os) const {
  char buf[256];
  os << "-- shard telemetry (deterministic counters; wall data "
        "stderr-only) --\n";
  std::snprintf(buf, sizeof(buf),
                "epochs %llu, shards %llu, events %llu, imbalance %.2fx "
                "(per-epoch max/mean shard events)\n",
                static_cast<unsigned long long>(epochs_done_),
                static_cast<unsigned long long>(cfg_.shard_count),
                static_cast<unsigned long long>(total_events_),
                imbalance_ratio());
  os << buf;
  if (total_events_ > 0) {
    os << "stragglers:";
    for (const std::uint32_t id : top_stragglers(3)) {
      std::snprintf(buf, sizeof(buf), " shard %u (%.1f%% of events)", id,
                    100.0 * static_cast<double>(shards_[id].events) /
                        static_cast<double>(total_events_));
      os << buf;
    }
    os << "\n";
  }
  std::uint64_t pushed = 0;
  std::uint64_t drained = 0;
  for (const ShardStats& st : shards_) {
    pushed += st.pushed;
    drained += st.drained;
  }
  const std::uint64_t spilled = spill_total();
  std::snprintf(buf, sizeof(buf),
                "cross-shard: pushed %llu, drained %llu, spilled %llu, "
                "inbox peak depth %llu\n",
                static_cast<unsigned long long>(pushed),
                static_cast<unsigned long long>(drained),
                static_cast<unsigned long long>(spilled),
                static_cast<unsigned long long>(inbox_peak_depth()));
  os << buf;
  if (spilled > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "advice: raise inbox_capacity to >= %llu (spills observed)\n",
        static_cast<unsigned long long>(
            std::bit_ceil(inbox_peak_depth())));
    os << buf;
  }
  if (cfg_.wall_spans) {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const WorkerState& ws = workers_[w];
      const std::uint64_t total_ns =
          ws.busy_ns[0] + ws.busy_ns[1] + ws.busy_ns[2];
      if (total_ns == 0) continue;
      const auto pct = [&](std::size_t p) {
        return 100.0 * static_cast<double>(ws.busy_ns[p]) /
               static_cast<double>(total_ns);
      };
      std::snprintf(buf, sizeof(buf),
                    "worker %llu: drain %.1f%%, run %.1f%%, "
                    "barrier wait %.1f%% (of %.1f ms)\n",
                    static_cast<unsigned long long>(w), pct(0), pct(2),
                    pct(1), static_cast<double>(total_ns) / 1e6);
      os << buf;
    }
  }
}

}  // namespace hwatch::sim
