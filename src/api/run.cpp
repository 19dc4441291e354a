#include "api/run.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sim/context.hpp"
#include "sim/self_profiler.hpp"
#include "sim/shard_group.hpp"
#include "sim/shard_telemetry.hpp"
#include "stats/incident.hpp"

namespace hwatch::api::detail {

sim::Json aqm_json(const AqmConfig& a) {
  sim::Json j = sim::Json::object();
  j.set("kind", to_string(a.kind));
  j.set("buffer_packets", a.buffer_packets);
  j.set("mark_threshold_packets", a.mark_threshold_packets);
  j.set("byte_mode", a.byte_mode);
  return j;
}

unsigned positive_env(const char* name, unsigned long max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return 0;
  const std::string value(raw);
  const auto bad = [&](const char* why) {
    throw std::invalid_argument(std::string(name) + "=\"" + value +
                                "\": " + why +
                                " (expected a positive integer)");
  };
  std::size_t pos = 0;
  unsigned long parsed = 0;
  try {
    parsed = std::stoul(value, &pos, 10);
  } catch (const std::invalid_argument&) {
    bad("not a number");
  } catch (const std::out_of_range&) {
    bad("out of range");
  }
  if (pos != value.size()) bad("trailing characters");
  if (value[0] == '-') bad("negative");
  if (parsed == 0) bad("must be >= 1");
  if (parsed > max) bad("out of range");
  return static_cast<unsigned>(parsed);
}

bool env_flag(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return false;
  const std::string value(raw);
  if (value == "0") return false;
  if (value == "1") return true;
  throw std::invalid_argument(std::string(name) + "=\"" + value +
                              "\": expected 0 or 1");
}

namespace {

// Wall-clock time feeds only the manifest `environment` section and the
// stderr profile, which RunManifest::deterministic_dump() excludes —
// simulated time and every result field stay seed-derived.
using WallClock = std::chrono::steady_clock;  // hwlint: allow(nondeterminism)

/// One part's epoch protocol: drain the cross-part inboxes, report the
/// earliest pending event, then run the local scheduler through the
/// window.  The telemetry hooks cost one predictable null-check each
/// when detached.
struct PartRun final : sim::ShardTask {
  sim::SimContext* ctx = nullptr;
  std::vector<net::CrossShardChannel*>* ingress = nullptr;
  std::vector<std::pair<net::Node*, net::ShardInbox::Item>> scratch;
  sim::ShardTelemetry* telemetry = nullptr;
  stats::IncidentDetector* doctor = nullptr;
  std::size_t shard_id = 0;

  void drain(sim::TimePs window_start) override {
    if (telemetry != nullptr) {
      // Producers are quiescent across the drain barrier, so the
      // producer-owned counters (pushed / spilled / peak depth) are
      // safe to read here — and ONLY here (see ShardInbox).
      sim::ShardTelemetry::IngressSample in;
      for (const net::CrossShardChannel* ch : *ingress) {
        const net::ShardInbox& inbox = ch->inbox();
        in.pushed += inbox.pushed();
        in.spilled += inbox.spilled();
        in.peak_depth = std::max(in.peak_depth, inbox.peak_depth());
        in.depth += inbox.depth();
      }
      telemetry->shard_drain(shard_id, window_start, in);
    }
    net::drain_cross_shard_channels(*ingress, scratch);
  }
  // The drain moved every inbox item into the scheduler, so its front
  // is the part's whole answer.
  sim::TimePs next_event_time() override {
    return ctx->scheduler().next_event_time().value_or(sim::kTimeNever);
  }
  void run(sim::TimePs window_end) override {
    ctx->scheduler().run_until(window_end);
    if (telemetry != nullptr) {
      telemetry->shard_run(shard_id, window_end,
                           ctx->scheduler().executed());
      if (doctor != nullptr) {
        // Open-episode count for the heartbeat's incident column —
        // sim-time detector state, owner-written like the counters.
        telemetry->shard_incidents(shard_id, doctor->active_count());
      }
    }
  }
};

/// The bottleneck's occupancy, utilization and goodput series, sampled
/// on part 0's scheduler in this (scheduling) order.
struct BottleneckSamplers {
  BottleneckSamplers(sim::Scheduler& sched, net::Link& link,
                     sim::TimePs interval, sim::TimePs until)
      : queue(stats::make_queue_sampler(sched, link, interval, until)),
        utilization(sched, link, interval, until),
        throughput(sched, link, interval, until) {}

  stats::PeriodicSampler queue;
  stats::UtilizationSampler utilization;
  stats::ThroughputSampler throughput;
};

using Shims = std::vector<std::unique_ptr<core::HypervisorShim>>;

/// Registers one part's live gauges under `prefix` ("shard<N>." when
/// there are several parts).  Every closure reads only state of its own
/// part — links, transports, shims, the consumer-side drained counter —
/// so the series are byte-identical across worker counts.  Inbox DEPTH
/// is deliberately not a gauge: mid-run it depends on producer timing.
void register_gauges(sim::MetricsRegistry& m, const std::string& prefix,
                     const topo::Part& part, const Shims* shims,
                     const workload::TrafficManager* tm, bool cross) {
  if (shims != nullptr) {
    m.register_gauge(prefix + "hwatch.flow_table_entries", [shims] {
      std::size_t n = 0;
      for (const auto& s : *shims) n += s->flow_table().size();
      return static_cast<double>(n);
    });
  }
  const net::Network* net = part.net.get();
  m.register_gauge(prefix + "net.queued_pkts_total", [net] {
    std::size_t n = 0;
    for (const auto& l : net->links()) n += l->qdisc().len_packets();
    return static_cast<double>(n);
  });
  m.register_gauge(prefix + "tcp.bytes_in_flight", [tm] {
    return static_cast<double>(tm->total_bytes_in_flight());
  });
  if (cross) {
    const std::vector<net::CrossShardChannel*>* ingress = &part.ingress;
    m.register_gauge(prefix + "shard.ingress.drained", [ingress] {
      std::uint64_t n = 0;
      for (const net::CrossShardChannel* ch : *ingress) {
        n += ch->inbox().popped();
      }
      return static_cast<double>(n);
    });
  }
}

/// Merges every part's sampler output into one name-sorted series
/// object (names are unique: with several parts each carries its
/// "shard<N>." prefix).
sim::Json series_json(
    const std::vector<std::unique_ptr<stats::MetricsSampler>>& samplers) {
  std::vector<const stats::MetricsSampler::GaugeSeries*> sorted;
  for (const auto& sampler : samplers) {
    for (const auto& g : sampler->series()) sorted.push_back(&g);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->name < b->name; });
  sim::Json out = sim::Json::object();
  for (const auto* g : sorted) {
    sim::Json arr = sim::Json::array();
    for (const auto& p : g->series) {
      sim::Json point = sim::Json::array();
      point.push_back(sim::Json(p.time));
      point.push_back(sim::Json(p.value));
      arr.push_back(std::move(point));
    }
    out.set(g->name, std::move(arr));
  }
  return out;
}

/// The manifest `results` section: the common keys, then the
/// bottleneck keys or the epoch keys, then the shim counters.
sim::Json results_json(const ScenarioResults& res, bool bottleneck,
                       bool cross) {
  sim::Json j = sim::Json::object();
  j.set("flows", res.records.size());
  std::size_t completed = 0;
  for (const auto& r : res.records) completed += r.completed ? 1 : 0;
  j.set("completed_flows", completed);
  j.set("incomplete_short_flows", res.incomplete_short_flows());
  j.set("fabric_drops", res.fabric_drops);
  j.set("retransmits", res.retransmits);
  j.set("timeouts", res.timeouts);
  j.set("events_executed", res.events_executed);
  if (bottleneck) {
    j.set("mean_utilization", res.mean_utilization());
    sim::Json q = sim::Json::object();
    q.set("enqueued", res.bottleneck_queue.enqueued);
    q.set("dequeued", res.bottleneck_queue.dequeued);
    q.set("dropped", res.bottleneck_queue.dropped);
    q.set("ecn_marked", res.bottleneck_queue.ecn_marked);
    q.set("max_len_pkts", res.bottleneck_queue.max_len_pkts);
    j.set("bottleneck_queue", std::move(q));
  }
  if (cross) {
    j.set("epochs", res.epochs);
    j.set("shard_imbalance", res.shard_imbalance);
  }
  sim::Json s = sim::Json::object();
  s.set("probes_injected", res.shim.probes_injected);
  s.set("probe_bytes_injected", res.shim.probe_bytes_injected);
  s.set("synacks_rewritten", res.shim.synacks_rewritten);
  s.set("acks_rewritten", res.shim.acks_rewritten);
  s.set("window_decisions", res.shim.window_decisions);
  s.set("flows_tracked", res.shim.flows_tracked);
  j.set("shim", std::move(s));
  return j;
}

/// Writes `body` to `<dir>/<stem><suffix>` (dir from HWATCH_TRACE_DIR);
/// throws naming the variable when the file cannot be written.
void write_trace_file(const char* dir, const std::string& stem,
                      const char* suffix, const std::string& body) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path path = std::filesystem::path(dir) /
                                     (stem + suffix);
  std::ofstream out(path, std::ios::binary);
  out << body;
  if (!out) {
    throw std::runtime_error(
        std::string("HWATCH_TRACE_DIR=\"") + dir +
        "\": cannot create the directory or write \"" + path.string() +
        "\"; point HWATCH_TRACE_DIR at a writable path");
  }
}

}  // namespace

ScenarioResults run_scenario(const ScenarioSpec& spec) {
  // A zero interval would make every sampler re-arm itself at `now`
  // forever, so the run would never reach its horizon.
  if (spec.sample_interval <= 0) {
    throw std::invalid_argument(
        std::string(spec.kind) + " scenario: sample_interval = " +
        std::to_string(spec.sample_interval) + " ps; must be > 0");
  }
  // A negative horizon would run nothing and return an empty result.
  // Zero stays legal: it builds the scenario and executes no event.
  if (spec.duration < 0) {
    throw std::invalid_argument(
        std::string(spec.kind) + " scenario: duration = " +
        std::to_string(spec.duration) + " ps; must be >= 0");
  }
  // The environment widens the spec's observability switches.
  const char* metrics_dir = std::getenv("HWATCH_METRICS_DIR");
  const char* trace_dir = std::getenv("HWATCH_TRACE_DIR");
  const char* flight_dir = std::getenv("HWATCH_FLIGHT_DIR");
  // 0 when unset; a value that is not a positive integer throws here,
  // before any part exists, instead of quietly disabling the watchdog.
  const std::uint64_t epoch_budget_ms = positive_env(
      "HWATCH_EPOCH_BUDGET_MS", std::numeric_limits<unsigned>::max());
  const bool detect = env_flag("HWATCH_INCIDENTS") || spec.detect_incidents;
  const bool collect = spec.collect_metrics || metrics_dir != nullptr || detect;
  const bool trace = spec.trace_spans || trace_dir != nullptr;
  const bool profile = env_flag("HWATCH_PROFILE") || spec.profile;
  const bool progress = env_flag("HWATCH_PROGRESS");
  const bool flight_forced = env_flag("HWATCH_FLIGHT_DUMP");
  const WallClock::time_point wall0 = WallClock::now();
  const std::string label =
      spec.run_label.empty()
          ? std::string(spec.kind) + "-seed" + std::to_string(spec.seed)
          : spec.run_label;

  ScenarioTopology topology = spec.build();
  std::vector<topo::Part>& parts = topology.parts;
  const std::size_t n = parts.size();
  const bool cross = topology.lookahead > 0;
  for (std::size_t p = 0; p < n; ++p) {
    sim::SimContext& ctx = *parts[p].ctx;
    if (collect) ctx.metrics().set_enabled(true);
    if (trace) {
      // Striped span ids keep the merged trace export unambiguous.
      ctx.tracer().set_id_base(static_cast<std::uint64_t>(p) << 40);
      ctx.tracer().set_enabled(true);
    }
    if (profile) ctx.profiler().set_enabled(true);
  }

  // One incident detector per part: every hook fires on the part's own
  // context, episode state never crosses a part boundary, and the
  // end-of-run fold walks the parts in order — so the incidents section
  // is a pure function of (config, seed), byte-identical across worker
  // counts.
  std::vector<std::unique_ptr<stats::IncidentDetector>> doctors;
  if (detect) {
    for (const topo::Part& part : parts) {
      auto doctor = std::make_unique<stats::IncidentDetector>();
      part.ctx->set_incident_sink(doctor.get());
      for (const auto& l : part.net->links()) {
        const std::uint32_t id = doctor->register_queue(
            l->name(), l->qdisc().capacity_packets());
        l->qdisc().attach_incident_sink(doctor.get(), id);
      }
      doctors.push_back(std::move(doctor));
    }
  }

  // HWatch shims: each host's shim forks from its own part's RNG, so the
  // probe schedule is a pure function of (seed, part), untouched by
  // worker count.
  std::vector<Shims> shims(n);
  if (spec.hwatch != nullptr) {
    for (std::size_t p = 0; p < n; ++p) {
      net::Network& net = *parts[p].net;
      shims[p].reserve(net.hosts().size());
      for (net::Host* host : net.hosts()) {
        shims[p].push_back(core::install_hwatch(net, *host, *spec.hwatch,
                                                parts[p].ctx->rng().fork()));
      }
    }
  }

  TrafficManagers tms;
  tms.reserve(n);
  for (const topo::Part& part : parts) {
    tms.push_back(std::make_unique<workload::TrafficManager>(*part.net));
  }
  spec.add_workload(tms);

  std::optional<BottleneckSamplers> bottleneck;
  if (topology.bottleneck != nullptr) {
    bottleneck.emplace(parts[0].ctx->scheduler(), *topology.bottleneck,
                       spec.sample_interval, spec.duration);
  }

  // Gauges, then one MetricsSampler per part ticking on the part's own
  // scheduler.  Gauge closures reference run-scope objects; samplers
  // only fire inside the run, while they are all alive.
  std::vector<std::unique_ptr<stats::MetricsSampler>> samplers;
  if (collect) {
    if (topology.bottleneck != nullptr) {
      sim::MetricsRegistry& m = parts[0].ctx->metrics();
      net::Link* link = topology.bottleneck;
      const double width = std::max(
          1.0, static_cast<double>(topology.bottleneck_buffer_pkts) / 25.0);
      link->qdisc().attach_depth_histogram(&m.histogram(
          "queue.bottleneck.depth_pkts",
          sim::Histogram::linear_bounds(0, width, 26)));
      m.register_gauge("queue.bottleneck.depth_bytes", [link] {
        return static_cast<double>(link->qdisc().len_bytes());
      });
      m.register_gauge("queue.bottleneck.depth_pkts", [link] {
        return static_cast<double>(link->qdisc().len_packets());
      });
    }
    for (std::size_t p = 0; p < n; ++p) {
      const std::string prefix =
          n > 1 ? "shard" + std::to_string(p) + "." : "";
      // A single part always reports its flow table, HWatch on or off.
      const bool flow_table = spec.hwatch != nullptr || n == 1;
      register_gauges(parts[p].ctx->metrics(), prefix, parts[p],
                      flow_table ? &shims[p] : nullptr, tms[p].get(), cross);
      samplers.push_back(std::make_unique<stats::MetricsSampler>(
          *parts[p].ctx, spec.sample_interval, spec.duration));
    }
  }

  // Shard telemetry, only with several parts: deterministic counters
  // whenever the manifest wants them, wall-clock timelines only for the
  // wall-clock consumers.
  const bool wall_spans = trace || profile;
  std::optional<sim::ShardTelemetry> tel;
  if (n > 1) {
    if (spec.shard_telemetry || collect || wall_spans || progress ||
        epoch_budget_ms > 0 || flight_dir != nullptr ||
        flight_forced) {
      sim::ShardTelemetry::Config tc;
      tc.shard_count = n;
      tc.workers = spec.workers;
      tc.label = label;
      tc.lookahead = topology.lookahead;
      tc.wall_spans = wall_spans;
      tc.progress = progress;
      tc.incidents = detect;
      tc.epoch_budget_ms = epoch_budget_ms;
      if (flight_dir != nullptr) tc.flight_dir = flight_dir;
      tel.emplace(std::move(tc));
    }
  }

  // Conservative epochs to the horizon; without cross-part links, one
  // window (ShardGroup needs it positive even at horizon 0).
  std::vector<PartRun> tasks(n);
  sim::ShardGroup group(spec.workers);
  for (std::size_t p = 0; p < n; ++p) {
    tasks[p].ctx = parts[p].ctx.get();
    tasks[p].ingress = &parts[p].ingress;
    tasks[p].telemetry = tel ? &*tel : nullptr;
    tasks[p].doctor = detect ? doctors[p].get() : nullptr;
    tasks[p].shard_id = p;
    group.add(&tasks[p]);
  }
  group.set_telemetry(tel ? &*tel : nullptr);
  const sim::TimePs window =
      cross ? topology.lookahead : std::max<sim::TimePs>(spec.duration, 1);
  const WallClock::time_point run0 = WallClock::now();
  group.run(spec.duration, window);
  const auto run_wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() -
                                                           run0)
          .count());
  if (flight_forced && tel) tel->dump_flight("forced");
  // Close every still-open episode at each part's own horizon time —
  // part-local state, so the order of this loop cannot matter.
  for (std::size_t p = 0; p < doctors.size(); ++p) {
    doctors[p]->finalize(parts[p].ctx->now());
  }

  ScenarioResults res;
  for (std::size_t p = 0; p < n; ++p) {
    // Moved, not copied: the records are a run's largest result.
    auto records = tms[p]->collect_records();
    if (res.records.empty()) {
      res.records = std::move(records);
    } else {
      res.records.insert(res.records.end(),
                         std::make_move_iterator(records.begin()),
                         std::make_move_iterator(records.end()));
    }
    res.fabric_drops += parts[p].net->total_queue_drops();
    res.retransmits += tms[p]->total_retransmits();
    res.timeouts += tms[p]->total_timeouts();
    res.events_executed += parts[p].ctx->scheduler().executed();
    for (const auto& s : shims[p]) {
      res.shim.probes_injected += s->stats().probes_injected;
      res.shim.probe_bytes_injected += s->stats().probe_bytes_injected;
      res.shim.synacks_rewritten += s->stats().synacks_rewritten;
      res.shim.acks_rewritten += s->stats().acks_rewritten;
      res.shim.window_decisions += s->stats().window_decisions;
      res.shim.flows_tracked += s->flow_table().created();
    }
  }
  if (bottleneck) {
    res.queue_packets = bottleneck->queue.series();
    res.utilization = bottleneck->utilization.series();
    res.throughput_gbps = bottleneck->throughput.series();
    res.bottleneck_queue = topology.bottleneck->qdisc().stats();
  }
  if (cross) res.epochs = group.epochs();
  if (tel) res.shard_imbalance = tel->imbalance_ratio();

  if (collect) {
    // End-of-run harvest: quantities that already have cheap always-on
    // aggregates become registry counters here, at zero hot-path cost —
    // per part into the part's own registry, then a pure merge, so no
    // counter ever crosses a context boundary.
    std::uint64_t peak_depth_max = 0;
    for (std::size_t p = 0; p < n; ++p) {
      sim::MetricsRegistry& m = parts[p].ctx->metrics();
      const sim::Scheduler& sched = parts[p].ctx->scheduler();
      m.counter("sched.events.executed").inc(sched.executed());
      m.counter("sched.events.scheduled").inc(sched.scheduled());
      m.counter("sched.events.cancelled").inc(sched.cancelled());
      m.counter("sched.heap_peak").inc(sched.heap_peak());
      m.counter("net.fabric_drops").inc(parts[p].net->total_queue_drops());
      m.counter("tcp.retransmits").inc(tms[p]->total_retransmits());
      m.counter("tcp.timeouts").inc(tms[p]->total_timeouts());
      if (cross) {
        std::uint64_t pushed = 0, spilled = 0, drained = 0;
        for (const net::CrossShardChannel* ch : parts[p].ingress) {
          pushed += ch->inbox().pushed();
          spilled += ch->inbox().spilled();
          drained += ch->inbox().popped();
          peak_depth_max =
              std::max(peak_depth_max, ch->inbox().peak_depth());
        }
        m.counter("shard.ingress.pushed").inc(pushed);
        m.counter("shard.ingress.spilled").inc(spilled);
        m.counter("shard.ingress.drained").inc(drained);
      }
    }
    // Values that don't merge by summation live in part 0's registry.
    sim::MetricsRegistry& m0 = parts[0].ctx->metrics();
    if (bottleneck) {
      const net::QueueStats& q = res.bottleneck_queue;
      m0.counter("queue.bottleneck.enqueued").inc(q.enqueued);
      m0.counter("queue.bottleneck.dequeued").inc(q.dequeued);
      m0.counter("queue.bottleneck.dropped").inc(q.dropped);
      m0.counter("queue.bottleneck.ecn_marked").inc(q.ecn_marked);
    }
    if (cross) m0.counter("shard.ingress.peak_depth").inc(peak_depth_max);
    // FCT histogram over the merged records (bucket counts are
    // order-independent).
    sim::Histogram& fct = m0.histogram(
        "tcp.fct_ms", sim::Histogram::exponential_bounds(0.05, 2.0, 18));
    for (const auto& r : res.records) {
      if (r.completed) fct.record(r.fct_ms());
    }
    std::vector<sim::MetricsSnapshot> snapshots;
    snapshots.reserve(n);
    for (const topo::Part& part : parts) {
      snapshots.push_back(part.ctx->metrics().snapshot());
    }

    sim::RunManifest& man = res.manifest;
    man.name = label;
    man.scenario_kind = spec.kind;
    man.seed = spec.seed;
    man.config = spec.config();
    man.results = results_json(res, bottleneck.has_value(), cross);
    man.results.set("fct_ms_percentiles",
                    stats::percentiles_json(stats::percentiles(fct)));
    if (tel) man.shards = tel->shards_json();
    if (detect) {
      // Part-ordered fold; incidents_json() re-sorts globally by
      // (start, kind, location, ...), so the result is independent of
      // the partition's numbering details and of worker count.
      std::vector<stats::Incident> all;
      for (const auto& d : doctors) {
        all.insert(all.end(), d->incidents().begin(), d->incidents().end());
      }
      man.incidents = stats::incidents_json(std::move(all));
    }
    man.metrics = sim::metrics_json(sim::merge_snapshots(snapshots));
    man.series = series_json(samplers);
    man.wall_time_ms =
        std::chrono::duration<double, std::milli>(WallClock::now() - wall0)
            .count();
    if (n > 1) man.sweep_threads = spec.workers;
    res.has_manifest = true;
    if (metrics_dir != nullptr &&
        man.write_file(metrics_dir).empty()) {
      throw std::runtime_error(
          std::string("HWATCH_METRICS_DIR=\"") + metrics_dir +
          "\": cannot create the directory or write the manifest file; "
          "point HWATCH_METRICS_DIR at a writable path");
    }
  }

  if (trace) {
    // Runs after the scheduler stops, so none of this touches the hot
    // path.
    std::vector<const sim::SpanTracer*> tracers;
    std::vector<std::string> process_names;
    for (std::size_t p = 0; p < n; ++p) {
      parts[p].ctx->tracer().close_open_spans(parts[p].ctx->now());
      tracers.push_back(&parts[p].ctx->tracer());
      process_names.push_back(n > 1 ? label + "/shard" + std::to_string(p)
                                    : label);
    }
    std::ostringstream spans;
    sim::dump_jsonl_merged(tracers, spans);
    res.trace_spans_jsonl = spans.str();
    std::ostringstream chrome;
    sim::export_chrome_merged(tracers, chrome, process_names);
    res.trace_chrome = chrome.str();
    // The per-worker epoch timeline is wall-clock data: a separate
    // artifact, never merged into the byte-compared exports above.
    if (tel) {
      std::ostringstream workers;
      tel->export_chrome_workers(workers, label);
      res.trace_workers_chrome = workers.str();
    }
    if (trace_dir != nullptr) {
      const std::string stem = sim::RunManifest::sanitize(label);
      write_trace_file(trace_dir, stem, ".spans.jsonl",
                       res.trace_spans_jsonl);
      write_trace_file(trace_dir, stem, ".trace.json", res.trace_chrome);
      if (!res.trace_workers_chrome.empty()) {
        write_trace_file(trace_dir, stem, ".workers.trace.json",
                         res.trace_workers_chrome);
      }
    }
  }

  if (profile) {
    // One merged self-profile across the parts (stderr: wall times
    // never belong in result streams), then the straggler report.
    sim::SelfProfiler merged;
    sim::EventLoopStats loop;
    for (const topo::Part& part : parts) {
      merged.merge_from(part.ctx->profiler());
      const sim::Scheduler& sched = part.ctx->scheduler();
      loop.events_executed += sched.executed();
      loop.events_scheduled += sched.scheduled();
      loop.heap_peak = std::max(loop.heap_peak, sched.heap_peak());
    }
    loop.wall_ns = run_wall_ns;
    merged.report(std::cerr, &loop);
    if (tel) tel->report(std::cerr);
  }
  return res;
}

}  // namespace hwatch::api::detail
