#include "sim/trace_span.hpp"

#include <cstdio>
#include <ostream>

#include "sim/random.hpp"

namespace hwatch::sim {

namespace {

void write_named_args(std::ostream& os, const SpanTracer::ArgNames& names,
                      const TraceEvent& ev, bool leading_comma) {
  const char* n[4] = {names.a, names.b, names.c, names.d};
  const std::uint64_t v[4] = {ev.a, ev.b, ev.c, ev.d};
  bool first = !leading_comma;
  for (int i = 0; i < 4; ++i) {
    if (n[i] == nullptr) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << n[i] << "\":" << v[i];
  }
}

void write_flow_name(std::ostream& os, const SpanTracer::FlowInfo& f) {
  os << "flow " << (f.key_hi >> 32) << ':' << (f.key_lo >> 16) << "->"
     << (f.key_hi & 0xffffffffull) << ':' << (f.key_lo & 0xffffull);
}

}  // namespace

void write_ts_us(std::ostream& os, TimePs t) {
  char buf[40];
  const auto v = static_cast<unsigned long long>(t);
  std::snprintf(buf, sizeof(buf), "%llu.%06llu", v / 1000000ull,
                v % 1000000ull);
  os << buf;
}

std::string_view to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kFlow:
      return "flow";
    case SpanKind::kHandshake:
      return "handshake";
    case SpanKind::kSlowStart:
      return "slow_start";
    case SpanKind::kRecovery:
      return "recovery";
    case SpanKind::kRto:
      return "rto";
    case SpanKind::kProbeTrain:
      return "probe_train";
    case SpanKind::kDecision:
      return "decision";
    case SpanKind::kRwndWrite:
      return "rwnd_write";
  }
  return "?";
}

std::string_view to_string(LatencyComponent c) {
  switch (c) {
    case LatencyComponent::kQueueing:
      return "queueing";
    case LatencyComponent::kTransmission:
      return "transmission";
    case LatencyComponent::kPropagation:
      return "propagation";
    case LatencyComponent::kRetxWait:
      return "retx_wait";
  }
  return "?";
}

const SpanTracer::ArgNames& SpanTracer::arg_names(SpanKind k) {
  // One table entry per SpanKind, indexed by the enum value.  Slot
  // meanings are shared between the 'B' and 'E' phases of a span: a span
  // begins with its `a` (and possibly c/d) payload and ends filling b/c.
  static const std::array<ArgNames, kSpanKinds> kNames = {{
      {"total_bytes", "bytes_acked", "retransmits", nullptr},   // kFlow
      {nullptr, "syn_timeouts", nullptr, nullptr},              // kHandshake
      {nullptr, "cwnd_bytes", nullptr, nullptr},                // kSlowStart
      {"enter_una", "exit_una", nullptr, nullptr},              // kRecovery
      {"snd_una", "exit_una", nullptr, nullptr},                // kRto
      {"probes", nullptr, "train", nullptr},                    // kProbeTrain
      {"x_um", "x_m", "immediate_pkts", "deferred_pkts"},       // kDecision
      {"rwnd_bytes", "raw_old", "raw_new", "synack"},           // kRwndWrite
  }};
  return kNames[static_cast<std::size_t>(k)];
}

bool SpanTracer::record(const TraceEvent& ev) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return false;
  }
  events_.push_back(ev);
  return true;
}

std::uint64_t SpanTracer::begin_span(TimePs t, SpanKind kind,
                                     std::uint64_t parent,
                                     std::uint64_t flow, std::uint64_t a,
                                     std::uint64_t b, std::uint64_t c,
                                     std::uint64_t d) {
  if (!enabled_) return 0;
  const std::uint64_t id = ++next_id_;
  TraceEvent ev;
  ev.t = t;
  ev.span = id;
  ev.parent = parent;
  // A flow span is the track everything else nests on — it owns itself.
  ev.flow = kind == SpanKind::kFlow ? id : flow;
  ev.a = a;
  ev.b = b;
  ev.c = c;
  ev.d = d;
  ev.kind = kind;
  ev.phase = 'B';
  record(ev);
  open_[id] = OpenSpan{kind, parent, ev.flow};
  return id;
}

void SpanTracer::end_span(TimePs t, std::uint64_t id, std::uint64_t b,
                          std::uint64_t c) {
  if (!enabled_ || id == 0) return;
  const auto it = open_.find(id);
  if (it == open_.end()) return;  // already closed (or foreign id)
  TraceEvent ev;
  ev.t = t;
  ev.span = id;
  ev.parent = it->second.parent;
  ev.flow = it->second.flow;
  ev.b = b;
  ev.c = c;
  ev.kind = it->second.kind;
  ev.phase = 'E';
  record(ev);
  open_.erase(it);
}

std::uint64_t SpanTracer::instant(TimePs t, SpanKind kind,
                                  std::uint64_t parent, std::uint64_t flow,
                                  std::uint64_t a, std::uint64_t b,
                                  std::uint64_t c, std::uint64_t d) {
  if (!enabled_) return 0;
  const std::uint64_t id = ++next_id_;
  TraceEvent ev;
  ev.t = t;
  ev.span = id;
  ev.parent = parent;
  ev.flow = flow;
  ev.a = a;
  ev.b = b;
  ev.c = c;
  ev.d = d;
  ev.kind = kind;
  ev.phase = 'i';
  record(ev);
  return id;
}

void SpanTracer::close_open_spans(TimePs t) {
  if (!enabled_) return;
  // Spans begun later carry higher ids; closing in descending id order
  // is LIFO, which keeps every per-track begin/end stack balanced.
  while (!open_.empty()) {
    end_span(t, std::prev(open_.end())->first);
  }
}

void SpanTracer::register_flow(std::uint64_t key_hi, std::uint64_t key_lo,
                               std::uint64_t flow_span) {
  if (!enabled_ || flow_span == 0) return;
  const std::uint64_t k = mix64(key_hi, key_lo);
  const auto it = flow_index_.find(k);
  if (it != flow_index_.end()) {
    // Port reuse (or a mix collision): the newest flow owns the key.
    flows_.push_back(FlowInfo{flow_span, key_hi, key_lo});
    it->second = flows_.size() - 1;
    return;
  }
  flows_.push_back(FlowInfo{flow_span, key_hi, key_lo});
  flow_index_.emplace(k, flows_.size() - 1);
}

std::uint64_t SpanTracer::flow_span_of(std::uint64_t key_hi,
                                       std::uint64_t key_lo) const {
  // The index is keyed by the mixed (hi, lo) pair; verifying the full
  // pair makes a mix collision "flow not found", never misattribution.
  const auto it = flow_index_.find(mix64(key_hi, key_lo));
  if (it == flow_index_.end()) return 0;
  const FlowInfo& f = flows_[it->second];
  if (f.key_hi != key_hi || f.key_lo != key_lo) return 0;
  return f.span;
}

void SpanTracer::add_latency(std::uint64_t flow_span, LatencyComponent c,
                             TimePs dt) {
  if (!enabled_ || flow_span == 0) return;
  if (dt < 0) dt = 0;
  const auto ci = static_cast<std::size_t>(c);
  LatencyAccum& acc = latency_[flow_span];
  acc.total_ps[ci] += dt;
  ++acc.samples[ci];
}

const SpanTracer::LatencyAccum* SpanTracer::latency_of(
    std::uint64_t flow_span) const {
  const auto it = latency_.find(flow_span);
  return it == latency_.end() ? nullptr : &it->second;
}

void SpanTracer::dump_jsonl(std::ostream& os) const {
  for (const FlowInfo& f : flows_) {
    os << "{\"ph\":\"F\",\"id\":" << f.span << ",\"src\":" << (f.key_hi >> 32)
       << ",\"dst\":" << (f.key_hi & 0xffffffffull)
       << ",\"sport\":" << (f.key_lo >> 16)
       << ",\"dport\":" << (f.key_lo & 0xffffull) << "}\n";
  }
  for (const TraceEvent& ev : events_) {
    os << "{\"t_ps\":" << ev.t << ",\"ph\":\"" << ev.phase
       << "\",\"kind\":\"" << to_string(ev.kind) << "\",\"id\":" << ev.span
       << ",\"parent\":" << ev.parent << ",\"flow\":" << ev.flow;
    write_named_args(os, arg_names(ev.kind), ev, /*leading_comma=*/true);
    os << "}\n";
  }
  for (const FlowInfo& f : flows_) {
    const LatencyAccum* acc = latency_of(f.span);
    if (acc == nullptr) continue;
    os << "{\"ph\":\"L\",\"flow\":" << f.span;
    for (std::size_t c = 0; c < kLatencyComponents; ++c) {
      const auto name = to_string(static_cast<LatencyComponent>(c));
      os << ",\"" << name << "_ps\":" << acc->total_ps[c] << ",\"" << name
         << "_samples\":" << acc->samples[c];
    }
    os << "}\n";
  }
  if (dropped_ > 0) {
    os << "{\"ph\":\"D\",\"dropped_events\":" << dropped_ << "}\n";
  }
}

void dump_jsonl_merged(const std::vector<const SpanTracer*>& parts,
                       std::ostream& os) {
  for (const SpanTracer* p : parts) p->dump_jsonl(os);
}

void export_chrome_merged(const std::vector<const SpanTracer*>& parts,
                          std::ostream& os, std::string_view process_name) {
  std::uint64_t dropped = 0;
  for (const SpanTracer* p : parts) dropped += p->dropped();
  os << "{\"schema\":\"hwatch.trace_export/v1\",\"displayTimeUnit\":\"ms\""
     << ",\"dropped_events\":" << dropped << ",\"traceEvents\":[";
  bool first = true;
  const auto emit_sep = [&] {
    if (!first) os << ',';
    first = false;
    os << "\n";
  };

  // Metadata (ph "M", exempt from the ts-sorted invariant) up front: one
  // process per shard, one flow track per flow within its shard.
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> tid_of(
      parts.size());
  for (std::size_t s = 0; s < parts.size(); ++s) {
    const std::uint64_t pid = s + 1;
    emit_sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << process_name;
    if (parts.size() > 1) os << "/shard" << s;
    os << "\"}}";
    std::uint64_t next_tid = 1;
    for (const SpanTracer::FlowInfo& f : parts[s]->flows()) {
      if (tid_of[s].emplace(f.span, next_tid).second) {
        emit_sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":" << next_tid << ",\"args\":{\"name\":\"";
        write_flow_name(os, f);
        os << "\"}}";
        ++next_tid;
      }
    }
  }
  const auto tid_for = [&](std::size_t s,
                           std::uint64_t flow_span) -> std::uint64_t {
    const auto it = tid_of[s].find(flow_span);
    return it == tid_of[s].end() ? 0 : it->second;
  };

  // K-way merge by (t, shard index); within a shard events are already
  // in recording order (nondecreasing t), so global ts stays sorted.
  std::vector<std::size_t> cursor(parts.size(), 0);
  TimePs t_end = 0;
  for (;;) {
    std::size_t best = parts.size();
    for (std::size_t s = 0; s < parts.size(); ++s) {
      if (cursor[s] >= parts[s]->events().size()) continue;
      if (best == parts.size() ||
          parts[s]->events()[cursor[s]].t < parts[best]->events()[cursor[best]].t) {
        best = s;
      }
    }
    if (best == parts.size()) break;
    const TraceEvent& ev = parts[best]->events()[cursor[best]++];
    if (ev.t > t_end) t_end = ev.t;
    emit_sep();
    os << "{\"name\":\"" << to_string(ev.kind) << "\",\"cat\":\"span\""
       << ",\"ph\":\"" << ev.phase << "\",\"ts\":";
    write_ts_us(os, ev.t);
    os << ",\"pid\":" << (best + 1) << ",\"tid\":" << tid_for(best, ev.flow);
    if (ev.phase == 'i') os << ",\"s\":\"t\"";
    os << ",\"args\":{\"span\":" << ev.span << ",\"parent\":" << ev.parent;
    write_named_args(os, SpanTracer::arg_names(ev.kind), ev,
                     /*leading_comma=*/true);
    os << "}}";
  }

  // Latency breakdowns last, all timestamped at the global end so ts
  // stays sorted.
  for (std::size_t s = 0; s < parts.size(); ++s) {
    for (const SpanTracer::FlowInfo& f : parts[s]->flows()) {
      const SpanTracer::LatencyAccum* acc = parts[s]->latency_of(f.span);
      if (acc == nullptr) continue;
      emit_sep();
      os << "{\"name\":\"latency_breakdown\",\"cat\":\"latency\""
         << ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
      write_ts_us(os, t_end);
      os << ",\"pid\":" << (s + 1) << ",\"tid\":" << tid_for(s, f.span)
         << ",\"args\":{";
      for (std::size_t c = 0; c < kLatencyComponents; ++c) {
        const auto name = to_string(static_cast<LatencyComponent>(c));
        if (c > 0) os << ',';
        os << '"' << name << "_ps\":" << acc->total_ps[c] << ",\"" << name
           << "_samples\":" << acc->samples[c];
      }
      os << "}}";
    }
  }

  os << "\n]}\n";
}

}  // namespace hwatch::sim
