#include "sim/trace_span.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>

#include "sim/json.hpp"
#include "sim/random.hpp"

namespace hwatch::sim {

namespace {

constexpr const char* kEcnNames[4] = {"not-ect", "ect1", "ect0", "ce"};
// PacketRecord flag bits, lowest first.
constexpr char kFlagChars[] = "SAFREC";

void write_packet_args(std::ostream& os, const PacketRecord& p) {
  os << ",\"dir\":\"" << (p.outbound ? "out" : "in") << "\",\"uid\":" << p.uid
     << ",\"type\":\"" << (p.probe ? "probe" : "tcp") << "\",\"src\":" << p.src
     << ",\"dst\":" << p.dst << ",\"sport\":" << p.sport
     << ",\"dport\":" << p.dport << ",\"seq\":" << p.seq
     << ",\"ack\":" << p.ack << ",\"flags\":\"";
  for (std::size_t i = 0; kFlagChars[i] != '\0'; ++i) {
    if ((p.flags >> i) & 1u) os << kFlagChars[i];
  }
  os << "\",\"payload\":" << p.payload << ",\"wire\":" << p.wire
     << ",\"ecn\":\"" << kEcnNames[p.ecn & 3u] << "\",\"rwnd\":" << p.rwnd
     << ",\"train\":" << p.train;
}

// The kind-specific payload of an event, each field preceded by a comma.
void write_event_args(std::ostream& os, const SpanTracer& tr,
                      const TraceEvent& ev) {
  if (ev.kind == SpanKind::kPacket) {
    write_packet_args(os, tr.packet_of(ev));
    return;
  }
  const SpanTracer::ArgNames& names = SpanTracer::arg_names(ev.kind);
  const char* n[4] = {names.a, names.b, names.c, names.d};
  const std::uint64_t v[4] = {ev.a, ev.b, ev.c, ev.d};
  for (int i = 0; i < 4; ++i) {
    if (n[i] != nullptr) os << ",\"" << n[i] << "\":" << v[i];
  }
}

std::uint64_t uint_field(const Json& j, std::string_view key) {
  const Json* v = j.find(key);
  return v != nullptr ? v->as_uint() : 0;
}

std::string_view str_field(const Json& j, std::string_view key) {
  const Json* v = j.find(key);
  return v != nullptr ? std::string_view(v->as_string()) : std::string_view();
}

PacketRecord packet_from(const Json& j) {
  PacketRecord p;
  p.uid = uint_field(j, "uid");
  p.seq = uint_field(j, "seq");
  p.ack = uint_field(j, "ack");
  p.src = static_cast<std::uint32_t>(uint_field(j, "src"));
  p.dst = static_cast<std::uint32_t>(uint_field(j, "dst"));
  p.sport = static_cast<std::uint16_t>(uint_field(j, "sport"));
  p.dport = static_cast<std::uint16_t>(uint_field(j, "dport"));
  p.payload = static_cast<std::uint32_t>(uint_field(j, "payload"));
  p.wire = static_cast<std::uint32_t>(uint_field(j, "wire"));
  p.train = static_cast<std::uint32_t>(uint_field(j, "train"));
  p.rwnd = static_cast<std::uint16_t>(uint_field(j, "rwnd"));
  for (const char c : str_field(j, "flags")) {
    const char* at = std::strchr(kFlagChars, c);
    if (c != '\0' && at != nullptr) {
      p.flags |= static_cast<std::uint8_t>(1u << (at - kFlagChars));
    }
  }
  const std::string_view ecn = str_field(j, "ecn");
  for (std::uint8_t e = 0; e < 4; ++e) {
    if (ecn == kEcnNames[e]) p.ecn = e;
  }
  p.probe = str_field(j, "type") == "probe";
  p.outbound = str_field(j, "dir") == "out";
  return p;
}

void write_flow_name(std::ostream& os, const SpanTracer::FlowInfo& f) {
  os << "flow " << (f.key_hi >> 32) << ':' << (f.key_lo >> 16) << "->"
     << (f.key_hi & 0xffffffffull) << ':' << (f.key_lo & 0xffffull);
}

// A picosecond time as exact fixed-point microseconds (six fractional
// digits, no floating point): the `ts` format of the Chrome export, so
// merged exports stay byte-deterministic.
void write_ts_us(std::ostream& os, TimePs t) {
  char buf[40];
  const auto v = static_cast<unsigned long long>(t);
  std::snprintf(buf, sizeof(buf), "%llu.%06llu", v / 1000000ull,
                v % 1000000ull);
  os << buf;
}

}  // namespace

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
    case SpanKind::kPacket:
      return "packet";
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
      {nullptr, nullptr, nullptr, nullptr},  // kPacket: PacketRecord fields
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

std::uint64_t SpanTracer::packet(TimePs t, std::uint64_t flow,
                                 const PacketRecord& p) {
  if (!enabled_) return 0;
  const std::uint64_t id = ++next_id_;
  TraceEvent ev;
  ev.t = t;
  ev.span = id;
  ev.flow = flow;
  ev.a = packets_.size();
  ev.kind = SpanKind::kPacket;
  ev.phase = 'i';
  if (record(ev)) packets_.push_back(p);
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
  add_flow(key_hi, key_lo, flow_span);
}

void SpanTracer::add_flow(std::uint64_t key_hi, std::uint64_t key_lo,
                          std::uint64_t flow_span) {
  // Port reuse (or a mix collision): the newest flow owns the key.
  flows_.push_back(FlowInfo{flow_span, key_hi, key_lo});
  flow_index_[mix64(key_hi, key_lo)] = flows_.size() - 1;
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
    write_event_args(os, *this, ev);
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

bool SpanTracer::load_jsonl(std::istream& in, std::string* error) {
  std::string line;
  std::uint64_t lineno = 0;
  const auto fail = [&](std::string_view what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + std::string(what);
    }
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::string err;
    const Json j = Json::parse(line, &err);
    if (!err.empty() || !j.is_object()) {
      return fail(err.empty() ? "not an object" : err);
    }
    const std::string_view ph = str_field(j, "ph");
    if (ph == "F") {
      add_flow(uint_field(j, "src") << 32 | uint_field(j, "dst"),
               uint_field(j, "sport") << 16 | uint_field(j, "dport"),
               uint_field(j, "id"));
    } else if (ph == "L") {
      LatencyAccum& acc = latency_[uint_field(j, "flow")];
      for (std::size_t c = 0; c < kLatencyComponents; ++c) {
        const std::string name(to_string(static_cast<LatencyComponent>(c)));
        acc.total_ps[c] = static_cast<TimePs>(uint_field(j, name + "_ps"));
        acc.samples[c] = uint_field(j, name + "_samples");
      }
    } else if (ph == "D") {
      dropped_ += uint_field(j, "dropped_events");
    } else if (ph == "B" || ph == "E" || ph == "i") {
      TraceEvent ev;
      const std::string_view kind = str_field(j, "kind");
      std::size_t k = 0;
      while (k < kSpanKinds && to_string(static_cast<SpanKind>(k)) != kind) {
        ++k;
      }
      if (k == kSpanKinds) {
        return fail("unknown kind \"" + std::string(kind) + "\"");
      }
      ev.kind = static_cast<SpanKind>(k);
      if (ev.kind == SpanKind::kPacket && ph != "i") {
        return fail("a packet record is an instant (\"ph\":\"i\")");
      }
      ev.phase = ph[0];
      ev.t = static_cast<TimePs>(uint_field(j, "t_ps"));
      ev.span = uint_field(j, "id");
      ev.parent = uint_field(j, "parent");
      ev.flow = uint_field(j, "flow");
      if (ev.kind == SpanKind::kPacket) {
        ev.a = packets_.size();
        packets_.push_back(packet_from(j));
      } else {
        const ArgNames& n = arg_names(ev.kind);
        if (n.a != nullptr) ev.a = uint_field(j, n.a);
        if (n.b != nullptr) ev.b = uint_field(j, n.b);
        if (n.c != nullptr) ev.c = uint_field(j, n.c);
        if (n.d != nullptr) ev.d = uint_field(j, n.d);
      }
      events_.push_back(ev);
    } else {
      return fail("not a trace record (\"ph\" is not F/B/E/i/L/D)");
    }
  }
  std::stable_sort(
      events_.begin(), events_.end(),
      [](const TraceEvent& a, const TraceEvent& b) { return a.t < b.t; });
  return true;
}

void dump_jsonl_merged(const std::vector<const SpanTracer*>& parts,
                       std::ostream& os) {
  for (const SpanTracer* p : parts) p->dump_jsonl(os);
}

void export_chrome_merged(const std::vector<const SpanTracer*>& parts,
                          std::ostream& os,
                          const std::vector<std::string>& process_names,
                          const Json* incidents) {
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
  // process per part, one flow track per flow within its part.  `meta`
  // opens the record; the caller writes the quoted name and closes it.
  const auto meta = [&](const char* what, std::size_t pid, std::size_t tid) {
    emit_sep();
    os << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << tid << ",\"args\":{\"name\":";
  };
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> tid_of(
      parts.size());
  for (std::size_t s = 0; s < parts.size(); ++s) {
    meta("process_name", s + 1, 0);
    Json::write_escaped(os, process_names[s]);
    os << "}}";
    for (const SpanTracer::FlowInfo& f : parts[s]->flows()) {
      const std::size_t tid = tid_of[s].size() + 1;
      if (tid_of[s].emplace(f.span, tid).second) {
        meta("thread_name", s + 1, tid);
        os << '"';
        write_flow_name(os, f);
        os << "\"}}";
      }
    }
  }
  const auto tid_for = [&](std::size_t s,
                           std::uint64_t flow_span) -> std::uint64_t {
    const auto it = tid_of[s].find(flow_span);
    return it == tid_of[s].end() ? 0 : it->second;
  };

  // Incidents: a B and an E per incident on the next pid, one track per
  // location in order of first appearance, stable-sorted by time.
  struct IncidentSlice {
    TimePs t = 0;
    char phase = 'B';
    std::size_t tid = 0;
    const Json* inc = nullptr;
  };
  std::vector<IncidentSlice> slices;
  if (incidents != nullptr && incidents->is_array()) {
    std::vector<std::string_view> locations;
    meta("process_name", parts.size() + 1, 0);
    os << "\"incidents\"}}";
    for (const Json& inc : incidents->items()) {
      const std::string_view loc = str_field(inc, "location");
      auto it = std::find(locations.begin(), locations.end(), loc);
      if (it == locations.end()) {
        locations.push_back(loc);
        it = locations.end() - 1;
        meta("thread_name", parts.size() + 1, locations.size());
        Json::write_escaped(os, loc);
        os << "}}";
      }
      const auto tid = static_cast<std::size_t>(it - locations.begin()) + 1;
      slices.push_back({static_cast<TimePs>(uint_field(inc, "start_ps")), 'B',
                        tid, &inc});
      slices.push_back({static_cast<TimePs>(uint_field(inc, "end_ps")), 'E',
                        tid, &inc});
    }
    std::stable_sort(slices.begin(), slices.end(),
                     [](const IncidentSlice& a, const IncidentSlice& b) {
                       return a.t < b.t;
                     });
  }

  // K-way merge by (t, part index), incidents last on ties; within a
  // part events are in recording order (nondecreasing t), so global ts
  // stays sorted.
  std::vector<std::size_t> cursor(parts.size(), 0);
  std::size_t next_slice = 0;
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
    if (next_slice < slices.size() &&
        (best == parts.size() ||
         slices[next_slice].t < parts[best]->events()[cursor[best]].t)) {
      const IncidentSlice& sl = slices[next_slice++];
      if (sl.t > t_end) t_end = sl.t;
      emit_sep();
      os << "{\"name\":";
      Json::write_escaped(os, str_field(*sl.inc, "kind"));
      os << ",\"cat\":\"incident\",\"ph\":\"" << sl.phase << "\",\"ts\":";
      write_ts_us(os, sl.t);
      os << ",\"pid\":" << (parts.size() + 1) << ",\"tid\":" << sl.tid
         << ",\"args\":{\"incident\":" << uint_field(*sl.inc, "id")
         << ",\"severity\":" << uint_field(*sl.inc, "severity")
         << ",\"magnitude\":" << uint_field(*sl.inc, "magnitude") << "}}";
      continue;
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
    write_event_args(os, *parts[best], ev);
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
