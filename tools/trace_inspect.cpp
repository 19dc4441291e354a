// trace_inspect — summarize, filter, export or explain the JSONL traces
// the simulator emits.  There is one trace format: the dump of
// sim::SpanTracer (SpanTracer::dump_jsonl, `<label>.spans.jsonl` under
// HWATCH_TRACE_DIR).  It holds flow registrations ("ph":"F"), span
// begin/end/instant lines ("ph":"B"/"E"/"i"), packet records from
// net::PacketTracer ("ph":"i","kind":"packet", with the header fields
// dir/uid/type/src/dst/sport/dport/seq/ack/flags/payload/wire/ecn/rwnd/
// train), per-flow latency summaries ("ph":"L") and the dropped-events
// trailer ("ph":"D").
//
// Usage:
//   trace_inspect [summary] [options] [files...]      aggregate report
//   trace_inspect filter [options] [files...]         re-emit matching lines
//   trace_inspect print ...                           alias of filter
//   trace_inspect export [-o FILE] [--manifest M] [files...]
//                                                     Chrome trace-event JSON
//   trace_inspect explain FLOW [--manifest M] [files...]
//                                                     root-cause one flow
//
// Options (summary/filter):
//   --kind K           keep only kind K (repeatable: OR across kinds); a
//                      packet line matches its kind "packet" and its
//                      type "tcp" or "probe"
//   --dir in|out       keep only one direction
//   --src N --dst N    filter by node id
//   --sport N --dport N filter by port
//   --since S --until S keep t in [S, U] (seconds, fractional ok)
//   --ce               keep only CE-marked packets
//
// `export` loads each input file as one part (SpanTracer::load_jsonl)
// and writes them through sim::export_chrome_merged, the exporter the
// run itself uses: Chrome trace-event JSON (schema
// `hwatch.trace_export/v1`) that loads directly in Perfetto, one
// process per file named after the file stem, one track per flow, span
// begin/end pairs as nested slices, packets and decisions as instants.
// So `export <label>.spans.jsonl` reproduces the run's own
// `<label>.trace.json` byte for byte.  With --manifest pointing at a run
// manifest carrying an `incidents` section (schema hwatch.incidents/v1),
// the incidents ride along as one more process with one track per
// location.
//
// `explain` is the root-cause doctor: FLOW is a flow-span id or a
// "src:sport->dst:dport" tuple; the report joins the flow's spans, its
// packets, its per-packet latency decomposition and the manifest's
// overlapping incidents into a causal FCT breakdown ("slow because:
// ...").
//
// Files default to stdin.  Exit codes: 0 ok, 1 bad usage / unreadable
// file / flow not found, 2 malformed input line.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/json.hpp"
#include "sim/trace_span.hpp"

namespace {

using hwatch::sim::Json;
using hwatch::sim::kLatencyComponents;
using hwatch::sim::LatencyComponent;
using hwatch::sim::PacketRecord;
using hwatch::sim::SpanKind;
using hwatch::sim::SpanTracer;
using hwatch::sim::TraceEvent;

enum class Mode { kSummary, kFilter, kExport, kExplain };

struct Options {
  Mode mode = Mode::kSummary;
  std::vector<std::string> kinds;  // empty = all; else OR-match
  std::optional<std::string> dir;
  std::optional<std::uint64_t> src, dst, sport, dport;
  std::optional<double> since_s, until_s;
  bool ce_only = false;
  std::vector<std::string> files;  // empty = stdin
  std::string out_file;            // export only; empty = stdout
  std::string manifest_file;       // export/explain; empty = none
  std::string explain_flow;        // explain only: span id or 4-tuple
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [summary|filter|print|export|explain FLOW] [options] "
      << "[files...]\n"
      << "  summary (default) | filter/print | export [-o FILE]\n"
      << "  explain FLOW: FLOW = flow-span id or src:sport->dst:dport\n"
      << "  --manifest FILE (export/explain: join incidents section)\n"
      << "  --kind K (repeatable)   --dir in|out   --ce\n"
      << "  --src N --dst N --sport N --dport N\n"
      << "  --since SECONDS --until SECONDS\n";
  return 1;
}

// Whole-string numbers: trailing junk or a sign throws like no digits
// at all, and main turns every throw into the usage error.
std::uint64_t to_uint(const std::string& v) {
  std::size_t used = 0;
  const std::uint64_t n = std::stoull(v, &used);
  if (used != v.size() || v[0] == '-') throw std::invalid_argument(v);
  return n;
}

double to_seconds(const std::string& v) {
  std::size_t used = 0;
  const double s = std::stod(v, &used);
  if (used != v.size()) throw std::invalid_argument(v);
  return s;
}

bool parse_args(int argc, char** argv, Options& opt) {
  int i = 1;
  if (i < argc) {
    const std::string first = argv[i];
    if (first == "summary") {
      opt.mode = Mode::kSummary;
      ++i;
    } else if (first == "filter" || first == "print") {
      opt.mode = Mode::kFilter;
      ++i;
    } else if (first == "export") {
      opt.mode = Mode::kExport;
      ++i;
    } else if (first == "explain") {
      opt.mode = Mode::kExplain;
      ++i;
      if (i >= argc) return false;
      opt.explain_flow = argv[i];
      ++i;
    }
  }
  auto need = [&](int& k) -> const char* {
    if (k + 1 >= argc) return nullptr;
    return argv[++k];
  };
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = nullptr;
    if (a == "--summary") {
      opt.mode = Mode::kSummary;
    } else if (a == "--print") {
      opt.mode = Mode::kFilter;
    } else if (a == "--ce") {
      opt.ce_only = true;
    } else if (a == "--kind" && (v = need(i))) {
      opt.kinds.emplace_back(v);
    } else if (a == "--dir" && (v = need(i))) {
      opt.dir = v;
    } else if (a == "--src" && (v = need(i))) {
      opt.src = to_uint(v);
    } else if (a == "--dst" && (v = need(i))) {
      opt.dst = to_uint(v);
    } else if (a == "--sport" && (v = need(i))) {
      opt.sport = to_uint(v);
    } else if (a == "--dport" && (v = need(i))) {
      opt.dport = to_uint(v);
    } else if (a == "--since" && (v = need(i))) {
      opt.since_s = to_seconds(v);
    } else if (a == "--until" && (v = need(i))) {
      opt.until_s = to_seconds(v);
    } else if (a == "-o" && (v = need(i))) {
      if (opt.mode != Mode::kExport) return false;
      opt.out_file = v;
    } else if (a == "--manifest" && (v = need(i))) {
      if (opt.mode != Mode::kExport && opt.mode != Mode::kExplain) {
        return false;
      }
      opt.manifest_file = v;
    } else if (!a.empty() && a[0] != '-') {
      opt.files.push_back(a);
    } else {
      return false;
    }
  }
  return true;
}

std::uint64_t get_uint(const Json& j, const char* key) {
  const Json* v = j.find(key);
  return v != nullptr ? v->as_uint() : 0;
}

std::string get_str(const Json& j, const char* key) {
  const Json* v = j.find(key);
  return v != nullptr ? v->as_string() : std::string();
}

bool matches(const Json& j, const Options& opt) {
  if (!opt.kinds.empty()) {
    const auto listed = [&](const std::string& k) {
      return !k.empty() &&
             std::find(opt.kinds.begin(), opt.kinds.end(), k) !=
                 opt.kinds.end();
    };
    if (!listed(get_str(j, "kind")) && !listed(get_str(j, "type"))) {
      return false;
    }
  }
  if (opt.dir && get_str(j, "dir") != *opt.dir) return false;
  if (opt.src && get_uint(j, "src") != *opt.src) return false;
  if (opt.dst && get_uint(j, "dst") != *opt.dst) return false;
  if (opt.sport && get_uint(j, "sport") != *opt.sport) return false;
  if (opt.dport && get_uint(j, "dport") != *opt.dport) return false;
  if (opt.ce_only && get_str(j, "ecn") != "ce") return false;
  const double t_s = static_cast<double>(get_uint(j, "t_ps")) / 1e12;
  if (opt.since_s && t_s < *opt.since_s) return false;
  if (opt.until_s && t_s > *opt.until_s) return false;
  return true;
}

struct FlowAgg {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ce = 0;
  std::uint64_t data = 0;
  std::uint64_t acks = 0;
  std::uint64_t syn = 0;
  std::uint64_t fin = 0;
  std::uint64_t probes = 0;
};

struct Summary {
  std::uint64_t lines = 0;
  std::uint64_t matched = 0;
  std::map<std::string, std::uint64_t> by_kind;
  std::map<std::string, std::uint64_t> by_flag;  // S, F, R presence
  std::uint64_t ce = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t t_min = UINT64_MAX, t_max = 0;
  std::map<std::string, FlowAgg> flows;
};

void accumulate(const Json& j, Summary& s) {
  ++s.matched;
  const std::string kind = get_str(j, "kind");
  if (!kind.empty()) ++s.by_kind[kind];
  if (j.find("t_ps") != nullptr) {
    const std::uint64_t t = get_uint(j, "t_ps");
    if (t < s.t_min) s.t_min = t;
    if (t > s.t_max) s.t_max = t;
  }
  // The rest tallies packet lines only.
  if (kind != "packet") return;
  const std::string flags = get_str(j, "flags");
  if (flags.find('S') != std::string::npos) ++s.by_flag["syn"];
  if (flags.find('F') != std::string::npos) ++s.by_flag["fin"];
  if (flags.find('R') != std::string::npos) ++s.by_flag["rst"];
  if (flags.find('E') != std::string::npos) ++s.by_flag["ece"];
  if (get_str(j, "ecn") == "ce") ++s.ce;
  s.wire_bytes += get_uint(j, "wire");
  s.payload_bytes += get_uint(j, "payload");
  std::ostringstream key;
  key << get_uint(j, "src") << ':' << get_uint(j, "sport") << " -> "
      << get_uint(j, "dst") << ':' << get_uint(j, "dport");
  FlowAgg& f = s.flows[key.str()];
  ++f.packets;
  f.bytes += get_uint(j, "wire");
  if (get_str(j, "ecn") == "ce") ++f.ce;
  if (get_str(j, "type") == "probe") {
    ++f.probes;
  } else {
    if (get_uint(j, "payload") > 0) {
      ++f.data;
    } else if (flags.find('S') == std::string::npos &&
               flags.find('F') == std::string::npos) {
      ++f.acks;
    }
    if (flags.find('S') != std::string::npos) ++f.syn;
    if (flags.find('F') != std::string::npos) ++f.fin;
  }
}

void print_summary(const Summary& s) {
  std::cout << "lines: " << s.lines << "  matched: " << s.matched << "\n";
  if (s.matched == 0) return;
  if (s.t_min <= s.t_max) {
    std::cout << "span: " << static_cast<double>(s.t_min) / 1e12 << "s .. "
              << static_cast<double>(s.t_max) / 1e12 << "s\n";
  }
  std::cout << "by kind:";
  for (const auto& [k, n] : s.by_kind) std::cout << "  " << k << "=" << n;
  std::cout << "\n";
  const auto packets = s.by_kind.find("packet");
  if (packets == s.by_kind.end()) return;
  std::cout << "flags:";
  for (const auto& [k, n] : s.by_flag) std::cout << "  " << k << "=" << n;
  std::cout << "\nce-marked: " << s.ce << " of " << packets->second
            << " packets\n";
  std::cout << "bytes: wire=" << s.wire_bytes
            << " payload=" << s.payload_bytes << "\n";

  std::vector<std::pair<std::string, FlowAgg>> top(s.flows.begin(),
                                                   s.flows.end());
  std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
    return a.second.packets > b.second.packets;
  });
  std::cout << "flows: " << top.size() << " (top 10 by packets)\n";
  for (std::size_t i = 0; i < top.size() && i < 10; ++i) {
    const FlowAgg& f = top[i].second;
    std::cout << "  " << top[i].first << "  pkts=" << f.packets
              << " bytes=" << f.bytes << " ce=" << f.ce
              << " data=" << f.data << " acks=" << f.acks
              << " syn=" << f.syn << " fin=" << f.fin
              << " probes=" << f.probes << "\n";
  }
}

/// Reads the manifest's `incidents` section (schema hwatch.incidents/v1).
/// Returns 0 and fills `out` (left null when the file has no incidents
/// section); 1 when the file is unreadable, 2 when it is not valid JSON.
int load_manifest_incidents(const std::string& path, Json& out) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "error: cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  std::string err;
  const Json doc = Json::parse(buf.str(), &err);
  if (!err.empty() || !doc.is_object()) {
    std::cerr << path << ": parse error: "
              << (err.empty() ? "not an object" : err) << "\n";
    return 2;
  }
  const Json* inc = doc.find("incidents");
  if (inc == nullptr) return 0;
  const Json* schema = inc->find("schema");
  if (schema == nullptr ||
      schema->as_string() != "hwatch.incidents/v1") {
    std::cerr << path << ": incidents section is not "
              << "hwatch.incidents/v1\n";
    return 2;
  }
  const Json* arr = inc->find("incidents");
  if (arr == nullptr || !arr->is_array()) {
    std::cerr << path << ": incidents section has no incident array\n";
    return 2;
  }
  out = *arr;
  return 0;
}

// ---- explain: the per-flow root-cause doctor --------------------------

std::string tuple_of(const SpanTracer::FlowInfo& f) {
  std::ostringstream os;
  os << (f.key_hi >> 32) << ':' << (f.key_lo >> 16) << "->"
     << (f.key_hi & 0xffffffffull) << ':' << (f.key_lo & 0xffffull);
  return os.str();
}

std::string fmt_ms(std::uint64_t ps) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ps) / 1e9);
  return buf;
}

/// One incident touching the flow: `member` = the incident's flow list
/// or span list names this flow; otherwise it merely overlaps the
/// flow's lifetime.
struct IncidentHit {
  const Json* j = nullptr;
  bool member = false;
  std::uint64_t overlap_ps = 0;
};

/// Picks the best evidence of `kind` in `hits`: members first, then
/// the longest time overlap.  `members_only` restricts to incidents
/// that name the flow — required for flow-scoped kinds (incast,
/// rto-storm, rwnd-rewrite-burst, flow-stall), where a same-window
/// bystander would pin the blame on somebody else's incident; pure
/// time correlation is only sound for queue-buildup, whose flow list
/// is empty by construction.  nullptr when nothing qualifies.
const Json* best_hit(const std::vector<IncidentHit>& hits,
                     std::string_view kind, bool members_only) {
  const Json* best = nullptr;
  bool best_member = false;
  std::uint64_t best_overlap = 0;
  for (const IncidentHit& h : hits) {
    if (members_only && !h.member) continue;
    if (get_str(*h.j, "kind") != kind) continue;
    if (best == nullptr || (h.member && !best_member) ||
        (h.member == best_member && h.overlap_ps > best_overlap)) {
      best = h.j;
      best_member = h.member;
      best_overlap = h.overlap_ps;
    }
  }
  return best;
}

int run_explain(const SpanTracer& tr, const Json& incidents,
                const std::string& selector, std::ostream& os) {
  // Resolve the selector against the flow registry: either a flow-span
  // id or the "src:sport->dst:dport" tuple.
  const bool numeric =
      !selector.empty() &&
      selector.find_first_not_of("0123456789") == std::string::npos;
  const SpanTracer::FlowInfo* target = nullptr;
  for (const SpanTracer::FlowInfo& f : tr.flows()) {
    if (numeric ? std::to_string(f.span) == selector
                : tuple_of(f) == selector) {
      target = &f;
      break;
    }
  }
  if (target == nullptr) {
    std::cerr << "error: flow \"" << selector << "\" not found ("
              << tr.flows().size()
              << " flows in the span input; pass a flow-span id or "
              << "src:sport->dst:dport)\n";
    return 1;
  }

  // The flow's own span pair, its child spans and its packets (the
  // flow span's payload: a = total_bytes, b = bytes_acked,
  // c = retransmits).
  std::uint64_t t0 = 0, t1 = 0, t_last = 0;
  bool saw_begin = false, saw_end = false;
  std::uint64_t total_bytes = 0, bytes_acked = 0, retransmits = 0;
  std::map<std::string, std::uint64_t> span_counts;
  std::uint64_t rto_count = 0, rwnd_writes = 0;
  std::uint64_t packets = 0, ce_packets = 0;
  for (const TraceEvent& ev : tr.events()) {
    if (ev.flow != target->span) continue;
    const auto t = static_cast<std::uint64_t>(ev.t);
    if (t > t_last) t_last = t;
    if (ev.kind == SpanKind::kPacket) {
      ++packets;
      if (tr.packet_of(ev).ecn == PacketRecord::kEcnCe) ++ce_packets;
      continue;
    }
    if (ev.kind == SpanKind::kFlow && ev.span == target->span) {
      if (ev.phase == 'B') {
        t0 = t;
        saw_begin = true;
        total_bytes = ev.a;
      } else if (ev.phase == 'E') {
        t1 = t;
        saw_end = true;
        bytes_acked = ev.b;
        retransmits = ev.c;
      }
      continue;
    }
    if (ev.phase != 'E') ++span_counts[std::string(to_string(ev.kind))];
    if (ev.kind == SpanKind::kRto && ev.phase == 'B') ++rto_count;
    if (ev.kind == SpanKind::kRwndWrite) ++rwnd_writes;
  }
  if (!saw_begin) {
    std::cerr << "error: flow span " << target->span
              << " has no begin event in the span input\n";
    return 1;
  }
  const std::uint64_t t_end = saw_end ? t1 : t_last;
  const std::uint64_t fct_ps = t_end - t0;

  // Incidents touching the flow: members (the incident names this flow)
  // plus same-window bystanders.
  std::vector<IncidentHit> hits;
  if (incidents.is_array()) {
    for (const Json& inc : incidents.items()) {
      const std::uint64_t s = get_uint(inc, "start_ps");
      const std::uint64_t e = get_uint(inc, "end_ps");
      const std::uint64_t lo = std::max(s, t0);
      const std::uint64_t hi = std::min(e, t_end);
      IncidentHit h;
      h.j = &inc;
      h.overlap_ps = hi >= lo ? hi - lo : 0;
      if (const Json* spans = inc.find("spans")) {
        for (const Json& sp : spans->items()) {
          if (sp.as_uint() == target->span) h.member = true;
        }
      }
      if (!h.member) {
        if (const Json* fl = inc.find("flows")) {
          for (const Json& fj : fl->items()) {
            if ((get_uint(fj, "src") << 32 | get_uint(fj, "dst")) ==
                    target->key_hi &&
                (get_uint(fj, "sport") << 16 | get_uint(fj, "dport")) ==
                    target->key_lo) {
              h.member = true;
            }
          }
        }
      }
      if (h.member || (e >= t0 && s <= t_end)) hits.push_back(h);
    }
  }

  // ---- the report ----
  os << "flow " << tuple_of(*target) << " (span " << target->span
     << ")\n";
  os << "  FCT " << fmt_ms(fct_ps) << " ms (t=" << fmt_ms(t0) << ".."
     << fmt_ms(t_end) << " ms)";
  // Long-lived bulk flows carry a practically-infinite byte target.
  const bool unbounded = total_bytes >= (std::uint64_t{1} << 62);
  if (saw_end) {
    os << ", " << bytes_acked << "/";
    if (unbounded) {
      os << "unbounded";
    } else {
      os << total_bytes;
    }
    os << " bytes acked, " << retransmits << " retransmits\n";
  } else if (unbounded) {
    os << ", long-lived flow still open at end of trace\n";
  } else {
    os << ", DID NOT COMPLETE (" << total_bytes << " bytes asked)\n";
  }

  const auto component = [](std::size_t c) {
    return hwatch::sim::to_string(static_cast<LatencyComponent>(c));
  };
  std::uint64_t comp_ps[kLatencyComponents] = {};
  std::uint64_t comp_total = 0;
  if (const SpanTracer::LatencyAccum* acc = tr.latency_of(target->span)) {
    for (std::size_t c = 0; c < kLatencyComponents; ++c) {
      comp_ps[c] = static_cast<std::uint64_t>(acc->total_ps[c]);
      comp_total += comp_ps[c];
    }
  }
  if (comp_total > 0) {
    os << "  latency decomposition (per-packet sums):\n";
    for (std::size_t c = 0; c < kLatencyComponents; ++c) {
      char pct[16];
      std::snprintf(pct, sizeof(pct), "%5.1f%%",
                    100.0 * static_cast<double>(comp_ps[c]) /
                        static_cast<double>(comp_total));
      os << "    " << component(c)
         << std::string(13 - component(c).size(), ' ') << pct
         << "  " << fmt_ms(comp_ps[c]) << " ms\n";
    }
  }
  if (!span_counts.empty()) {
    os << "  spans:";
    for (const auto& [kind, n] : span_counts) {
      os << ' ' << kind << '=' << n;
    }
    os << '\n';
  }
  if (packets > 0) {
    os << "  packets: " << packets << " traced, " << ce_packets
       << " CE-marked\n";
  }
  // Members (the incident names this flow) always print; same-window
  // bystanders are capped — a long flow can overlap almost everything.
  os << "  incidents touching this flow: " << hits.size() << '\n';
  constexpr std::size_t kMaxBystanders = 10;
  std::size_t bystanders_shown = 0, bystanders_total = 0;
  for (const bool members_pass : {true, false}) {
    for (const IncidentHit& h : hits) {
      if (h.member != members_pass) continue;
      if (!h.member) {
        ++bystanders_total;
        if (bystanders_shown >= kMaxBystanders) continue;
        ++bystanders_shown;
      }
      os << "    #" << get_uint(*h.j, "id") << ' '
         << get_str(*h.j, "kind") << " at " << get_str(*h.j, "location")
         << " sev" << get_uint(*h.j, "severity") << ' '
         << fmt_ms(get_uint(*h.j, "start_ps")) << ".."
         << fmt_ms(get_uint(*h.j, "end_ps")) << " ms"
         << (h.member ? " (this flow)" : " (same time window)") << '\n';
    }
  }
  if (bystanders_total > bystanders_shown) {
    os << "    ... and " << (bystanders_total - bystanders_shown)
       << " more in the same time window\n";
  }

  // ---- the causal line ----
  std::vector<std::string> clauses;
  if (comp_total > 0) {
    std::size_t dom = 0;
    for (std::size_t c = 1; c < kLatencyComponents; ++c) {
      if (comp_ps[c] > comp_ps[dom]) dom = c;
    }
    std::ostringstream clause;
    clause << (100 * comp_ps[dom] / comp_total) << "% "
           << component(dom);
    if (dom == 0) {
      if (const Json* qb =
              best_hit(hits, "queue-buildup", /*members_only=*/false)) {
        clause << " at " << get_str(*qb, "location")
               << " during queue-buildup #" << get_uint(*qb, "id");
      }
    }
    clauses.push_back(clause.str());
  }
  if (rto_count > 0) {
    std::ostringstream clause;
    clause << rto_count << (rto_count == 1 ? " RTO" : " RTOs");
    const Json* inside = best_hit(hits, "incast", /*members_only=*/true);
    if (inside == nullptr) {
      inside = best_hit(hits, "rto-storm", /*members_only=*/true);
    }
    if (inside != nullptr) {
      clause << " inside " << get_str(*inside, "kind") << " #"
             << get_uint(*inside, "id");
    }
    clauses.push_back(clause.str());
  }
  if (rwnd_writes > 0) {
    std::ostringstream clause;
    clause << "shim cut rwnd " << rwnd_writes << "x";
    if (const Json* rb =
            best_hit(hits, "rwnd-rewrite-burst", /*members_only=*/true)) {
      clause << " (rwnd-rewrite-burst #" << get_uint(*rb, "id") << ")";
    }
    clauses.push_back(clause.str());
  }
  for (const IncidentHit& h : hits) {
    // A stall incident asserts THIS flow made no progress, so only a
    // membership hit may contribute the clause.
    if (!h.member || get_str(*h.j, "kind") != "flow-stall") continue;
    std::ostringstream clause;
    clause << "stalled " << fmt_ms(get_uint(*h.j, "magnitude"))
           << " ms (flow-stall #" << get_uint(*h.j, "id") << ")";
    clauses.push_back(clause.str());
    break;
  }
  if (clauses.empty()) {
    os << "  verdict: no dominant cause found — the flow looks "
          "healthy\n";
  } else {
    os << "  slow because: ";
    for (std::size_t i = 0; i < clauses.size(); ++i) {
      os << (i > 0 ? "; " : "") << clauses[i];
    }
    os << '\n';
  }
  return 0;
}

int run(std::istream& in, const std::string& name, const Options& opt,
        Summary& s) {
  std::string line;
  std::uint64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    ++s.lines;
    std::string err;
    Json j = Json::parse(line, &err);
    if (!err.empty() || !j.is_object()) {
      std::cerr << name << ":" << lineno << ": parse error: "
                << (err.empty() ? "not an object" : err) << "\n";
      return 2;
    }
    switch (opt.mode) {
      case Mode::kExport:  // both load their inputs as span traces
      case Mode::kExplain:
        break;
      case Mode::kFilter:
        if (matches(j, opt)) {
          std::cout << line << "\n";
          ++s.matched;
        }
        break;
      case Mode::kSummary:
        if (matches(j, opt)) accumulate(j, s);
        break;
    }
  }
  return 0;
}

/// Calls `fn(stream, name)` on every input file in order (stdin when
/// none is given); stops at the first nonzero return.
int for_each_input(
    const Options& opt,
    const std::function<int(std::istream&, const std::string&)>& fn) {
  if (opt.files.empty()) return fn(std::cin, "<stdin>");
  for (const std::string& file : opt.files) {
    std::ifstream f(file);
    if (!f) {
      std::cerr << "error: cannot open " << file << "\n";
      return 1;
    }
    const int rc = fn(f, file);
    if (rc != 0) return rc;
  }
  return 0;
}

/// Process name of an input: its file stem, so `<label>.spans.jsonl`
/// exports under `<label>`, the name the run gave its own trace.json.
std::string stem_of(const std::string& path) {
  std::string name = path.substr(path.find_last_of('/') + 1);
  constexpr std::string_view kDump = ".spans.jsonl";
  if (name.size() > kDump.size() && name.ends_with(kDump)) {
    return name.substr(0, name.size() - kDump.size());
  }
  return name.substr(0, name.find_last_of('.'));
}

int load(SpanTracer& tr, std::istream& in, const std::string& name) {
  std::string err;
  if (tr.load_jsonl(in, &err)) return 0;
  std::cerr << name << ": parse error: " << err << "\n";
  return 2;
}

int run_export(const Options& opt, const Json& incidents) {
  std::deque<SpanTracer> tracers;  // stable addresses for `parts`
  std::vector<const SpanTracer*> parts;
  std::vector<std::string> names;
  const int rc = for_each_input(
      opt, [&](std::istream& in, const std::string& name) {
        parts.push_back(&tracers.emplace_back());
        names.push_back(name == "<stdin>" ? "stdin" : stem_of(name));
        return load(tracers.back(), in, name);
      });
  if (rc != 0) return rc;
  std::ofstream file;
  if (!opt.out_file.empty()) {
    file.open(opt.out_file, std::ios::binary);
    if (!file) {
      std::cerr << "error: cannot open " << opt.out_file
                << " for writing\n";
      return 1;
    }
  }
  std::ostream& os = opt.out_file.empty() ? std::cout : file;
  hwatch::sim::export_chrome_merged(
      parts, os, names, incidents.is_array() ? &incidents : nullptr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool parsed = false;
  try {
    parsed = parse_args(argc, argv, opt);
  } catch (const std::exception&) {  // a malformed number option
  }
  if (!parsed) return usage(argv[0]);

  Json incidents;  // stays null without --manifest (or no section)
  if (!opt.manifest_file.empty()) {
    const int rc = load_manifest_incidents(opt.manifest_file, incidents);
    if (rc != 0) return rc;
  }
  if (opt.mode == Mode::kExport) return run_export(opt, incidents);
  if (opt.mode == Mode::kExplain) {
    SpanTracer tr;  // every input file, as one time-ordered part
    const int rc = for_each_input(
        opt, [&](std::istream& in, const std::string& name) {
          return load(tr, in, name);
        });
    if (rc != 0) return rc;
    return run_explain(tr, incidents, opt.explain_flow, std::cout);
  }

  Summary s;
  const int rc = for_each_input(
      opt, [&](std::istream& in, const std::string& name) {
        return run(in, name, opt, s);
      });
  if (rc != 0) return rc;
  if (opt.mode == Mode::kSummary) print_summary(s);
  return 0;
}
