// SpanTracer — causal span/event tracing for one simulation instance,
// and the one trace store of the simulator.
//
// Where MetricsRegistry answers "how many", the tracer answers "which
// observation caused which decision on which flow, and where did the
// time go".  It records begin/end/instant events carrying deterministic
// span ids (a per-context counter — never a wall clock), so a flow's
// lifecycle (connect -> slow start -> recovery/RTO episodes -> FIN),
// the HWatch decision chain (probe tallies -> window_policy plan ->
// rwnd rewrite) and per-packet latency attribution (queueing vs
// transmission vs propagation vs retransmission wait) all link together.
// Packet records (net::PacketTracer) are kPacket instants on the track
// of the flow they belong to; their header fields ride in a side table.
// One JSONL dump holds all of it, loads back (load_jsonl) and exports
// to Chrome trace-event / Perfetto JSON (schema
// `hwatch.trace_export/v1`) through export_chrome_merged.
//
// Overhead discipline (same as MetricsRegistry): disabled, every hook
// costs one predictable branch — begin_span/end_span/instant/packet/
// add_latency test `enabled_` and return, no allocation, no hashing.
// Callers that need more than one call per hook site guard the whole
// block with enabled() so the hot path keeps a single branch.
//
// Determinism: span ids, timestamps and payloads derive only from
// simulated state, so the JSONL dump and the Chrome export are
// byte-identical for a given (config, seed) across runs and sweep
// thread counts.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace hwatch::sim {

class Json;

enum class SpanKind : std::uint8_t {
  kFlow = 0,     // connect -> FIN acked (one per TcpSender)
  kHandshake,    // SYN sent -> established
  kSlowStart,    // established -> first exit from slow start
  kRecovery,     // fast-retransmit entry -> full ACK (or RTO)
  kRto,          // RTO fired -> next cumulative progress
  kProbeTrain,   // HWatch probe train span (SYN held -> SYN released)
  kDecision,     // window_policy decision (instant with an id)
  kRwndWrite,    // rwnd field rewritten on the wire (instant)
  kPacket,       // packet crossing a traced host hook (instant)
};
inline constexpr std::size_t kSpanKinds = 9;

std::string_view to_string(SpanKind k);

/// Per-packet latency decomposition buckets (per link hop, plus the
/// sender's retransmission-wait attribution).
enum class LatencyComponent : std::uint8_t {
  kQueueing = 0,      // qdisc admission -> head of line
  kTransmission = 1,  // serialization time at the link rate
  kPropagation = 2,   // link propagation delay
  kRetxWait = 3,      // time an RTO expiry spent waiting on the timer
};
inline constexpr std::size_t kLatencyComponents = 4;

std::string_view to_string(LatencyComponent c);

/// One trace record.  `span` is the id of the span this event begins /
/// ends (or the id minted for an instant); `parent` the enclosing span;
/// `flow` the owning flow span (the Perfetto track it renders on).
/// a..d are kind-specific (see SpanTracer::arg_names).
struct TraceEvent {
  TimePs t = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::uint64_t flow = 0;
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
  SpanKind kind = SpanKind::kFlow;
  char phase = 'B';  // 'B' begin, 'E' end, 'i' instant
};

/// Header fields of one traced packet, as plain integers so the sim
/// layer stays below net (net::PacketTracer fills it).  A kPacket
/// event's `a` slot indexes the tracer's side table of these.
struct PacketRecord {
  // TCP flag bits, in the order the JSONL "flags" string spells them.
  static constexpr std::uint8_t kSyn = 1, kAck = 2, kFin = 4, kRst = 8,
                                kEce = 16, kCwr = 32;
  static constexpr std::uint8_t kEcnCe = 3;  // the CE codepoint
  std::uint64_t uid = 0;
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint32_t src = 0, dst = 0;
  std::uint16_t sport = 0, dport = 0;
  std::uint32_t payload = 0;
  std::uint32_t wire = 0;  // frame size on the wire
  std::uint32_t train = 0;  // probe train id
  std::uint16_t rwnd = 0;   // raw 16-bit window field
  std::uint8_t flags = 0;
  std::uint8_t ecn = 0;     // RFC 3168 codepoint
  bool probe = false;       // HWatch probe (else TCP)
  bool outbound = false;    // leaving the traced host (else arriving)
};

class SpanTracer {
 public:
  SpanTracer() = default;
  // Components cache no pointers into the tracer, but events reference
  // ids minted here; one tracer per context, non-copyable like the rest
  // of SimContext's members.
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Event-buffer cap; recording beyond it increments dropped() instead
  /// of growing without bound (the cap is reported, never silent).
  std::size_t max_events() const { return max_events_; }
  void set_max_events(std::size_t n) { max_events_ = n; }
  std::uint64_t dropped() const { return dropped_; }

  /// Stripes the span-id space for sharded runs (shard s passes s<<40):
  /// every id any shard mints is globally unique, so merged dumps never
  /// alias spans.  Call before any span is opened.
  void set_id_base(std::uint64_t base) { next_id_ = base; }

  /// Opens a span and returns its id (0 when disabled).  A kFlow span
  /// becomes its own `flow` (it is the track everything else nests on).
  std::uint64_t begin_span(TimePs t, SpanKind kind, std::uint64_t parent,
                           std::uint64_t flow, std::uint64_t a = 0,
                           std::uint64_t b = 0, std::uint64_t c = 0,
                           std::uint64_t d = 0);

  /// Closes an open span; kind/parent/flow come from the begin record.
  /// No-op when disabled or id == 0, so callers can end unconditionally.
  void end_span(TimePs t, std::uint64_t id, std::uint64_t b = 0,
                std::uint64_t c = 0);

  /// Records an instant event and mints an id for it, so later events
  /// can cite it as their parent (decision -> rwnd-write provenance).
  std::uint64_t instant(TimePs t, SpanKind kind, std::uint64_t parent,
                        std::uint64_t flow, std::uint64_t a = 0,
                        std::uint64_t b = 0, std::uint64_t c = 0,
                        std::uint64_t d = 0);

  /// Records a packet as a kPacket instant on `flow`'s track (0 = no
  /// registered flow), through the same enabled/max_events gate as
  /// every other event.  Returns the minted id (0 when disabled).
  std::uint64_t packet(TimePs t, std::uint64_t flow, const PacketRecord& p);

  /// Closes every still-open span (LIFO, so Perfetto's per-track stacks
  /// stay balanced).  Scenario runners call this at end of run.
  void close_open_spans(TimePs t);

  // ---- flow registry --------------------------------------------------
  // The 96-bit FlowKey packed into two words (net::flow_key_words) so
  // the sim layer stays below net.  The sender registers its flow span
  // at start(); links and shims look the span up per packet.
  void register_flow(std::uint64_t key_hi, std::uint64_t key_lo,
                     std::uint64_t flow_span);
  std::uint64_t flow_span_of(std::uint64_t key_hi,
                             std::uint64_t key_lo) const;

  struct FlowInfo {
    std::uint64_t span = 0;
    std::uint64_t key_hi = 0;  // src << 32 | dst
    std::uint64_t key_lo = 0;  // sport << 16 | dport
  };
  const std::vector<FlowInfo>& flows() const { return flows_; }

  // ---- latency decomposition -----------------------------------------
  struct LatencyAccum {
    std::array<TimePs, kLatencyComponents> total_ps{};
    std::array<std::uint64_t, kLatencyComponents> samples{};
  };

  /// Attributes `dt` to a component in the per-flow accumulator of
  /// `flow_span`; 0 (unattributed) records nothing.
  void add_latency(std::uint64_t flow_span, LatencyComponent c, TimePs dt);

  /// Per-flow totals; nullptr when the flow never saw a sample.
  const LatencyAccum* latency_of(std::uint64_t flow_span) const;

  // ---- inspection / export -------------------------------------------
  const std::vector<TraceEvent>& events() const { return events_; }

  /// Header fields of a kPacket event.
  const PacketRecord& packet_of(const TraceEvent& ev) const {
    return packets_[ev.a];
  }

  /// Kind-specific names for TraceEvent::a..d (nullptr = unused slot).
  struct ArgNames {
    const char* a = nullptr;
    const char* b = nullptr;
    const char* c = nullptr;
    const char* d = nullptr;
  };
  static const ArgNames& arg_names(SpanKind k);

  /// One JSON object per line: flow registrations ("ph":"F"), events
  /// ("ph":"B"/"E"/"i"; packets are "ph":"i","kind":"packet" lines
  /// carrying the header fields), per-flow latency summaries ("ph":"L")
  /// and the dropped-events trailer ("ph":"D").
  void dump_jsonl(std::ostream& os) const;

  /// Appends the lines of a dump_jsonl (or dump_jsonl_merged) output:
  /// the events, stable-sorted by time, so a merged multi-part dump
  /// loads as one time-ordered part.  Loading one tracer's own dump
  /// gives a tracer that dumps and exports the same bytes.  Returns
  /// false and fills *error ("line N: ...") on a line that is not JSON
  /// or not a trace record.
  bool load_jsonl(std::istream& in, std::string* error);

 private:
  struct OpenSpan {
    SpanKind kind = SpanKind::kFlow;
    std::uint64_t parent = 0;
    std::uint64_t flow = 0;
  };

  bool record(const TraceEvent& ev);
  void add_flow(std::uint64_t key_hi, std::uint64_t key_lo,
                std::uint64_t flow_span);

  bool enabled_ = false;
  std::size_t max_events_ = 1u << 20;
  std::uint64_t next_id_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
  std::vector<PacketRecord> packets_;  // indexed by kPacket events' `a`
  // Ordered so close_open_spans is deterministic and LIFO by id.
  // hwlint: allow(hot-path-container) — tracing only, off unless enabled
  std::map<std::uint64_t, OpenSpan> open_;
  std::vector<FlowInfo> flows_;
  std::unordered_map<std::uint64_t, std::uint64_t> flow_index_;  // mixed key
  std::unordered_map<std::uint64_t, LatencyAccum> latency_;
};

/// Merged JSONL dump for sharded runs: the per-shard sections in shard
/// order (the order of `parts`, which the topology fixes), so the bytes
/// are identical for every worker-thread count.  Span ids are globally
/// unique when each shard striped its id space via set_id_base.
void dump_jsonl_merged(const std::vector<const SpanTracer*>& parts,
                       std::ostream& os);

/// Chrome trace-event JSON (schema `hwatch.trace_export/v1`): object
/// form with a sorted `traceEvents` array; loads directly in Perfetto.
/// One pid per tracer (part s -> pid s+1, named `process_names[s]`),
/// one track per flow, all events k-way merged by (timestamp, part
/// index) so `ts` stays globally sorted — the invariant the CI trace
/// checker enforces.  `incidents`, when given, is a manifest's
/// hwatch.incidents/v1 incident array: each incident becomes a B/E
/// slice on one more process ("incidents"), one track per location,
/// merged into the same time order.
void export_chrome_merged(const std::vector<const SpanTracer*>& parts,
                          std::ostream& os,
                          const std::vector<std::string>& process_names,
                          const Json* incidents = nullptr);

}  // namespace hwatch::sim
