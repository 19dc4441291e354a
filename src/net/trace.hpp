// Packet tracing — the ns-2 trace-file facility, as a filter.
//
// Install a PacketTracer on any host to record the packets crossing its
// hypervisor hooks (both directions), optionally filtered by a
// predicate.  Each packet becomes a kPacket instant in the context's
// SpanTracer, on the track of the flow it belongs to, with its header
// fields in the tracer's side table.  Packets thus share the span
// store's enabled()/max_events()/dropped() gate, its JSONL dump (one
// "ph":"i","kind":"packet" line each) and its Chrome export, and
// tools/trace_inspect reads them like any other trace line.  Tests read
// SpanTracer::events() + packet_of() to assert on exact packet
// sequences.
#pragma once

#include <cstdint>
#include <utility>

#include "net/filter.hpp"
#include "net/packet.hpp"
#include "sim/context.hpp"
#include "sim/unique_function.hpp"

namespace hwatch::net {

/// The flow span a packet belongs to: its wire direction's, else the
/// reverse direction's (the ACK path), so both halves of a connection
/// land on the same flow.  0 when neither direction is registered
/// (probes, untraced senders).
inline std::uint64_t traced_flow_span(const sim::SpanTracer& tr,
                                      const Packet& p) {
  const FlowKey key = flow_key_of(p);
  const auto [hi, lo] = flow_key_words(key);
  if (const std::uint64_t fs = tr.flow_span_of(hi, lo); fs != 0) return fs;
  const auto [rhi, rlo] = flow_key_words(key.reversed());
  return tr.flow_span_of(rhi, rlo);
}

class PacketTracer final : public PacketFilter {
 public:
  /// Records only packets matching the predicate (default: all).
  using Predicate = sim::UniqueFunction<bool(const Packet&)>;

  explicit PacketTracer(sim::SimContext& ctx, Predicate predicate = {})
      : ctx_(ctx), predicate_(std::move(predicate)) {}

  FilterVerdict on_outbound(Packet& p) override {
    record(p, /*outbound=*/true);
    return FilterVerdict::kPass;
  }
  FilterVerdict on_inbound(Packet& p) override {
    record(p, /*outbound=*/false);
    return FilterVerdict::kPass;
  }

 private:
  void record(const Packet& p, bool outbound) {
    sim::SpanTracer& tr = ctx_.tracer();
    // Tracing off costs one branch per hook, never a predicate call.
    if (!tr.enabled()) return;
    if (predicate_ && !predicate_(p)) return;
    sim::PacketRecord r;
    r.uid = p.uid;
    r.seq = p.tcp.seq;
    r.ack = p.tcp.ack;
    r.src = p.ip.src;
    r.dst = p.ip.dst;
    r.sport = p.tcp.src_port;
    r.dport = p.tcp.dst_port;
    r.payload = p.payload_bytes;
    r.wire = p.size_bytes();
    r.train = p.probe_train_id;
    r.rwnd = p.tcp.rwnd_raw;
    r.flags = static_cast<std::uint8_t>(
        (p.tcp.syn ? sim::PacketRecord::kSyn : 0) |
        (p.tcp.ack_flag ? sim::PacketRecord::kAck : 0) |
        (p.tcp.fin ? sim::PacketRecord::kFin : 0) |
        (p.tcp.rst ? sim::PacketRecord::kRst : 0) |
        (p.tcp.ece ? sim::PacketRecord::kEce : 0) |
        (p.tcp.cwr ? sim::PacketRecord::kCwr : 0));
    r.ecn = static_cast<std::uint8_t>(p.ip.ecn);
    r.probe = p.kind == PacketKind::kProbe;
    r.outbound = outbound;
    tr.packet(ctx_.now(), traced_flow_span(tr, p), r);
  }

  sim::SimContext& ctx_;
  Predicate predicate_;
};

}  // namespace hwatch::net
