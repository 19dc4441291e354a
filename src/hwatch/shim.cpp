#include "hwatch/shim.hpp"

#include <algorithm>
#include <memory>

#include "net/checksum.hpp"
#include "sim/incident_hooks.hpp"
#include "sim/log.hpp"
#include "tcp/common.hpp"

namespace hwatch::core {

HypervisorShim::HypervisorShim(net::Network& net, net::Host& host,
                               HWatchConfig config, sim::Rng rng)
    : net_(net),
      ctx_(net.ctx()),
      host_(host),
      cfg_(config),
      rng_(rng),
      m_rwnd_rewrites_(ctx_.metrics().counter("hwatch.rwnd_rewrites")),
      m_checksum_recomputes_(
          ctx_.metrics().counter("hwatch.checksum_recomputes")),
      m_probe_trains_sent_(
          ctx_.metrics().counter("hwatch.probe_trains_sent")),
      m_probe_trains_recv_(
          ctx_.metrics().counter("hwatch.probe_trains_recv")),
      m_probes_absorbed_(ctx_.metrics().counter("hwatch.probes_absorbed")),
      m_window_decisions_(
          ctx_.metrics().counter("hwatch.window_decisions")) {}

// Flow span of a data-direction key, or 0 when the sender isn't traced
// (e.g. remote sender not simulated with tracing on this context).
static std::uint64_t traced_flow_span(const sim::SpanTracer& tr,
                                      const net::FlowKey& key) {
  auto [hi, lo] = net::flow_key_words(key);
  return tr.flow_span_of(hi, lo);
}

net::FilterVerdict HypervisorShim::on_outbound(net::Packet& p) {
  sim::ProfScope prof(ctx_.profiler(), sim::ProfComponent::kShim);
  if (p.kind != net::PacketKind::kTcp) return net::FilterVerdict::kPass;

  // Preemptive-alternative mode: control packets ride the high band.
  if (cfg_.prioritize_short_flows && p.payload_bytes == 0) {
    p.ip.dscp = 1;
  }

  if (p.tcp.syn && !p.tcp.ack_flag) {
    // Guest SYN leaving this host: sender role.
    return hold_syn_and_probe(p);
  }
  if (p.tcp.syn && p.tcp.ack_flag) {
    // Guest SYN-ACK: receiver role; the data-direction key is reversed.
    FlowEntry* e = flows_.find(net::flow_key_of(p).reversed());
    if (e != nullptr && e->role == FlowRole::kReceiver) {
      rewrite_synack(p, *e);
      if (cfg_.pace_synacks) return pace_synack(p, *e);
    }
    return net::FilterVerdict::kPass;
  }
  if (p.tcp.fin) {
    FlowEntry* e = flows_.find(net::flow_key_of(p));
    if (e != nullptr && !e->fin_seen) {
      e->fin_seen = true;
      schedule_cleanup(e->key);
    }
    return net::FilterVerdict::kPass;
  }
  if (p.is_pure_ack()) {
    FlowEntry* e = flows_.find(net::flow_key_of(p).reversed());
    if (e != nullptr && e->role == FlowRole::kReceiver) {
      rewrite_ack(p, *e);
    }
    return net::FilterVerdict::kPass;
  }
  if (p.payload_bytes > 0) {
    FlowEntry* e = flows_.find(net::flow_key_of(p));
    if (e != nullptr && e->role == FlowRole::kSender) {
      // Outbound data from a legacy (non-ECN) guest: stamp ECT(0) so
      // the fabric can signal congestion by marking, not dropping.
      if (cfg_.transparent_ect && !e->guest_ecn_capable &&
          p.ip.ecn == net::Ecn::kNotEct) {
        p.ip.ecn = net::Ecn::kEct0;
      }
      if (cfg_.prioritize_short_flows) {
        if (e->bytes_sent_seen < cfg_.priority_bytes_threshold) {
          p.ip.dscp = 1;
        }
        e->bytes_sent_seen += p.payload_bytes;
      }
    }
  }
  return net::FilterVerdict::kPass;
}

net::FilterVerdict HypervisorShim::on_inbound(net::Packet& p) {
  sim::ProfScope prof(ctx_.profiler(), sim::ProfComponent::kShim);
  if (p.kind == net::PacketKind::kProbe) {
    absorb_probe(p);
    return net::FilterVerdict::kConsume;
  }
  if (p.tcp.syn && !p.tcp.ack_flag) {
    note_inbound_syn(p);
    return net::FilterVerdict::kPass;
  }
  if (p.payload_bytes > 0) {
    note_inbound_data(p);
  }
  if (p.tcp.fin) {
    FlowEntry* e = flows_.find(net::flow_key_of(p));
    if (e != nullptr && !e->fin_seen) {
      e->fin_seen = true;
      schedule_cleanup(e->key);
    }
  }
  return net::FilterVerdict::kPass;
}

// ---------------------------------------------------------------- sender

net::FilterVerdict HypervisorShim::hold_syn_and_probe(net::Packet& syn) {
  const net::FlowKey key = net::flow_key_of(syn);
  FlowEntry& e = flows_.upsert(key, FlowRole::kSender);
  e.guest_ecn_capable = syn.tcp.ece && syn.tcp.cwr;
  if (cfg_.probe_count == 0 || e.syn_held) {
    // Probing disabled, or this is a retransmitted SYN for a flow whose
    // train already went out: let it through untouched.
    return net::FilterVerdict::kPass;
  }
  e.syn_held = true;
  ++stats_.syns_held;
  m_probe_trains_sent_.inc();
  const std::uint32_t train = next_train_id_++;
  e.probes_sent = cfg_.probe_count;

  // Non-uniform spacing: probe i leaves inside slot i of the span, at a
  // uniformly random offset, so inter-departure gaps are neither zero nor
  // constant (Section IV-C).
  const sim::TimePs span = std::max<sim::TimePs>(cfg_.probe_span, 1);
  for (std::uint32_t i = 0; i < cfg_.probe_count; ++i) {
    const auto slot = static_cast<double>(span) /
                      static_cast<double>(cfg_.probe_count + 1);
    const auto at = static_cast<sim::TimePs>(
        slot * (static_cast<double>(i) + rng_.uniform()));
    ctx_.scheduler().schedule_in(at, [this, key, train] { inject_probe(key, train); });
  }

  std::uint64_t train_span = 0;
  if (ctx_.tracer().enabled()) {
    const std::uint64_t fs = traced_flow_span(ctx_.tracer(), key);
    train_span = ctx_.tracer().begin_span(
        ctx_.now(), sim::SpanKind::kProbeTrain, fs, fs, cfg_.probe_count, 0,
        train);
  }

  // Release the held SYN after the train (bounded handshake delay).
  // The SYN lives in a pooled block: SYN holds recur per short flow, so
  // the pool recycles one block per concurrent held handshake.
  auto held = ctx_.packet_pool().make<net::Packet>(syn);
  ctx_.scheduler().schedule_in(
      span, [this, held = std::move(held), train_span] {
        ctx_.tracer().end_span(ctx_.now(), train_span);
        host_.send_raw(std::move(*held));
      });
  return net::FilterVerdict::kConsume;
}

void HypervisorShim::inject_probe(const net::FlowKey& key,
                                  std::uint32_t train_id) {
  net::Packet probe;
  probe.uid = ctx_.next_packet_uid();
  probe.kind = net::PacketKind::kProbe;
  probe.ip.src = key.src;
  probe.ip.dst = key.dst;
  probe.ip.ecn = net::Ecn::kEct0;  // probes must be markable
  probe.tcp.src_port = key.src_port;
  probe.tcp.dst_port = key.dst_port;
  probe.payload_bytes = cfg_.probe_payload_bytes;
  probe.probe_train_id = train_id;
  probe.sent_time = ctx_.now();
  ++stats_.probes_injected;
  stats_.probe_bytes_injected += probe.size_bytes();
  host_.send_raw(std::move(probe));
}

// -------------------------------------------------------------- receiver

void HypervisorShim::absorb_probe(const net::Packet& p) {
  FlowEntry& e = flows_.upsert(net::flow_key_of(p), FlowRole::kReceiver);
  if (e.probe_marked + e.probe_unmarked == 0) m_probe_trains_recv_.inc();
  ++stats_.probes_absorbed;
  m_probes_absorbed_.inc();
  if (p.ip.ecn == net::Ecn::kCe) {
    ++e.probe_marked;
    ++stats_.probes_absorbed_marked;
  } else {
    ++e.probe_unmarked;
  }
  auto [it, inserted] =
      path_delay_.try_emplace(p.ip.src, cfg_.delay_drain_rate);
  it->second.add_sample(ctx_.now() - p.sent_time);
}

void HypervisorShim::note_inbound_syn(const net::Packet& p) {
  FlowEntry& e = flows_.upsert(net::flow_key_of(p), FlowRole::kReceiver);
  e.sender_wscale = p.tcp.wscale;
  e.guest_ecn_capable = p.tcp.ece && p.tcp.cwr;
  e.syn_seen = true;
  e.round_start = ctx_.now();
}

void HypervisorShim::note_inbound_data(net::Packet& p) {
  FlowEntry* e = flows_.find(net::flow_key_of(p));
  if (e == nullptr || e->role != FlowRole::kReceiver) return;
  if (p.ip.ecn == net::Ecn::kCe) {
    ++e->marked;
    // Legacy guest: the hypervisor consumes the congestion signal itself
    // and hides the codepoint from the unsuspecting stack.
    if (cfg_.transparent_ect && !e->guest_ecn_capable) {
      p.ip.ecn = net::Ecn::kNotEct;
    }
  } else {
    ++e->unmarked;
  }
}

void HypervisorShim::rewrite_synack(net::Packet& p, FlowEntry& e) {
  e.receiver_wscale = p.tcp.wscale;
  e.synack_seen = true;
  e.round_start = ctx_.now();

  if (e.probe_unmarked + e.probe_marked > 0) {
    std::uint64_t unmarked = e.probe_unmarked;
    std::uint64_t marked = e.probe_marked;
    if (cfg_.use_delay_signal) {
      // Timing evidence of a standing queue (Section III-D): treat up
      // to the estimated queue depth of unmarked probes as congested.
      // The path baseline comes from every train this hypervisor ever
      // saw from that host, so a fresh flow is judged against history.
      auto it = path_delay_.find(e.key.src);
      if (it != path_delay_.end() && it->second.has_samples()) {
        const std::uint64_t reclassify = std::min(
            unmarked, it->second.queued_packets_estimate(cfg_.mss));
        unmarked -= reclassify;
        marked += reclassify;
      }
    }
    BatchPlan plan = plan_window(unmarked, marked, cfg_.policy, &rng_);
    // Setup caution: every connection start is a potential incast
    // member; hold back part of even the "clean" grant for one drain
    // interval (see HWatchConfig::setup_caution_divisor).
    if (cfg_.setup_caution_divisor > 1 && plan.immediate_packets > 1) {
      const std::uint64_t now_pkts = std::max<std::uint64_t>(
          plan.immediate_packets / cfg_.setup_caution_divisor, 1);
      const std::uint64_t held = plan.immediate_packets - now_pkts;
      plan.immediate_packets = now_pkts;
      if (held > 0) {
        plan.deferred.push_back(
            DeferredGrant{cfg_.policy.batch_interval, held});
      }
    }
    if (ctx_.tracer().enabled()) {
      std::uint64_t deferred_pkts = 0;
      for (const DeferredGrant& g : plan.deferred) deferred_pkts += g.packets;
      const std::uint64_t fs = traced_flow_span(ctx_.tracer(), e.key);
      e.decision_span = ctx_.tracer().instant(
          ctx_.now(), sim::SpanKind::kDecision, fs, fs, unmarked, marked,
          plan.immediate_packets, deferred_pkts);
    }
    const std::uint64_t immediate =
        std::clamp<std::uint64_t>(plan.immediate_packets * cfg_.mss,
                                  cfg_.min_window_bytes,
                                  cfg_.max_window_bytes);
    e.allowance_bytes = immediate;
    for (const DeferredGrant& g : plan.deferred) {
      e.pending_grants.push_back(FlowEntry::PendingGrant{
          ctx_.now() + g.delay, g.packets * cfg_.mss});
    }
    e.probe_unmarked = 0;
    e.probe_marked = 0;
    ++stats_.window_decisions;
    m_window_decisions_.inc();
    apply_window(p, e, /*synack=*/true);
    ++stats_.synacks_rewritten;
  }
}

net::FilterVerdict HypervisorShim::pace_synack(net::Packet& p,
                                               FlowEntry& e) {
  const sim::TimePs now = ctx_.now();
  if (now >= slot_start_ + cfg_.synack_batch_interval) {
    slot_start_ = now;
    slot_used_ = 0;
  }
  if (synack_queue_.empty() && slot_used_ < cfg_.synack_batch_size) {
    ++slot_used_;
    return net::FilterVerdict::kPass;
  }
  if (e.synack_queued) {
    // A SYN retransmission produced a duplicate SYN-ACK while one is
    // already waiting for admission: suppress it.
    ++stats_.synacks_deduplicated;
    return net::FilterVerdict::kConsume;
  }
  e.synack_queued = true;
  ++stats_.synacks_paced;
  synack_queue_.push_back(ctx_.packet_pool().make<net::Packet>(p));
  if (!drain_scheduled_) {
    drain_scheduled_ = true;
    const sim::TimePs next_slot = slot_start_ + cfg_.synack_batch_interval;
    ctx_.scheduler().schedule_at(std::max(next_slot, now),
                       [this] { drain_synack_queue(); });
  }
  return net::FilterVerdict::kConsume;
}

void HypervisorShim::drain_synack_queue() {
  drain_scheduled_ = false;
  const sim::TimePs now = ctx_.now();
  if (now >= slot_start_ + cfg_.synack_batch_interval) {
    slot_start_ = now;
    slot_used_ = 0;
  }
  while (!synack_queue_.empty() && slot_used_ < cfg_.synack_batch_size) {
    sim::PoolPtr<net::Packet> p = synack_queue_.pop_front();
    ++slot_used_;
    FlowEntry* e = flows_.find(net::flow_key_of(*p).reversed());
    if (e != nullptr) e->synack_queued = false;
    host_.send_raw(std::move(*p));
  }
  if (!synack_queue_.empty()) {
    drain_scheduled_ = true;
    ctx_.scheduler().schedule_at(slot_start_ + cfg_.synack_batch_interval,
                       [this] { drain_synack_queue(); });
  }
}

void HypervisorShim::rewrite_ack(net::Packet& p, FlowEntry& e) {
  const sim::TimePs now = ctx_.now();
  e.apply_due_grants(now);
  if (now - e.round_start >= cfg_.round_interval) {
    run_round_decision(e);
  }
  if (e.allowance_bytes.has_value()) {
    apply_window(p, e, /*synack=*/false);
  }
}

void HypervisorShim::run_round_decision(FlowEntry& e) {
  const std::uint64_t seen = e.marked + e.unmarked;
  e.round_start = ctx_.now();
  if (seen == 0) return;  // idle round: nothing learned
  ++stats_.window_decisions;
  m_window_decisions_.inc();

  if (e.marked == 0) {
    // Clean round: re-open additively (one segment per round, mirroring
    // congestion avoidance) so the allowance converges to the marking
    // threshold instead of overshooting the buffer.
    ++e.clean_rounds;
    if (e.allowance_bytes.has_value()) {
      e.allowance_bytes = std::min<std::uint64_t>(
          *e.allowance_bytes + cfg_.mss, cfg_.max_window_bytes);
    }
    if (ctx_.tracer().enabled()) {
      const std::uint64_t fs = traced_flow_span(ctx_.tracer(), e.key);
      e.decision_span = ctx_.tracer().instant(
          ctx_.now(), sim::SpanKind::kDecision, fs, fs, e.unmarked, e.marked,
          e.allowance_bytes.value_or(0) / cfg_.mss, 0);
    }
  } else {
    e.clean_rounds = 0;
    const BatchPlan plan = plan_window(e.unmarked, e.marked, cfg_.policy,
                                       &rng_);
    e.allowance_bytes = std::clamp<std::uint64_t>(
        plan.immediate_packets * cfg_.mss, cfg_.min_window_bytes,
        cfg_.max_window_bytes);
    std::uint64_t deferred_pkts = 0;
    for (const DeferredGrant& g : plan.deferred) {
      e.pending_grants.push_back(FlowEntry::PendingGrant{
          ctx_.now() + g.delay, g.packets * cfg_.mss});
      deferred_pkts += g.packets;
    }
    if (ctx_.tracer().enabled()) {
      const std::uint64_t fs = traced_flow_span(ctx_.tracer(), e.key);
      e.decision_span = ctx_.tracer().instant(
          ctx_.now(), sim::SpanKind::kDecision, fs, fs, e.unmarked, e.marked,
          plan.immediate_packets, deferred_pkts);
    }
  }
  e.marked = 0;
  e.unmarked = 0;
}

void HypervisorShim::apply_window(net::Packet& p, FlowEntry& e,
                                  bool synack) {
  // RFC 7323: SYN-ACK windows are unscaled; established ACKs carry the
  // local guest's announced shift, which the shim tracked from the
  // SYN-ACK.
  const std::uint8_t shift = synack ? 0 : e.receiver_wscale;
  const std::uint64_t guest = tcp::decode_window(p.tcp.rwnd_raw, shift);
  const std::uint64_t cap =
      std::max(e.allowance_bytes.value_or(cfg_.max_window_bytes),
               cfg_.min_window_bytes);
  const std::uint64_t target = std::min(guest, cap);
  const std::uint16_t new_raw = tcp::encode_window(target, shift);
  if (new_raw == p.tcp.rwnd_raw) return;
  if (ctx_.tracer().enabled()) {
    // Provenance link: parent = the decision that set this allowance, so
    // trace_inspect can walk rwnd_write -> decision -> probe/round
    // observation for any flow.
    const std::uint64_t fs = traced_flow_span(ctx_.tracer(), e.key);
    ctx_.tracer().instant(ctx_.now(), sim::SpanKind::kRwndWrite,
                          e.decision_span, fs, target, p.tcp.rwnd_raw,
                          new_raw, synack ? 1 : 0);
  }
  // Patch the header exactly as the kernel module does: rewrite the
  // 16-bit window word and incrementally fix the checksum (RFC 1624).
  p.tcp.checksum =
      net::checksum_adjust(p.tcp.checksum, p.tcp.rwnd_raw, new_raw);
  m_checksum_recomputes_.inc();
  p.tcp.rwnd_raw = new_raw;
  m_rwnd_rewrites_.inc();
  if (sim::IncidentSink* inc = ctx_.incidents()) {
    const auto [hi, lo] = net::flow_key_words(e.key);
    inc->on_rwnd_rewrite(host_.id(), hi, lo, ctx_.now());
  }
  if (!synack) ++stats_.acks_rewritten;
}

void HypervisorShim::schedule_cleanup(const net::FlowKey& key) {
  ctx_.scheduler().schedule_in(cfg_.flow_cleanup_delay, [this, key] {
    if (flows_.erase(key)) ++stats_.flows_cleaned;
  });
}

std::unique_ptr<HypervisorShim> install_hwatch(net::Network& net,
                                               net::Host& host,
                                               const HWatchConfig& config,
                                               sim::Rng rng) {
  auto shim = std::make_unique<HypervisorShim>(net, host, config, rng);
  host.install_filter(shim.get());
  return shim;
}

}  // namespace hwatch::core
