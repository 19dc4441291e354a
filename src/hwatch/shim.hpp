// HypervisorShim — the HWatch end-host module (the paper's contribution).
//
// Installed as a PacketFilter on a host, it plays both roles of Figure 5:
//
//   Sender side (Rule 2 set-up):  an outbound guest SYN is held back
//   while a train of tiny Probe1 packets (38 bytes, ECT) is injected
//   towards the destination with non-uniform spacing inside ~RTT/2; the
//   SYN follows the train.  The probes sample the path's ECN state at
//   connection set-up — before the guest's (potentially large) initial
//   window can blast into a full buffer.
//
//   Receiver side:  probes are absorbed and tallied per flow; arriving
//   data packets feed per-round CE statistics; outgoing SYN-ACKs and
//   ACKs get their receive-window field rewritten to the Next-Fit
//   allowance (WindowPolicy) — scale-aware, checksum-fixed — throttling
//   the remote sender's effective (initial) window exactly as a
//   hypervisor kernel module would, with no guest or switch changes.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "hwatch/delay_watcher.hpp"

#include "hwatch/flow_table.hpp"
#include "hwatch/window_policy.hpp"
#include "net/filter.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "net/packet_ring.hpp"
#include "sim/annotations.hpp"
#include "sim/context.hpp"
#include "sim/random.hpp"

namespace hwatch::core {

struct HWatchConfig {
  /// Probe-train length at connection set-up (the paper uses the Linux
  /// default initial window, 10).  0 disables probing.
  std::uint32_t probe_count = 10;
  /// The whole train plus the SYN leaves within this span (paper: a
  /// reasonable bound is RTT/2 of added handshake delay).
  sim::TimePs probe_span = sim::microseconds(50);
  /// Extra payload carried by each probe (0 = pure 38-byte raw IP).
  std::uint32_t probe_payload_bytes = 0;

  /// Next-Fit batching behaviour and drain-time estimate.
  WindowPolicyConfig policy;

  /// Observation-round length for steady-state watching (Rule 1); about
  /// one RTT so a round covers a full window of ACK feedback.
  sim::TimePs round_interval = sim::microseconds(100);

  /// Connection-setup caution ("cautious congestion watch"): the probe
  /// train samples the path but cannot prove there is room for every
  /// member of a looming incast to start at the full initial window, so
  /// the setup grant is split — immediate/divisor released at once, the
  /// rest one drain-interval later.  1 disables the extra caution.
  std::uint32_t setup_caution_divisor = 2;

  /// Segment size used to convert packet counts to window bytes.
  std::uint32_t mss = net::kDefaultMss;

  /// Window floor: never throttle below this many bytes.
  std::uint64_t min_window_bytes = net::kDefaultMss;

  /// Secondary congestion signal (Section III-D): unmarked probes whose
  /// one-way delay is inflated — evidence of a standing queue the
  /// marking threshold has not flagged yet — are reclassified as
  /// congested before the setup window is planned.  `delay_drain_rate`
  /// converts inflation to queued packets (set to the access rate).
  bool use_delay_signal = false;
  sim::DataRate delay_drain_rate = sim::DataRate::gbps(10);

  /// Ceiling for re-opening after clean (mark-free) rounds.
  std::uint64_t max_window_bytes = 1u << 20;

  /// How long after a FIN the flow entry is kept (handles retransmitted
  /// FINs) before being cleared from the table.
  sim::TimePs flow_cleanup_delay = sim::milliseconds(10);

  /// Token-bucket pacing of SYN-ACK batches (Section IV-D): the
  /// receiving hypervisor admits at most `synack_batch_size` new
  /// connections per `synack_batch_interval`, holding further SYN-ACKs
  /// in a queue.  This staggers large request waves (the testbed's
  /// 1260-flow bursts) so admitted flows finish fast instead of all
  /// flows crawling together through an overloaded buffer.  Disabled by
  /// default; scenarios with massive fan-in enable it.
  bool pace_synacks = false;
  std::uint32_t synack_batch_size = 8;
  sim::TimePs synack_batch_interval = sim::microseconds(100);

  /// Preemptive alternative (for the R2 comparison benches): stamp the
  /// DSCP of control packets and of data from flows that have sent
  /// fewer than `priority_bytes_threshold` bytes, so PriorityQueue
  /// fabrics serve them first.  This is NOT part of HWatch proper — it
  /// needs priority-configured switches (violating R4) and starves bulk
  /// flows under sustained short-flow load (the R2 critique).
  bool prioritize_short_flows = false;
  std::uint64_t priority_bytes_threshold = 100 * 1024;

  /// Transparent ECT: when the guest VM is not ECN-capable (its SYN
  /// carried no ECE+CWR), the sending hypervisor stamps outbound data
  /// ECT(0) so switches can mark instead of drop, and the receiving
  /// hypervisor records and strips the CE mark before delivery, keeping
  /// the guest stack untouched (VM-autonomy, requirement R3).  This is
  /// how "Probe2" data-packet probing works for legacy-TCP tenants.
  bool transparent_ect = true;
};

struct ShimStats {
  std::uint64_t probes_injected = 0;
  std::uint64_t probe_bytes_injected = 0;
  std::uint64_t probes_absorbed = 0;
  std::uint64_t probes_absorbed_marked = 0;
  std::uint64_t syns_held = 0;
  std::uint64_t synacks_rewritten = 0;
  std::uint64_t synacks_paced = 0;       // delayed by admission pacing
  std::uint64_t synacks_deduplicated = 0;
  std::uint64_t acks_rewritten = 0;
  std::uint64_t window_decisions = 0;
  std::uint64_t flows_cleaned = 0;
};

class HWATCH_SHARD_CONFINED HypervisorShim final : public net::PacketFilter {
 public:
  HypervisorShim(net::Network& net, net::Host& host, HWatchConfig config,
                 sim::Rng rng);

  net::FilterVerdict on_outbound(net::Packet& p) override;
  net::FilterVerdict on_inbound(net::Packet& p) override;

  const ShimStats& stats() const { return stats_; }
  const HWatchConfig& config() const { return cfg_; }
  FlowTable& flow_table() { return flows_; }
  const FlowTable& flow_table() const { return flows_; }

 private:
  // --- sender role ---
  net::FilterVerdict hold_syn_and_probe(net::Packet& syn);
  void inject_probe(const net::FlowKey& key, std::uint32_t train_id);

  // --- receiver role ---
  void absorb_probe(const net::Packet& p);
  void note_inbound_syn(const net::Packet& p);
  void note_inbound_data(net::Packet& p);
  void rewrite_synack(net::Packet& p, FlowEntry& e);
  void rewrite_ack(net::Packet& p, FlowEntry& e);
  /// Admission pacing: returns kConsume when the SYN-ACK was queued (or
  /// was a duplicate of a queued one), kPass when it may leave now.
  net::FilterVerdict pace_synack(net::Packet& p, FlowEntry& e);
  void drain_synack_queue();
  void run_round_decision(FlowEntry& e);
  void apply_window(net::Packet& p, FlowEntry& e, bool synack);
  void schedule_cleanup(const net::FlowKey& key);

  net::Network& net_;
  sim::SimContext& ctx_;
  net::Host& host_;
  HWatchConfig cfg_;
  sim::Rng rng_;
  FlowTable flows_;
  ShimStats stats_;
  std::uint32_t next_train_id_ = 1;

  // Per-context observability counters (one branch each when the
  // registry is disabled); shared across all shims of the context.
  sim::Counter& m_rwnd_rewrites_;
  sim::Counter& m_checksum_recomputes_;
  sim::Counter& m_probe_trains_sent_;
  sim::Counter& m_probe_trains_recv_;
  sim::Counter& m_probes_absorbed_;
  sim::Counter& m_window_decisions_;

  /// Per-path (remote sender host) delay statistics: the uncongested
  /// baseline is learned across *all* flows from that host, so a fresh
  /// connection's probes can be judged against history (Section III-D,
  /// "any other packets flowing between the source-destination pairs").
  std::unordered_map<net::NodeId, DelayWatcher> path_delay_;

  // SYN-ACK admission pacing state.  A paced SYN-ACK waits in a block
  // of the context's packet pool; the ring (not std::deque, which
  // churns a heap node every few packets even at steady depth) holds
  // the handles.
  net::Ring<sim::PoolPtr<net::Packet>> synack_queue_;
  sim::TimePs slot_start_ = 0;
  std::uint32_t slot_used_ = 0;
  bool drain_scheduled_ = false;
};

/// Creates and installs a shim on `host`; the host keeps using it by
/// pointer, the returned unique_ptr owns it (keep it alive scenario-long).
std::unique_ptr<HypervisorShim> install_hwatch(net::Network& net,
                                               net::Host& host,
                                               const HWatchConfig& config,
                                               sim::Rng rng);

}  // namespace hwatch::core
