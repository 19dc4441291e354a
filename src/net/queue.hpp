// Queue-discipline (AQM) interface for switch output ports.
//
// Three implementations cover the paper's comparison set:
//   DropTailQueue       — plain FIFO tail drop (baseline "TCP-DropTail")
//   RedQueue            — RED with optional ECN marking ("TCP-RED", and the
//                         WRED-style marking HWatch relies on)
//   DctcpThresholdQueue — instantaneous step marking at threshold K
//                         (the DCTCP switch configuration)
//
// Storage follows occupancy, not the buffer bound: the FIFO is a ring
// of 16-byte pool handles, and the Packets themselves live in blocks of
// a sim::BlockPool.  A Link binds its queue to its context's
// packet_pool(), which every queue of that context shares, so a part's
// packet memory tracks the aggregate peak occupancy of its queues.
// dequeue() hands the block's handle to the caller rather than copying
// the packet out.  A queue used on its own (unit tests, micro benches)
// draws from a pool it owns, so its dequeued handles must not outlive
// it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>

#include "net/packet.hpp"
#include "net/packet_ring.hpp"
#include "sim/incident_hooks.hpp"
#include "sim/metrics.hpp"
#include "sim/pool.hpp"
#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace hwatch::net {

enum class EnqueueOutcome : std::uint8_t {
  kAccepted = 0,
  kAcceptedMarked,  // accepted and CE-marked (ECN)
  kDropped,
};

struct QueueStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t ecn_marked = 0;
  std::uint64_t bytes_enqueued = 0;
  std::uint64_t bytes_dropped = 0;
  std::uint64_t max_len_pkts = 0;
  std::uint64_t max_len_bytes = 0;
  // Drop breakdown (diagnosing who suffers when a buffer overflows).
  std::uint64_t dropped_data = 0;
  std::uint64_t dropped_probes = 0;
  std::uint64_t dropped_ctrl = 0;  // SYN / SYN-ACK / pure ACK / FIN
};

/// Hard buffer bound.  Commodity switches bound their buffers in bytes;
/// ns-2-style models bound them in packets.  Either (or both) limits can
/// be active; kUnlimited disables one dimension.
struct QueueLimits {
  static constexpr std::uint64_t kUnlimited = UINT64_MAX;
  std::uint64_t packets = kUnlimited;
  std::uint64_t bytes = kUnlimited;

  static QueueLimits in_packets(std::uint64_t pkts) {
    return QueueLimits{pkts, kUnlimited};
  }
  static QueueLimits in_bytes(std::uint64_t bytes) {
    return QueueLimits{kUnlimited, bytes};
  }
};

class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;

  /// Admits, marks or drops the packet.  The hard capacity (packets
  /// and/or bytes) is enforced here; subclasses only make the AQM
  /// mark-or-drop decision.  On kDropped the packet is destroyed
  /// (accounted in stats), mirroring a real switch.
  EnqueueOutcome enqueue(Packet&& p, sim::TimePs now);

  /// Removes the head-of-line packet and hands back its pool block;
  /// null when the queue is empty.  The packet is not copied: the
  /// handle keeps the block the packet was admitted into.
  sim::PoolPtr<Packet> dequeue(sim::TimePs now);

  std::size_t len_packets() const { return fifo_.size(); }
  std::uint64_t len_bytes() const { return bytes_; }
  bool empty() const { return fifo_.empty(); }

  const QueueStats& stats() const { return stats_; }

  /// Observability hook: when attached, every accepted enqueue records
  /// the post-enqueue queue length (packets) into `h`.  Unattached (the
  /// default) the hot path pays a single null check.
  void attach_depth_histogram(sim::Histogram* h) { depth_hist_ = h; }

  /// Incident hook: when attached, drops and post-enqueue/dequeue
  /// depths feed the sink under id `queue` (handed out by the sink at
  /// registration).  Same discipline as the histogram: unattached, each
  /// site costs one null check.
  void attach_incident_sink(sim::IncidentSink* sink, std::uint32_t queue) {
    incidents_ = sink;
    incident_queue_ = queue;
  }

  /// Draws packet storage from `pool` (a Link binds its context's
  /// packet_pool()).  Only while empty: queued packets keep the blocks
  /// of the pool they were admitted into.
  void bind_pool(sim::BlockPool& pool) {
    assert(fifo_.empty());
    assert(pool.block_bytes() >= sizeof(Packet));
    pool_ = &pool;
  }
  /// The pool queued packets live in: one block per queued packet.
  /// Dequeued handles keep their block in the same pool.
  const sim::BlockPool& packet_pool() const { return *pool_; }

  const QueueLimits& limits() const { return limits_; }
  /// Hard capacity in packets (kUnlimited when byte-bounded only).
  std::uint64_t capacity_packets() const { return limits_.packets; }

  virtual std::string name() const = 0;

 protected:
  explicit QueueDiscipline(QueueLimits limits) : limits_(limits) {
    // Packet-bounded queues never reallocate their ring of handles:
    // pre-size it to the hard bound (capped so a pathological bound
    // can't balloon memory).  The Packets themselves are pooled.
    if (limits_.packets != QueueLimits::kUnlimited) {
      fifo_.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(limits_.packets, 65536)));
    }
  }
  explicit QueueDiscipline(std::uint64_t capacity_pkts)
      : QueueDiscipline(QueueLimits::in_packets(capacity_pkts)) {}

  /// AQM decision for an arriving packet that fits the hard bound.
  virtual EnqueueOutcome classify(const Packet& p, sim::TimePs now) = 0;

  /// Hook invoked after a dequeue (e.g. RED idle-time tracking).
  virtual void on_dequeue(const Packet& p, sim::TimePs now) {
    (void)p;
    (void)now;
  }

  /// Service class of a packet: 0 = best effort; any higher class is
  /// served strictly before it (used by PriorityQueue).  FIFO within a
  /// class.
  virtual int service_class(const Packet& p) const {
    (void)p;
    return 0;
  }

  bool would_overflow(const Packet& p) const {
    return fifo_.size() + 1 > limits_.packets ||
           bytes_ + p.size_bytes() > limits_.bytes;
  }

  /// Last-resort admission hook: called when `p` would overflow the
  /// hard bound; return true after making room (push-out) to admit it
  /// anyway.  Default: no preemption.
  virtual bool make_room(const Packet& p) {
    (void)p;
    return false;
  }

  /// Evicts the most recently queued best-effort (class-0) packet,
  /// accounting it as a drop.  Returns false when none is queued.
  bool evict_best_effort_tail();

 private:
  // Standalone storage, used until bind_pool().  Declared before fifo_
  // so the handles are destroyed (returning their blocks) first.
  sim::BlockPool own_pool_{sizeof(Packet)};
  sim::BlockPool* pool_ = &own_pool_;
  Ring<sim::PoolPtr<Packet>> fifo_;  // grow-only, handles into *pool_
  std::uint64_t bytes_ = 0;
  std::size_t high_count_ = 0;  // packets of class > 0 at the head
  QueueLimits limits_;
  QueueStats stats_;
  sim::Histogram* depth_hist_ = nullptr;
  sim::IncidentSink* incidents_ = nullptr;
  std::uint32_t incident_queue_ = 0;
};

/// Plain tail-drop FIFO.
class DropTailQueue final : public QueueDiscipline {
 public:
  explicit DropTailQueue(std::uint64_t capacity_pkts)
      : QueueDiscipline(capacity_pkts) {}
  explicit DropTailQueue(QueueLimits limits) : QueueDiscipline(limits) {}
  std::string name() const override { return "droptail"; }

 protected:
  EnqueueOutcome classify(const Packet& p, sim::TimePs now) override;
};

/// DCTCP-style step marking: CE-mark every ECT packet that arrives when
/// the instantaneous queue length is at or above threshold K; tail-drop
/// at capacity.  K is in packets or bytes depending on the constructor.
/// Non-ECT packets are never marked early.
class DctcpThresholdQueue final : public QueueDiscipline {
 public:
  DctcpThresholdQueue(std::uint64_t capacity_pkts, std::uint64_t mark_k_pkts)
      : QueueDiscipline(capacity_pkts), k_pkts_(mark_k_pkts) {}
  DctcpThresholdQueue(QueueLimits limits, std::uint64_t mark_k_bytes)
      : QueueDiscipline(limits),
        k_pkts_(QueueLimits::kUnlimited),
        k_bytes_(mark_k_bytes) {}
  std::string name() const override { return "dctcp-k"; }
  std::uint64_t threshold() const { return k_pkts_; }

 protected:
  EnqueueOutcome classify(const Packet& p, sim::TimePs now) override;

 private:
  std::uint64_t k_pkts_;
  std::uint64_t k_bytes_ = QueueLimits::kUnlimited;
};

struct RedConfig {
  double min_th_pkts = 0;     // below: never mark/drop
  double max_th_pkts = 0;     // above: mark/drop with prob 1 (or gentle)
  double max_p = 0.1;         // marking prob at max_th
  double weight = 0.002;      // EWMA weight w_q
  bool gentle = true;         // ramp to 1 over [max_th, 2*max_th]
  bool ecn = true;            // mark ECT packets instead of dropping
  /// Mean packet service time, for the idle-period average decay
  /// (Floyd's "small packets per second" estimate).
  sim::TimePs mean_pkt_time = sim::microseconds(1);
  /// Byte mode (ns-2 `queue-in-bytes_`): the averaged queue length is
  /// len_bytes / mean_pkt_bytes, so small control packets contribute
  /// proportionally to their size.  Thresholds stay in mean-packet units.
  bool byte_mode = false;
  std::uint32_t mean_pkt_bytes = 1500;
};

/// Random Early Detection (Floyd & Jacobson) with ECN support and gentle
/// mode, following the ns-2 implementation's structure: EWMA average queue,
/// count-since-last-mark bias, idle-time decay.
class RedQueue final : public QueueDiscipline {
 public:
  RedQueue(std::uint64_t capacity_pkts, const RedConfig& cfg,
           std::uint64_t seed = 0x9E3779B9);
  RedQueue(QueueLimits limits, const RedConfig& cfg,
           std::uint64_t seed = 0x9E3779B9);

  std::string name() const override { return "red"; }
  double avg() const { return avg_; }
  const RedConfig& config() const { return cfg_; }

 protected:
  EnqueueOutcome classify(const Packet& p, sim::TimePs now) override;
  void on_dequeue(const Packet& p, sim::TimePs now) override;

 private:
  void update_avg(sim::TimePs now);
  double mark_probability() const;
  double next_uniform();
  double effective_len() const;

  RedConfig cfg_;
  double avg_ = 0;
  std::int64_t count_ = -1;  // arrivals since last mark; -1 per Floyd
  sim::TimePs idle_since_ = 0;
  bool idle_ = true;
  std::uint64_t prng_state_;
};

/// Convenience factory type used by topology builders.  Move-only and
/// const-invocable (builders hold factories by const reference); not a
/// hot-path call, but std::function would be the last copyable-callable
/// holdout in the packet path's construction chain.
using QdiscFactory =
    sim::UniqueFunction<std::unique_ptr<QueueDiscipline>() const>;

QdiscFactory make_droptail_factory(std::uint64_t capacity_pkts);
QdiscFactory make_dctcp_factory(std::uint64_t capacity_pkts,
                                std::uint64_t mark_k_pkts);
QdiscFactory make_red_factory(std::uint64_t capacity_pkts, RedConfig cfg);

}  // namespace hwatch::net
