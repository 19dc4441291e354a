// Unidirectional link: qdisc + serializing transmitter + propagation.
//
// A Link models one switch/NIC output port.  Packets admitted by the
// queue discipline are serialized one at a time at the link rate, then
// delivered to the destination node after the propagation delay.  Busy
// time is accumulated so samplers can report utilization exactly.
//
// In-flight packets form a train: once dequeued from the qdisc they
// live in `flight_` (a FIFO ring) until delivery, so the per-packet
// tx-complete and propagation events are tiny `[this]` captures rather
// than packet-carrying closures.  Event times, counts and ordering are
// identical to the packet-in-callback formulation — the train only
// changes where the bytes wait — so traces and manifests do not move by
// a byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/packet_ring.hpp"
#include "net/queue.hpp"
#include "sim/annotations.hpp"
#include "sim/context.hpp"
#include "sim/units.hpp"

namespace hwatch::net {

class Node;
class ShardInbox;

class HWATCH_SHARD_CONFINED Link {
 public:
  Link(sim::SimContext& ctx, std::string name, sim::DataRate rate,
       sim::TimePs prop_delay, std::unique_ptr<QueueDiscipline> qdisc,
       Node* dst);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Entry point for the owning node: queue the packet for transmission.
  /// Returns the qdisc's verdict (callers normally ignore it; drops are
  /// visible in stats, as on real hardware).
  EnqueueOutcome transmit(Packet&& p);

  QueueDiscipline& qdisc() { return *qdisc_; }
  const QueueDiscipline& qdisc() const { return *qdisc_; }

  sim::DataRate rate() const { return rate_; }
  const std::string& name() const { return name_; }
  Node* destination() const { return dst_; }

  std::uint64_t bytes_delivered() const { return bytes_delivered_; }
  std::uint64_t packets_delivered() const { return packets_delivered_; }

  /// Cumulative time the transmitter has spent serializing packets.
  /// utilization over [t0,t1] = (busy(t1) - busy(t0)) / (t1 - t0).
  sim::TimePs busy_time() const { return busy_time_; }

  /// Marks this link as a cross-shard egress: the destination node lives
  /// in another shard, and completed transmissions are pushed into
  /// `inbox` stamped with their arrival time (now + propagation delay)
  /// instead of being scheduled as a local propagation event.  The
  /// intra-shard fast path is untouched when unset (the default).
  void set_remote_inbox(ShardInbox* inbox) { remote_inbox_ = inbox; }

 private:
  void start_transmission();
  void on_transmission_complete();
  void deliver_front();

  sim::SimContext& ctx_;
  std::string name_;
  sim::DataRate rate_;
  sim::TimePs prop_delay_;
  std::unique_ptr<QueueDiscipline> qdisc_;
  Node* dst_;
  ShardInbox* remote_inbox_ = nullptr;
  // Shared per-context event-type counters (one branch when disabled).
  sim::Counter& tx_events_;
  sim::Counter& prop_events_;
  // The packet train: entries [0, tx_done_) have finished serializing
  // and are propagating towards dst_ (oldest first); the entry at
  // tx_done_, if any, is on the wire.  Deliveries pop the front —
  // tx-end times are monotone along one link, so propagation arrivals
  // are FIFO and the ring order is the delivery order.
  PacketRing flight_;
  std::size_t tx_done_ = 0;
  bool transmitting_ = false;
  sim::TimePs busy_time_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t packets_delivered_ = 0;
};

}  // namespace hwatch::net
