// Unidirectional link: qdisc + serializing transmitter + propagation.
//
// A Link models one switch/NIC output port.  Packets admitted by the
// queue discipline are serialized one at a time at the link rate, then
// delivered to the destination node after the propagation delay.  Busy
// time is accumulated so samplers can report utilization exactly.
//
// A packet stays in the pool block the qdisc wrote it into until it
// arrives: dequeue hands back the block's handle, the tx-complete event
// carries it (`[this, handle]`), and so does the propagation event
// after it.  A cross-shard link instead moves the packet into the
// remote inbox at tx-complete, which frees the block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

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

  /// Packets dequeued from the qdisc that have neither arrived at the
  /// destination nor been pushed into the remote inbox yet: each holds
  /// one packet-pool block inside a pending event.
  std::size_t in_flight() const { return in_flight_; }

  /// Marks this link as a cross-shard egress: the destination node lives
  /// in another shard, and completed transmissions are pushed into
  /// `inbox` stamped with their arrival time (now + propagation delay)
  /// instead of being scheduled as a local propagation event.  The
  /// intra-shard fast path is untouched when unset (the default).
  void set_remote_inbox(ShardInbox* inbox) { remote_inbox_ = inbox; }

 private:
  void start_transmission();
  void on_transmission_complete(sim::PoolPtr<Packet> p);

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
  std::size_t in_flight_ = 0;
  bool transmitting_ = false;
  sim::TimePs busy_time_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t packets_delivered_ = 0;
};

}  // namespace hwatch::net
