// Cross-shard packet channels for conservative sharded simulation.
//
// A CrossShardChannel is the only sanctioned way for packets — and
// therefore any state at all — to move between two shards' SimContexts.
// The producer side is a Link whose destination node lives in another
// shard: at transmission-complete time it pushes the packet, stamped
// with its arrival time (now + propagation delay), into the channel's
// ShardInbox.  The consumer side runs in the destination shard's drain
// phase: it empties every inbox, sorts the haul by (deliver_time,
// packet uid) — a deterministic total order independent of which link
// or thread produced each packet — and schedules the deliveries into
// the local scheduler.  Each drained packet is moved into a block of the
// destination context's packet_pool(), and its delivery event carries
// only that PoolPtr and the destination node, so it fits the
// scheduler's 32-byte callback slot.  The block is allocated at drain
// and freed at delivery, both on the destination part's worker.
//
// ShardInbox is a plain grow-only vector.  Producers push only during
// run phases and the consumer pops only during drain phases; the
// ShardGroup std::barrier between the phases orders every access, so
// the inbox needs no atomics.  The drain pops FIFO and clears the
// vector, keeping its capacity, so memory follows the deepest window
// and a warmed-up channel never allocates.  `capacity` is a depth
// budget, not storage: a push beyond it still lands (never blocks,
// never drops) but counts in spilled(), the signal behind the
// telemetry's grow-capacity advice.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/annotations.hpp"
#include "sim/context.hpp"

namespace hwatch::net {

class Node;

/// Grow-only FIFO of in-flight cross-shard packets.  push() is called
/// by the source shard's worker (producer), pop() by the destination
/// shard's worker (consumer); the ShardGroup barrier separates the two
/// roles in time.
class HWATCH_SHARD_SHARED ShardInbox {
 public:
  struct Item {
    sim::TimePs deliver_time = 0;
    Packet pkt;
  };

  /// `capacity` is the depth budget, rounded up to a power of two.  One
  /// window's worth of transmissions on a single link fits comfortably
  /// in the default; deeper windows spill (counted), never drop.
  explicit ShardInbox(std::size_t capacity = 1024);

  ShardInbox(const ShardInbox&) = delete;
  ShardInbox& operator=(const ShardInbox&) = delete;

  /// Producer side: enqueue a packet that must surface in the
  /// destination shard at `deliver_time`.
  void push(sim::TimePs deliver_time, Packet&& p);

  /// Consumer side: dequeue the oldest item; false when empty.  Popping
  /// the last item clears the storage (keeping its capacity).
  bool pop(Item& out);

  bool ring_empty() const { return depth() == 0; }

  std::uint64_t pushed() const { return pushed_; }
  std::uint64_t popped() const { return popped_; }
  /// Pushes that found the inbox already holding capacity() items.
  std::uint64_t spilled() const { return spilled_; }
  std::size_t capacity() const { return capacity_; }

  /// High-water mark of the inbox depth observed at push time — the
  /// number a grow-capacity decision needs.  Producer-owned like
  /// pushed()/spilled(): read it from the consumer side only during a
  /// drain phase (the epoch barrier orders the access).
  std::uint64_t peak_depth() const { return peak_depth_; }

  /// Items currently pending.  Consumer-side drain-phase view:
  /// producers are quiescent, so this is exactly what the next drain
  /// will pop.
  std::size_t depth() const { return items_.size() - head_; }

 private:
  std::vector<Item> items_;  // producer appends, consumer pops from head_
  std::size_t head_ = 0;     // consumer-side read position
  std::size_t capacity_;
  std::uint64_t pushed_ = 0;      // producer-side counter
  std::uint64_t spilled_ = 0;     // producer-side counter
  std::uint64_t peak_depth_ = 0;  // producer-side high-water mark
  std::uint64_t popped_ = 0;      // consumer-side counter
};

/// One directed cross-shard edge: the inbox plus the destination-shard
/// identity needed to deliver into it.  Owned by the destination shard;
/// the source shard's Link holds a pointer to the inbox only.
class HWATCH_SHARD_SHARED CrossShardChannel {
 public:
  /// `dst_ctx`/`dst_node`: the receiving shard's context and the node
  /// (switch or host) the packets are addressed to — the same node the
  /// producing Link names as its destination.
  CrossShardChannel(sim::SimContext& dst_ctx, Node* dst_node,
                    std::size_t capacity = 1024);

  ShardInbox& inbox() { return inbox_; }
  const ShardInbox& inbox() const { return inbox_; }
  Node* dst_node() const { return dst_node_; }
  sim::SimContext& dst_ctx() { return dst_ctx_; }

 private:
  sim::SimContext& dst_ctx_;
  Node* dst_node_;
  ShardInbox inbox_;
};

/// Drain phase for one shard: empties every channel, sorts the haul by
/// (deliver_time, packet uid) and schedules the deliveries, each packet
/// in a block of the destination context's packet pool, into that
/// context's scheduler.  `scratch` is caller-owned reusable
/// storage so the steady state allocates nothing.  All channels must
/// target the same shard (context).
void drain_cross_shard_channels(
    std::vector<CrossShardChannel*>& channels,
    std::vector<std::pair<Node*, ShardInbox::Item>>& scratch);

}  // namespace hwatch::net
