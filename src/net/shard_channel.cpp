#include "net/shard_channel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "net/node.hpp"

namespace hwatch::net {

ShardInbox::ShardInbox(std::size_t capacity)
    : capacity_(std::bit_ceil(std::max<std::size_t>(capacity, 2))) {}

void ShardInbox::push(sim::TimePs deliver_time, Packet&& p) {
  ++pushed_;
  if (depth() >= capacity_) ++spilled_;
  items_.push_back(Item{deliver_time, std::move(p)});
  // Depth after this push: the high-water mark behind peak_depth() and
  // the telemetry grow-capacity advice.
  if (depth() > peak_depth_) peak_depth_ = depth();
}

bool ShardInbox::pop(Item& out) {
  if (head_ == items_.size()) return false;
  out = std::move(items_[head_]);
  ++popped_;
  if (++head_ == items_.size()) {
    items_.clear();
    head_ = 0;
  }
  return true;
}

CrossShardChannel::CrossShardChannel(sim::SimContext& dst_ctx,
                                     Node* dst_node, std::size_t capacity)
    : dst_ctx_(dst_ctx), dst_node_(dst_node), inbox_(capacity) {
  if (dst_node_ == nullptr) {
    throw std::invalid_argument("CrossShardChannel: null destination node");
  }
}

void drain_cross_shard_channels(
    std::vector<CrossShardChannel*>& channels,
    std::vector<std::pair<Node*, ShardInbox::Item>>& scratch) {
  scratch.clear();
  for (CrossShardChannel* ch : channels) {
    ShardInbox::Item item;
    while (ch->inbox().pop(item)) {
      scratch.emplace_back(ch->dst_node(), std::move(item));
    }
  }
  if (scratch.empty()) return;
  // Deterministic total order over everything that arrived this window,
  // independent of producing link, spills, or thread timing: (arrival
  // time, packet uid).  Uids are unique across shards (per-shard
  // striping), so the order is strict.
  std::sort(scratch.begin(), scratch.end(),
            [](const auto& a, const auto& b) {
              if (a.second.deliver_time != b.second.deliver_time) {
                return a.second.deliver_time < b.second.deliver_time;
              }
              return a.second.pkt.uid < b.second.pkt.uid;
            });
  // Each packet is written once into a block of the destination
  // context's pool, so the delivery event carries a handle, not the
  // packet: the block is allocated here and freed by the delivery, both
  // on this part's worker.
  sim::SimContext& ctx = channels.front()->dst_ctx();
  sim::Scheduler& sched = ctx.scheduler();
  for (auto& [node, item] : scratch) {
    assert(item.deliver_time >= sched.now());
    sched.schedule_at(item.deliver_time,
                      [node, p = ctx.packet_pool().make<Packet>(
                                 std::move(item.pkt))] {
                        node->handle_packet(std::move(*p));
                      });
  }
  scratch.clear();
}

}  // namespace hwatch::net
