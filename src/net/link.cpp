#include "net/link.hpp"

#include <cassert>
#include <utility>

#include "net/node.hpp"
#include "net/shard_channel.hpp"
#include "net/trace.hpp"

namespace hwatch::net {

// The packet-block sizing contract lives here, where sim-layer
// constants and net::Packet are both visible without layering sim on
// net.
static_assert(sim::SimContext::kPacketBlockBytes >= sizeof(Packet),
              "packet pool blocks must fit a Packet");

Link::Link(sim::SimContext& ctx, std::string name, sim::DataRate rate,
           sim::TimePs prop_delay, std::unique_ptr<QueueDiscipline> qdisc,
           Node* dst)
    : ctx_(ctx),
      name_(std::move(name)),
      rate_(rate),
      prop_delay_(prop_delay),
      qdisc_(std::move(qdisc)),
      dst_(dst),
      tx_events_(ctx.metrics().counter("sched.events.link_tx")),
      prop_events_(ctx.metrics().counter("sched.events.link_prop")) {
  assert(qdisc_ != nullptr);
  assert(dst_ != nullptr);
  // Queued packets live in the context's pool, shared by every queue of
  // the part, so packet memory follows the part's aggregate occupancy.
  qdisc_->bind_pool(ctx.packet_pool());
}

EnqueueOutcome Link::transmit(Packet&& p) {
  const EnqueueOutcome outcome = qdisc_->enqueue(std::move(p), ctx_.now());
  if (outcome != EnqueueOutcome::kDropped && !transmitting_) {
    start_transmission();
  }
  return outcome;
}

// Attributes a latency component to the packet's flow span (either
// direction, see traced_flow_span).  Unregistered flows (probes, port
// collisions) fall through to flow_span 0: context-wide histogram only.
static void attribute_latency(sim::SpanTracer& tr, const Packet& p,
                              sim::LatencyComponent c, sim::TimePs dt) {
  tr.add_latency(traced_flow_span(tr, p), c, dt);
}

void Link::start_transmission() {
  sim::PoolPtr<Packet> next = qdisc_->dequeue(ctx_.now());
  if (!next) return;
  transmitting_ = true;
  ++in_flight_;
  const sim::TimePs tx = rate_.transmission_time(next->size_bytes());
  busy_time_ += tx;
  tx_events_.inc();
  if (ctx_.tracer().enabled()) {
    attribute_latency(ctx_.tracer(), *next, sim::LatencyComponent::kQueueing,
                      ctx_.now() - next->enqueue_time);
    attribute_latency(ctx_.tracer(), *next,
                      sim::LatencyComponent::kTransmission, tx);
  }
  ctx_.scheduler().schedule_in(tx, [this, p = std::move(next)]() mutable {
    on_transmission_complete(std::move(p));
  });
}

void Link::on_transmission_complete(sim::PoolPtr<Packet> p) {
  sim::ProfScope prof(ctx_.profiler(), sim::ProfComponent::kLinkTx);
  transmitting_ = false;
  bytes_delivered_ += p->size_bytes();
  ++packets_delivered_;
  if (ctx_.tracer().enabled()) {
    attribute_latency(ctx_.tracer(), *p, sim::LatencyComponent::kPropagation,
                      prop_delay_);
  }
  // Propagation: the receiver sees the packet prop_delay later.  The
  // transmitter is free immediately (pipelining).
  prop_events_.inc();
  if (remote_inbox_ != nullptr) {
    // Cross-shard egress: the destination's scheduler cannot take a
    // local event, so the packet rides the inbox stamped with its
    // arrival time.  Pushing at transmission-complete (not arrival)
    // time is what keeps the conservative window sound: prop_delay_ is
    // >= the shard lookahead, so the stamp always lands in a window the
    // destination has not started yet.
    --in_flight_;
    remote_inbox_->push(ctx_.now() + prop_delay_, std::move(*p));
    start_transmission();
    return;
  }
  ctx_.scheduler().schedule_in(prop_delay_, [this, p = std::move(p)] {
    --in_flight_;
    dst_->handle_packet(std::move(*p));
  });
  start_transmission();
}

}  // namespace hwatch::net
