#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "sim/scheduler.hpp"

namespace hwatch::net {
namespace {

/// Test node that records everything it receives.
class SinkNode final : public Node {
 public:
  using Node::Node;
  void handle_packet(Packet&& p) override {
    arrivals.push_back(std::move(p));
    times.push_back(when);
  }
  std::vector<Packet> arrivals;
  std::vector<sim::TimePs> times;
  sim::TimePs when = 0;  // unused; arrival time read from scheduler in test
};

Packet sized_packet(std::uint32_t payload, std::uint64_t uid = 0) {
  Packet p;
  p.uid = uid;
  p.payload_bytes = payload;
  return p;
}

TEST(LinkTest, DeliversAfterSerializationPlusPropagation) {
  sim::SimContext ctx;
  sim::Scheduler& sched = ctx.scheduler();
  SinkNode dst(0, "dst");
  Link link(ctx, "l", sim::DataRate::gbps(10), sim::microseconds(10),
            std::make_unique<DropTailQueue>(16), &dst);
  link.transmit(sized_packet(1442));  // 1500 B: 1.2 us at 10G
  sched.run();
  ASSERT_EQ(dst.arrivals.size(), 1u);
  EXPECT_EQ(sched.now(), sim::nanoseconds(1200) + sim::microseconds(10));
}

TEST(LinkTest, SerializesBackToBack) {
  sim::SimContext ctx;
  sim::Scheduler& sched = ctx.scheduler();
  SinkNode dst(0, "dst");
  Link link(ctx, "l", sim::DataRate::gbps(10), 0,
            std::make_unique<DropTailQueue>(16), &dst);
  for (int i = 0; i < 3; ++i) link.transmit(sized_packet(1442, i));
  sched.run();
  ASSERT_EQ(dst.arrivals.size(), 3u);
  // Three serializations, no propagation: 3 * 1.2 us total.
  EXPECT_EQ(sched.now(), sim::nanoseconds(3600));
  EXPECT_EQ(dst.arrivals[0].uid, 0u);
  EXPECT_EQ(dst.arrivals[2].uid, 2u);
}

TEST(LinkTest, PipelinesAcrossPropagation) {
  // With propagation larger than serialization, packets overlap in
  // flight: total time = N*tx + prop, not N*(tx+prop).
  sim::SimContext ctx;
  sim::Scheduler& sched = ctx.scheduler();
  SinkNode dst(0, "dst");
  Link link(ctx, "l", sim::DataRate::gbps(10), sim::microseconds(100),
            std::make_unique<DropTailQueue>(64), &dst);
  for (int i = 0; i < 10; ++i) link.transmit(sized_packet(1442, i));
  sched.run();
  EXPECT_EQ(sched.now(),
            10 * sim::nanoseconds(1200) + sim::microseconds(100));
}

TEST(LinkTest, BusyTimeAccumulatesExactly) {
  sim::SimContext ctx;
  sim::Scheduler& sched = ctx.scheduler();
  SinkNode dst(0, "dst");
  Link link(ctx, "l", sim::DataRate::gbps(10), 0,
            std::make_unique<DropTailQueue>(64), &dst);
  for (int i = 0; i < 5; ++i) link.transmit(sized_packet(1442));
  sched.run();
  EXPECT_EQ(link.busy_time(), 5 * sim::nanoseconds(1200));
  EXPECT_EQ(link.bytes_delivered(), 5u * 1500u);
  EXPECT_EQ(link.packets_delivered(), 5u);
}

TEST(LinkTest, QueueOverflowDropsAndCountsAreConsistent) {
  sim::SimContext ctx;
  sim::Scheduler& sched = ctx.scheduler();
  SinkNode dst(0, "dst");
  Link link(ctx, "l", sim::DataRate::gbps(1), 0,
            std::make_unique<DropTailQueue>(4), &dst);
  // Burst of 20 into a 4-deep queue; one is in the transmitter.
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    if (link.transmit(sized_packet(1442)) != EnqueueOutcome::kDropped) {
      ++accepted;
    }
  }
  sched.run();
  EXPECT_EQ(dst.arrivals.size(), static_cast<std::size_t>(accepted));
  EXPECT_EQ(link.qdisc().stats().dropped, 20u - accepted);
  // Queue admits 4, the head starts transmitting freeing a slot; a few
  // more than 4 may be accepted depending on timing, but never all 20.
  EXPECT_GE(accepted, 4);
  EXPECT_LT(accepted, 20);
}

TEST(LinkTest, InFlightPacketsEachHoldOnePoolBlock) {
  // Propagation (100 us) far beyond ten serializations (12 us): every
  // packet is queued, then on the wire, then propagating, and at each
  // step holds exactly one block of the context's packet pool.
  sim::SimContext ctx;
  sim::Scheduler& sched = ctx.scheduler();
  const sim::BlockPool& pool = ctx.packet_pool();
  SinkNode dst(0, "dst");
  Link link(ctx, "l", sim::DataRate::gbps(10), sim::microseconds(100),
            std::make_unique<DropTailQueue>(64), &dst);
  for (int i = 0; i < 10; ++i) link.transmit(sized_packet(1442, i));
  EXPECT_EQ(link.in_flight(), 1u);  // the head is on the wire
  EXPECT_EQ(pool.stats().outstanding, 10u);
  std::size_t peak_in_flight = 0;
  while (sched.step()) {
    peak_in_flight = std::max(peak_in_flight, link.in_flight());
    EXPECT_EQ(pool.stats().outstanding,
              link.qdisc().len_packets() + link.in_flight())
        << "at t=" << sched.now();
  }
  EXPECT_EQ(peak_in_flight, 10u);
  ASSERT_EQ(dst.arrivals.size(), 10u);
  EXPECT_EQ(dst.arrivals[9].uid, 9u);
  EXPECT_EQ(link.in_flight(), 0u);
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

TEST(LinkTest, DestroyingTheContextMidPropagationReturnsEveryBlock) {
  auto ctx = std::make_unique<sim::SimContext>();
  SinkNode dst(0, "dst");
  auto link = std::make_unique<Link>(
      *ctx, "l", sim::DataRate::gbps(10), sim::microseconds(100),
      std::make_unique<DropTailQueue>(64), &dst);
  for (int i = 0; i < 10; ++i) link->transmit(sized_packet(1442, i));
  ctx->scheduler().run_until(sim::microseconds(50));
  ASSERT_TRUE(dst.arrivals.empty());
  EXPECT_EQ(link->qdisc().len_packets(), 0u);
  EXPECT_EQ(link->in_flight(), 10u);
  EXPECT_EQ(ctx->packet_pool().stats().outstanding, 10u);
  // The link goes first: its packets ride the pending arrival events,
  // which still hold their blocks ...
  link.reset();
  EXPECT_EQ(ctx->scheduler().pending(), 10u);
  EXPECT_EQ(ctx->packet_pool().stats().outstanding, 10u);
  // ... until the context's scheduler destroys them, ahead of the pool
  // (whose destructor asserts every block came back in debug builds).
  ctx.reset();
  EXPECT_TRUE(dst.arrivals.empty());
}

TEST(SwitchTest, ForwardsByDestination) {
  sim::SimContext ctx;
  sim::Scheduler& sched = ctx.scheduler();
  SinkNode a(10, "a"), b(11, "b");
  Switch sw(0, "sw");
  Link to_a(ctx, "sw->a", sim::DataRate::gbps(10), 0,
            std::make_unique<DropTailQueue>(16), &a);
  Link to_b(ctx, "sw->b", sim::DataRate::gbps(10), 0,
            std::make_unique<DropTailQueue>(16), &b);
  sw.add_route(10, &to_a);
  sw.add_route(11, &to_b);

  Packet p1 = sized_packet(100, 1);
  p1.ip.dst = 10;
  Packet p2 = sized_packet(100, 2);
  p2.ip.dst = 11;
  sw.handle_packet(std::move(p1));
  sw.handle_packet(std::move(p2));
  sched.run();
  ASSERT_EQ(a.arrivals.size(), 1u);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(a.arrivals[0].uid, 1u);
  EXPECT_EQ(b.arrivals[0].uid, 2u);
  EXPECT_EQ(sw.forwarded(), 2u);
}

TEST(SwitchTest, DropsRoutelessPackets) {
  Switch sw(0, "sw");
  Packet p = sized_packet(100);
  p.ip.dst = 99;
  sw.handle_packet(std::move(p));
  EXPECT_EQ(sw.routeless_drops(), 1u);
}

TEST(SwitchTest, TtlExpiryDrops) {
  sim::SimContext ctx;
  sim::Scheduler& sched = ctx.scheduler();
  SinkNode a(10, "a");
  Switch sw(0, "sw");
  Link to_a(ctx, "sw->a", sim::DataRate::gbps(10), 0,
            std::make_unique<DropTailQueue>(16), &a);
  sw.add_route(10, &to_a);
  Packet p = sized_packet(100);
  p.ip.dst = 10;
  p.ip.ttl = 0;
  sw.handle_packet(std::move(p));
  sched.run();
  EXPECT_TRUE(a.arrivals.empty());
  EXPECT_EQ(sw.routeless_drops(), 1u);
}

TEST(SwitchTest, EcmpKeepsFlowOnOnePath) {
  sim::SimContext ctx;
  sim::Scheduler& sched = ctx.scheduler();
  SinkNode dst(10, "dst");
  Switch sw(0, "sw");
  Link path1(ctx, "p1", sim::DataRate::gbps(10), 0,
             std::make_unique<DropTailQueue>(64), &dst);
  Link path2(ctx, "p2", sim::DataRate::gbps(10), 0,
             std::make_unique<DropTailQueue>(64), &dst);
  sw.add_route(10, &path1);
  sw.add_route(10, &path2);

  auto send_flow = [&](std::uint16_t sport, int n) {
    for (int i = 0; i < n; ++i) {
      Packet p = sized_packet(100);
      p.ip.src = 1;
      p.ip.dst = 10;
      p.tcp.src_port = sport;
      p.tcp.dst_port = 80;
      sw.handle_packet(std::move(p));
    }
  };
  send_flow(1000, 10);
  sched.run();
  // All ten packets of one flow take the same path.
  EXPECT_TRUE(path1.packets_delivered() == 10 ||
              path2.packets_delivered() == 10);

  // Many flows spread across both paths.
  for (std::uint16_t sp = 2000; sp < 2064; ++sp) send_flow(sp, 1);
  sched.run();
  EXPECT_GT(path1.packets_delivered(), 10u);
  EXPECT_GT(path2.packets_delivered(), 0u);
}

// ---------------------------------------------------------------- Host

class RecordingFilter final : public PacketFilter {
 public:
  FilterVerdict on_outbound(Packet& p) override {
    ++outbound;
    return verdict_out(p);
  }
  FilterVerdict on_inbound(Packet& p) override {
    ++inbound;
    return verdict_in(p);
  }
  std::function<FilterVerdict(Packet&)> verdict_out =
      [](Packet&) { return FilterVerdict::kPass; };
  std::function<FilterVerdict(Packet&)> verdict_in =
      [](Packet&) { return FilterVerdict::kPass; };
  int outbound = 0;
  int inbound = 0;
};

struct HostFixture : ::testing::Test {
  HostFixture()
      : host(1, "h"),
        peer(2, "peer"),
        nic(ctx, "h->peer", sim::DataRate::gbps(10), 0,
            std::make_unique<DropTailQueue>(16), &peer) {
    host.set_nic(&nic);
  }
  sim::SimContext ctx;
  sim::Scheduler& sched = ctx.scheduler();
  Host host;
  SinkNode peer;
  Link nic;
};

TEST_F(HostFixture, DemuxesByDestinationPort) {
  std::vector<std::uint64_t> got_a, got_b;
  host.bind(80, [&](Packet&& p) { got_a.push_back(p.uid); });
  host.bind(81, [&](Packet&& p) { got_b.push_back(p.uid); });
  Packet p = sized_packet(10, 7);
  p.tcp.dst_port = 81;
  host.handle_packet(std::move(p));
  EXPECT_TRUE(got_a.empty());
  ASSERT_EQ(got_b.size(), 1u);
  EXPECT_EQ(got_b[0], 7u);
  EXPECT_EQ(host.delivered(), 1u);
}

TEST_F(HostFixture, UnboundPortCountsDrop) {
  Packet p = sized_packet(10);
  p.tcp.dst_port = 9999;
  host.handle_packet(std::move(p));
  EXPECT_EQ(host.no_agent_drops(), 1u);
}

TEST_F(HostFixture, DoubleBindThrows) {
  host.bind(80, [](Packet&&) {});
  EXPECT_THROW(host.bind(80, [](Packet&&) {}), std::invalid_argument);
  host.unbind(80);
  EXPECT_NO_THROW(host.bind(80, [](Packet&&) {}));
}

TEST_F(HostFixture, OutboundFilterSeesAgentTraffic) {
  RecordingFilter f;
  host.install_filter(&f);
  host.send(sized_packet(10));
  sched.run();
  EXPECT_EQ(f.outbound, 1);
  EXPECT_EQ(peer.arrivals.size(), 1u);
}

TEST_F(HostFixture, SendRawBypassesFilters) {
  RecordingFilter f;
  host.install_filter(&f);
  host.send_raw(sized_packet(10));
  sched.run();
  EXPECT_EQ(f.outbound, 0);
  EXPECT_EQ(peer.arrivals.size(), 1u);
}

TEST_F(HostFixture, FilterDropIsCounted) {
  RecordingFilter f;
  f.verdict_out = [](Packet&) { return FilterVerdict::kDrop; };
  host.install_filter(&f);
  host.send(sized_packet(10));
  sched.run();
  EXPECT_TRUE(peer.arrivals.empty());
  EXPECT_EQ(host.filter_drops(), 1u);
}

TEST_F(HostFixture, FilterConsumeAbsorbsWithoutDropCount) {
  RecordingFilter f;
  f.verdict_in = [](Packet&) { return FilterVerdict::kConsume; };
  host.install_filter(&f);
  host.bind(80, [](Packet&&) { FAIL() << "must not reach the agent"; });
  Packet p = sized_packet(10);
  p.tcp.dst_port = 80;
  host.handle_packet(std::move(p));
  EXPECT_EQ(host.filter_drops(), 0u);
  EXPECT_EQ(host.delivered(), 0u);
}

TEST_F(HostFixture, FilterChainRunsInOrderAndCanModify) {
  RecordingFilter first, second;
  first.verdict_in = [](Packet& p) {
    p.tcp.rwnd_raw = 42;
    return FilterVerdict::kPass;
  };
  host.install_filter(&first);
  host.install_filter(&second);
  std::uint16_t seen = 0;
  host.bind(80, [&](Packet&& p) { seen = p.tcp.rwnd_raw; });
  Packet p = sized_packet(10);
  p.tcp.dst_port = 80;
  host.handle_packet(std::move(p));
  EXPECT_EQ(first.inbound, 1);
  EXPECT_EQ(second.inbound, 1);
  EXPECT_EQ(seen, 42);
}

// ------------------------------------------------------------- Network

TEST(NetworkTest, RoutesAcrossDumbbellCore) {
  sim::SimContext ctx;
  sim::Scheduler& sched = ctx.scheduler();
  Network net(ctx);
  Host& a = net.add_host("a");
  Host& b = net.add_host("b");
  Switch& s1 = net.add_switch("s1");
  Switch& s2 = net.add_switch("s2");
  auto q = make_droptail_factory(16);
  net.connect(a, s1, sim::DataRate::gbps(10), 0, q);
  net.connect(b, s2, sim::DataRate::gbps(10), 0, q);
  net.connect(s1, s2, sim::DataRate::gbps(10), 0, q);
  net.compute_routes();

  bool arrived = false;
  b.bind(80, [&](Packet&&) { arrived = true; });
  Packet p;
  p.ip.src = a.id();
  p.ip.dst = b.id();
  p.tcp.dst_port = 80;
  a.send(std::move(p));
  sched.run();
  EXPECT_TRUE(arrived);
}

TEST(NetworkTest, HostsDoNotTransit) {
  // a - h - b in a line: h is a *host* in the middle; routes must not
  // exist through it, so a cannot reach b.
  sim::SimContext ctx;
  sim::Scheduler& sched = ctx.scheduler();
  Network net(ctx);
  Host& a = net.add_host("a");
  Host& middle = net.add_host("middle");
  Host& b = net.add_host("b");
  Switch& s1 = net.add_switch("s1");
  Switch& s2 = net.add_switch("s2");
  auto q = make_droptail_factory(16);
  net.connect(a, s1, sim::DataRate::gbps(1), 0, q);
  net.connect(s1, middle, sim::DataRate::gbps(1), 0, q);
  net.connect(middle, s2, sim::DataRate::gbps(1), 0, q);
  net.connect(s2, b, sim::DataRate::gbps(1), 0, q);
  net.compute_routes();

  bool arrived = false;
  b.bind(80, [&](Packet&&) { arrived = true; });
  Packet p;
  p.ip.src = a.id();
  p.ip.dst = b.id();
  p.tcp.dst_port = 80;
  a.send(std::move(p));
  sched.run();
  EXPECT_FALSE(arrived);
}

TEST(NetworkTest, LinkBetweenFindsDirectedLinks) {
  sim::SimContext ctx;
  Network net(ctx);
  Host& a = net.add_host("a");
  Switch& s = net.add_switch("s");
  auto duplex =
      net.connect(a, s, sim::DataRate::gbps(1), 0, make_droptail_factory(4));
  EXPECT_EQ(net.link_between(a.id(), s.id()), duplex.forward);
  EXPECT_EQ(net.link_between(s.id(), a.id()), duplex.backward);
  EXPECT_EQ(net.link_between(a.id(), 77), nullptr);
}

TEST(NetworkTest, PacketUidsAreUnique) {
  sim::SimContext ctx;
  Network net(ctx);
  const auto u1 = net.next_packet_uid();
  const auto u2 = net.next_packet_uid();
  EXPECT_NE(u1, u2);
}

TEST(NetworkTest, NodeLookupAndCounts) {
  sim::SimContext ctx;
  Network net(ctx);
  Host& a = net.add_host("a");
  Switch& s = net.add_switch("s");
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.host(a.id()), &a);
  EXPECT_EQ(net.host(s.id()), nullptr);  // a switch is not a host
  EXPECT_EQ(net.node(99), nullptr);
  EXPECT_EQ(net.hosts().size(), 1u);
  EXPECT_EQ(net.switches().size(), 1u);
}

}  // namespace
}  // namespace hwatch::net
