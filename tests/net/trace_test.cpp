#include "net/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/json.hpp"
#include "tcp/tcp_test_util.hpp"
#include "tcp/connection.hpp"

namespace hwatch::net {
namespace {

using sim::PacketRecord;
using tcp::testutil::TwoHostNet;

tcp::TcpConfig quick_cfg() {
  tcp::TcpConfig c;
  c.min_rto = sim::milliseconds(10);
  c.initial_rto = sim::milliseconds(10);
  c.ecn = tcp::EcnMode::kNone;
  return c;
}

struct Traced {
  sim::TimePs t;
  std::uint64_t flow;
  PacketRecord p;
};

/// The packet records in the context's span store, in recording order.
std::vector<Traced> packets_of(const sim::SpanTracer& tr) {
  std::vector<Traced> out;
  for (const sim::TraceEvent& ev : tr.events()) {
    if (ev.kind != sim::SpanKind::kPacket) continue;
    out.push_back({ev.t, ev.flow, tr.packet_of(ev)});
  }
  return out;
}

/// Runs one connection a -> b of `segments` full segments with `tracer`
/// on host a and span tracing on.
void run_transfer(TwoHostNet& h, PacketTracer& tracer, int segments) {
  h.ctx.tracer().set_enabled(true);
  h.a->install_filter(&tracer);
  tcp::TcpConnection conn(h.net, *h.a, *h.b, 1000, 80,
                          tcp::Transport::kNewReno, quick_cfg());
  conn.start(static_cast<std::uint64_t>(segments) * 1442);
  h.sched.run_until(sim::milliseconds(100));
}

bool has(const PacketRecord& p, std::uint8_t flag) {
  return (p.flags & flag) != 0;
}

TEST(TracerTest, RecordsBothDirectionsOfAConnection) {
  TwoHostNet h;
  PacketTracer tracer(h.ctx);
  run_transfer(h, tracer, 3);

  std::uint64_t syn = 0, data = 0, fin = 0, acks = 0;
  for (const Traced& e : packets_of(h.ctx.tracer())) {
    if (has(e.p, PacketRecord::kSyn)) {
      ++syn;
    } else if (has(e.p, PacketRecord::kFin)) {
      ++fin;
    } else if (e.p.payload > 0) {
      ++data;
    } else if (has(e.p, PacketRecord::kAck)) {
      ++acks;
    }
  }
  EXPECT_EQ(syn, 2u);   // SYN out + SYN-ACK in
  EXPECT_EQ(data, 3u);  // three segments out
  EXPECT_EQ(fin, 1u);
  EXPECT_GE(acks, 4u);  // handshake ack + per-segment acks
  EXPECT_EQ(h.ctx.tracer().dropped(), 0u);

  // The first record is the outbound SYN, timestamped at t=0.
  const std::vector<Traced> traced = packets_of(h.ctx.tracer());
  ASSERT_FALSE(traced.empty());
  EXPECT_TRUE(traced[0].p.outbound);
  EXPECT_TRUE(has(traced[0].p, PacketRecord::kSyn));
  EXPECT_FALSE(has(traced[0].p, PacketRecord::kAck));
  EXPECT_EQ(traced[0].t, 0);
}

TEST(TracerTest, PacketsLandOnTheirFlowTrack) {
  TwoHostNet h;
  PacketTracer tracer(h.ctx);
  run_transfer(h, tracer, 2);
  const auto& flows = h.ctx.tracer().flows();
  ASSERT_EQ(flows.size(), 1u);
  // Data out and ACKs in both belong to the sender's flow span.
  bool saw_in = false, saw_out = false;
  for (const Traced& e : packets_of(h.ctx.tracer())) {
    EXPECT_EQ(e.flow, flows[0].span);
    (e.p.outbound ? saw_out : saw_in) = true;
  }
  EXPECT_TRUE(saw_in);
  EXPECT_TRUE(saw_out);
}

TEST(TracerTest, PredicateFilters) {
  TwoHostNet h;
  PacketTracer tracer(h.ctx,
                      [](const Packet& p) { return p.is_data(); });
  run_transfer(h, tracer, 5);
  const std::vector<Traced> traced = packets_of(h.ctx.tracer());
  EXPECT_EQ(traced.size(), 5u);
  for (const Traced& e : traced) EXPECT_GT(e.p.payload, 0u);
}

TEST(TracerTest, DisabledTracingRecordsNothing) {
  TwoHostNet h;
  int predicate_calls = 0;
  PacketTracer tracer(h.ctx, [&](const Packet&) {
    ++predicate_calls;
    return true;
  });
  h.a->install_filter(&tracer);
  tcp::TcpConnection conn(h.net, *h.a, *h.b, 1000, 80,
                          tcp::Transport::kNewReno, quick_cfg());
  conn.start(1442);
  h.sched.run_until(sim::milliseconds(100));
  EXPECT_TRUE(h.ctx.tracer().events().empty());
  EXPECT_EQ(predicate_calls, 0);  // the gate comes before the predicate
}

// Packets share the span store's cap: records past max_events are
// counted as dropped, never stored.
TEST(TracerTest, MaxEntriesTruncatesButKeepsCounting) {
  TwoHostNet h;
  h.ctx.tracer().set_max_events(3);
  PacketTracer tracer(h.ctx);
  run_transfer(h, tracer, 10);
  EXPECT_EQ(h.ctx.tracer().events().size(), 3u);
  EXPECT_GT(h.ctx.tracer().dropped(), 10u);
  std::ostringstream os;
  h.ctx.tracer().dump_jsonl(os);
  EXPECT_NE(os.str().find("\"ph\":\"D\""), std::string::npos);
}

TEST(TracerTest, DumpFormatsOneLinePerPacket) {
  TwoHostNet h;
  PacketTracer tracer(h.ctx);
  run_transfer(h, tracer, 1);
  std::ostringstream os;
  h.ctx.tracer().dump_jsonl(os);
  std::istringstream in(os.str());
  std::string line;
  std::size_t packet_lines = 0;
  while (std::getline(in, line)) {
    if (line.find("\"kind\":\"packet\"") != std::string::npos) {
      EXPECT_NE(line.find("\"ph\":\"i\""), std::string::npos) << line;
      ++packet_lines;
    }
  }
  EXPECT_EQ(packet_lines, packets_of(h.ctx.tracer()).size());
  EXPECT_GT(packet_lines, 0u);
}

TEST(TracerTest, JsonlLinesParseAndCarryPacketFields) {
  TwoHostNet h;
  PacketTracer tracer(h.ctx);
  run_transfer(h, tracer, 1);
  std::ostringstream os;
  h.ctx.tracer().dump_jsonl(os);

  std::istringstream in(os.str());
  std::string line;
  std::size_t parsed = 0;
  bool saw_syn = false;
  while (std::getline(in, line)) {
    std::string err;
    const sim::Json j = sim::Json::parse(line, &err);
    ASSERT_TRUE(err.empty()) << err << " in: " << line;
    ASSERT_TRUE(j.is_object());
    const sim::Json* kind = j.find("kind");
    if (kind == nullptr || kind->as_string() != "packet") continue;
    for (const char* key :
         {"t_ps", "ph", "id", "parent", "flow", "dir", "uid", "type", "src",
          "dst", "sport", "dport", "seq", "ack", "flags", "payload", "wire",
          "ecn", "rwnd", "train"}) {
      EXPECT_NE(j.find(key), nullptr) << "missing " << key;
    }
    if (j.find("flags")->as_string().find('S') != std::string::npos) {
      saw_syn = true;
      EXPECT_EQ(j.find("type")->as_string(), "tcp");
    }
    ++parsed;
  }
  EXPECT_EQ(parsed, packets_of(h.ctx.tracer()).size());
  EXPECT_TRUE(saw_syn);
}

}  // namespace
}  // namespace hwatch::net
