#include "sim/trace_span.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/json.hpp"

namespace hwatch::sim {
namespace {

// Json has find()/at() rather than operator[]; this asserts presence.
const Json& field(const Json& j, std::string_view key) {
  const Json* p = j.find(key);
  EXPECT_NE(p, nullptr) << "missing key " << key;
  static const Json null_json;
  return p != nullptr ? *p : null_json;
}

TEST(SpanTracer, DisabledHooksAreNoOps) {
  SpanTracer tr;
  ASSERT_FALSE(tr.enabled());
  EXPECT_EQ(tr.begin_span(10, SpanKind::kFlow, 0, 0), 0u);
  tr.end_span(20, 7);  // stray id: still a no-op
  EXPECT_EQ(tr.instant(30, SpanKind::kDecision, 0, 0), 0u);
  tr.add_latency(1, LatencyComponent::kQueueing, 500);
  tr.register_flow(1, 2, 3);
  EXPECT_EQ(tr.flow_span_of(1, 2), 0u);
  EXPECT_TRUE(tr.events().empty());
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(SpanTracer, EndSpanWithZeroIdIsNoOp) {
  SpanTracer tr;
  tr.set_enabled(true);
  tr.end_span(5, 0);
  EXPECT_TRUE(tr.events().empty());
}

TEST(SpanTracer, SpanIdsAreSequentialAndDeterministic) {
  for (int run = 0; run < 2; ++run) {
    SpanTracer tr;
    tr.set_enabled(true);
    const std::uint64_t flow = tr.begin_span(0, SpanKind::kFlow, 0, 0);
    const std::uint64_t hs =
        tr.begin_span(1, SpanKind::kHandshake, flow, flow);
    const std::uint64_t dec = tr.instant(2, SpanKind::kDecision, 0, flow);
    EXPECT_EQ(flow, 1u);
    EXPECT_EQ(hs, 2u);
    EXPECT_EQ(dec, 3u);
  }
}

TEST(SpanTracer, FlowSpanBecomesItsOwnFlow) {
  SpanTracer tr;
  tr.set_enabled(true);
  const std::uint64_t flow = tr.begin_span(0, SpanKind::kFlow, 0, 0);
  ASSERT_EQ(tr.events().size(), 1u);
  EXPECT_EQ(tr.events()[0].flow, flow);
}

TEST(SpanTracer, EndSpanInheritsBeginMetadata) {
  SpanTracer tr;
  tr.set_enabled(true);
  const std::uint64_t flow =
      tr.begin_span(0, SpanKind::kFlow, 0, 0, /*a=*/4096);
  const std::uint64_t rec =
      tr.begin_span(10, SpanKind::kRecovery, flow, flow, /*a=*/77);
  tr.end_span(25, rec, /*b=*/88);
  ASSERT_EQ(tr.events().size(), 3u);
  const TraceEvent& e = tr.events()[2];
  EXPECT_EQ(e.phase, 'E');
  EXPECT_EQ(e.kind, SpanKind::kRecovery);
  EXPECT_EQ(e.span, rec);
  EXPECT_EQ(e.parent, flow);
  EXPECT_EQ(e.flow, flow);
  EXPECT_EQ(e.b, 88u);
  EXPECT_EQ(e.t, 25);
}

TEST(SpanTracer, InstantMintsCitableId) {
  SpanTracer tr;
  tr.set_enabled(true);
  const std::uint64_t dec = tr.instant(1, SpanKind::kDecision, 0, 0, 10, 2);
  const std::uint64_t wr = tr.instant(2, SpanKind::kRwndWrite, dec, 0, 7210);
  EXPECT_NE(dec, 0u);
  EXPECT_EQ(tr.events()[1].parent, dec);
  EXPECT_EQ(tr.events()[1].span, wr);
}

TEST(SpanTracer, CloseOpenSpansIsLifo) {
  SpanTracer tr;
  tr.set_enabled(true);
  const std::uint64_t flow = tr.begin_span(0, SpanKind::kFlow, 0, 0);
  const std::uint64_t hs = tr.begin_span(1, SpanKind::kHandshake, flow, flow);
  const std::uint64_t ss = tr.begin_span(2, SpanKind::kSlowStart, flow, flow);
  tr.close_open_spans(100);
  // Three E records appended, innermost (highest id) first.
  ASSERT_EQ(tr.events().size(), 6u);
  EXPECT_EQ(tr.events()[3].span, ss);
  EXPECT_EQ(tr.events()[4].span, hs);
  EXPECT_EQ(tr.events()[5].span, flow);
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_EQ(tr.events()[i].phase, 'E');
    EXPECT_EQ(tr.events()[i].t, 100);
  }
  // Idempotent: nothing left open.
  tr.close_open_spans(200);
  EXPECT_EQ(tr.events().size(), 6u);
}

TEST(SpanTracer, FlowRegistryLooksUpByPackedKey) {
  SpanTracer tr;
  tr.set_enabled(true);
  const std::uint64_t f1 = tr.begin_span(0, SpanKind::kFlow, 0, 0);
  const std::uint64_t f2 = tr.begin_span(0, SpanKind::kFlow, 0, 0);
  tr.register_flow(0x100000002ull, 0x30004ull, f1);
  tr.register_flow(0x100000002ull, 0x30005ull, f2);  // same hosts, new port
  EXPECT_EQ(tr.flow_span_of(0x100000002ull, 0x30004ull), f1);
  EXPECT_EQ(tr.flow_span_of(0x100000002ull, 0x30005ull), f2);
  EXPECT_EQ(tr.flow_span_of(0x100000002ull, 0x30006ull), 0u);
  ASSERT_EQ(tr.flows().size(), 2u);
  EXPECT_EQ(tr.flows()[0].span, f1);
  EXPECT_EQ(tr.flows()[0].key_lo, 0x30004ull);
}

TEST(SpanTracer, LatencyAccumulatesPerFlowAndContextWide) {
  SpanTracer tr;
  tr.set_enabled(true);
  const std::uint64_t f = tr.begin_span(0, SpanKind::kFlow, 0, 0);
  tr.add_latency(f, LatencyComponent::kQueueing, 1'000'000);  // 1 us
  tr.add_latency(f, LatencyComponent::kQueueing, 3'000'000);
  tr.add_latency(0, LatencyComponent::kTransmission, 2'000'000);
  const SpanTracer::LatencyAccum* acc = tr.latency_of(f);
  ASSERT_NE(acc, nullptr);
  EXPECT_EQ(acc->total_ps[0], 4'000'000);
  EXPECT_EQ(acc->samples[0], 2u);
  EXPECT_EQ(acc->samples[1], 0u);  // the unattributed sample is not kept
  EXPECT_EQ(tr.latency_of(999), nullptr);
}

TEST(SpanTracer, MaxEventsCapCountsDrops) {
  SpanTracer tr;
  tr.set_enabled(true);
  tr.set_max_events(2);
  const std::uint64_t f = tr.begin_span(0, SpanKind::kFlow, 0, 0);
  tr.instant(1, SpanKind::kDecision, 0, f);
  tr.instant(2, SpanKind::kDecision, 0, f);  // dropped
  tr.end_span(3, f);                         // dropped
  EXPECT_EQ(tr.events().size(), 2u);
  EXPECT_EQ(tr.dropped(), 2u);
  std::ostringstream os;
  tr.dump_jsonl(os);
  EXPECT_NE(os.str().find("\"dropped_events\":2"), std::string::npos);
}

TEST(SpanTracer, DumpJsonlLinesParseWithStableKeys) {
  SpanTracer tr;
  tr.set_enabled(true);
  const std::uint64_t f = tr.begin_span(0, SpanKind::kFlow, 0, 0, 4096);
  tr.register_flow((std::uint64_t{3} << 32) | 4, (std::uint64_t{5} << 16) | 6,
                   f);
  tr.add_latency(f, LatencyComponent::kPropagation, 10'000'000);
  const std::uint64_t dec =
      tr.instant(7, SpanKind::kDecision, 0, f, 10, 0, 5, 5);
  tr.instant(8, SpanKind::kRwndWrite, dec, f, 7210, 65535, 7210, 1);
  tr.close_open_spans(100);

  std::ostringstream os;
  tr.dump_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::vector<Json> parsed;
  while (std::getline(is, line)) {
    std::string err;
    Json j = Json::parse(line, &err);
    ASSERT_TRUE(err.empty()) << err << " in: " << line;
    parsed.push_back(std::move(j));
  }
  // F line, B, i(decision), i(rwnd_write), E, L line.  (The "D"
  // dropped-events trailer only appears when events were dropped.)
  ASSERT_EQ(parsed.size(), 6u);
  EXPECT_EQ(field(parsed[0], "ph").as_string(), "F");
  EXPECT_EQ(field(parsed[0], "src").as_int(), 3);
  EXPECT_EQ(field(parsed[0], "dport").as_int(), 6);
  EXPECT_EQ(field(parsed[1], "kind").as_string(), "flow");
  EXPECT_EQ(field(parsed[1], "total_bytes").as_int(), 4096);
  EXPECT_EQ(field(parsed[2], "x_um").as_int(), 10);
  EXPECT_EQ(field(parsed[2], "deferred_pkts").as_int(), 5);
  EXPECT_EQ(field(parsed[3], "kind").as_string(), "rwnd_write");
  EXPECT_EQ(field(parsed[3], "parent").as_int(), static_cast<std::int64_t>(dec));
  EXPECT_EQ(field(parsed[5], "ph").as_string(), "L");
  EXPECT_EQ(field(parsed[5], "propagation_ps").as_int(), 10'000'000);
}

TEST(SpanTracer, ExportChromeIsValidAndBalanced) {
  SpanTracer tr;
  tr.set_enabled(true);
  const std::uint64_t f = tr.begin_span(0, SpanKind::kFlow, 0, 0);
  const std::uint64_t hs = tr.begin_span(1, SpanKind::kHandshake, f, f);
  tr.end_span(2'000'000, hs);
  tr.instant(3'000'000, SpanKind::kDecision, 0, f);
  tr.close_open_spans(4'000'000);

  std::ostringstream os;
  export_chrome_merged({&tr}, os, {"unit"});
  std::string err;
  Json doc = Json::parse(os.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(field(doc, "schema").as_string(), "hwatch.trace_export/v1");
  EXPECT_EQ(field(doc, "dropped_events").as_int(), 0);
  const Json& evs = field(doc, "traceEvents");
  int depth = 0;
  double last_ts = -1;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const Json& e = evs.at(i);
    const std::string ph = field(e, "ph").as_string();
    if (ph == "M") continue;
    const double ts = field(e, "ts").as_double();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    if (ph == "B") ++depth;
    if (ph == "E") --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(SpanTracer, ExportIsByteIdenticalAcrossIdenticalRuns) {
  auto make = [] {
    SpanTracer tr;
    tr.set_enabled(true);
    const std::uint64_t f = tr.begin_span(0, SpanKind::kFlow, 0, 0, 1000);
    tr.register_flow(1, 2, f);
    tr.add_latency(f, LatencyComponent::kQueueing, 42);
    tr.instant(5, SpanKind::kDecision, 0, f, 1, 2, 3, 4);
    tr.close_open_spans(9);
    std::ostringstream spans, chrome;
    tr.dump_jsonl(spans);
    export_chrome_merged({&tr}, chrome, {"x"});
    return std::make_pair(spans.str(), chrome.str());
  };
  const auto a = make();
  const auto b = make();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// A tracer exercising every line type of the dump: flow registrations,
// B/E/i events with payloads, a packet record, latency summaries and
// (via the cap) the dropped trailer.
void fill_every_line_type(SpanTracer& tr) {
  tr.set_enabled(true);
  tr.set_max_events(7);
  const std::uint64_t f = tr.begin_span(0, SpanKind::kFlow, 0, 0, 4096);
  tr.register_flow(0x100000002ull, 0x30004ull, f);
  const std::uint64_t hs = tr.begin_span(1, SpanKind::kHandshake, f, f);
  tr.end_span(2, hs, 1);
  const std::uint64_t dec =
      tr.instant(3, SpanKind::kDecision, 0, f, 10, 2, 7, 5);
  tr.instant(4, SpanKind::kRwndWrite, dec, f, 7210, 65535, 7210, 1);
  PacketRecord p;
  p.uid = 42;
  p.seq = 1ull << 40;
  p.ack = 7;
  p.src = 1;
  p.dst = 2;
  p.sport = 3;
  p.dport = 4;
  p.payload = 1442;
  p.wire = 1500;
  p.train = 9;
  p.rwnd = 65535;
  p.flags = PacketRecord::kAck | PacketRecord::kEce;
  p.ecn = 3;
  p.outbound = true;
  tr.packet(5, f, p);
  tr.add_latency(f, LatencyComponent::kQueueing, 42);
  tr.add_latency(f, LatencyComponent::kRetxWait, 7);
  tr.close_open_spans(9);
  tr.instant(10, SpanKind::kDecision, 0, f);  // past the cap: dropped
}

TEST(SpanTracer, DumpLoadDumpIsIdentity) {
  SpanTracer tr;
  fill_every_line_type(tr);
  ASSERT_GT(tr.dropped(), 0u);
  std::ostringstream dump;
  tr.dump_jsonl(dump);

  SpanTracer loaded;
  std::istringstream in(dump.str());
  std::string err;
  ASSERT_TRUE(loaded.load_jsonl(in, &err)) << err;
  std::ostringstream again;
  loaded.dump_jsonl(again);
  EXPECT_EQ(again.str(), dump.str());

  std::ostringstream chrome, chrome_again;
  export_chrome_merged({&tr}, chrome, {"x"});
  export_chrome_merged({&loaded}, chrome_again, {"x"});
  EXPECT_EQ(chrome_again.str(), chrome.str());
  // The packet record survives field for field.
  EXPECT_NE(dump.str().find("\"kind\":\"packet\""), std::string::npos);
  EXPECT_NE(dump.str().find("\"flags\":\"AE\""), std::string::npos);
  EXPECT_NE(dump.str().find("\"ecn\":\"ce\""), std::string::npos);
}

TEST(SpanTracer, LoadMergesPartsInTimeOrder) {
  SpanTracer a, b;
  a.set_enabled(true);
  b.set_enabled(true);
  b.set_id_base(1ull << 40);
  for (TimePs t : {0, 20, 40}) a.instant(t, SpanKind::kDecision, 0, 0);
  for (TimePs t : {10, 20, 30}) b.instant(t, SpanKind::kDecision, 0, 0);
  std::ostringstream merged;
  dump_jsonl_merged({&a, &b}, merged);
  SpanTracer loaded;
  std::istringstream in(merged.str());
  ASSERT_TRUE(loaded.load_jsonl(in, nullptr));
  std::vector<TimePs> times;
  for (const TraceEvent& ev : loaded.events()) times.push_back(ev.t);
  EXPECT_EQ(times, (std::vector<TimePs>{0, 10, 20, 20, 30, 40}));
  // Equal times keep input order: part a's event first.
  EXPECT_EQ(loaded.events()[2].span, 2u);
}

TEST(SpanTracer, LoadRejectsLinesThatAreNotTraceRecords) {
  for (const char* bad : {"{\"ph\":\"i\",\"kind\":\"bogus\"}\n",
                          "{\"ph\":\"B\",\"kind\":\"packet\"}\n",
                          "{\"t_ps\":1,\"dir\":\"out\"}\n", "not json\n"}) {
    SpanTracer tr;
    std::istringstream in(std::string("{\"ph\":\"D\",\"dropped_events\":0}\n") +
                          bad);
    std::string err;
    EXPECT_FALSE(tr.load_jsonl(in, &err)) << bad;
    EXPECT_EQ(err.rfind("line 2: ", 0), 0u) << err;
  }
}

TEST(SpanTracer, ArgNamesCoverEveryKind) {
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    const auto kind = static_cast<SpanKind>(k);
    EXPECT_FALSE(to_string(kind).empty());
    // arg_names must return a valid (possibly all-null) table.
    (void)SpanTracer::arg_names(kind);
  }
  EXPECT_EQ(to_string(SpanKind::kRwndWrite), "rwnd_write");
  EXPECT_EQ(to_string(LatencyComponent::kRetxWait), "retx_wait");
  const auto& dec = SpanTracer::arg_names(SpanKind::kDecision);
  ASSERT_NE(dec.a, nullptr);
  EXPECT_STREQ(dec.a, "x_um");
  EXPECT_STREQ(dec.b, "x_m");
}

}  // namespace
}  // namespace hwatch::sim
