// End-to-end tests of the trace_inspect CLI binary: exit codes (0 ok,
// 1 usage/unreadable file, 2 malformed input), the per-flow summary
// counters, repeatable --kind filters, and the merged Chrome export.
// Packet input is what the simulator emits: a span dump with
// net::PacketTracer records in it.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

#include "hwatch/shim.hpp"
#include "net/trace.hpp"
#include "sim/json.hpp"
#include "tcp/connection.hpp"
#include "tcp/tcp_test_util.hpp"

namespace {

using hwatch::sim::Json;
using hwatch::sim::PacketRecord;

std::string run_cli(const std::string& args, int* exit_code) {
  const std::string cmd =
      std::string(TRACE_INSPECT_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string out;
  std::array<char, 4096> buf;
  while (pipe != nullptr) {
    const std::size_t n = fread(buf.data(), 1, buf.size(), pipe);
    if (n == 0) break;
    out.append(buf.data(), n);
  }
  const int status = pipe != nullptr ? pclose(pipe) : -1;
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

/// A temp path private to the running test: ctest runs every test in
/// its own process, in parallel, so shared fixture paths would race.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + name;
}

std::string write_fixture(const std::string& name,
                          const std::string& content) {
  const std::string path = temp_path(name);
  std::ofstream os(path);
  os << content;
  return path;
}

/// A trace the simulator emits: one DCTCP transfer a -> b through a
/// step-marking bottleneck, HWatch shims on both hosts and a
/// PacketTracer on b installed ahead of b's shim (so it sees the probes
/// before the shim absorbs them), written by SpanTracer::dump_jsonl.
struct EmittedTrace {
  std::string path;  // <temp>/<test>_emitted.spans.jsonl
  std::vector<PacketRecord> packets;
  std::size_t lines = 0;
};

EmittedTrace emitted_trace() {
  using namespace hwatch;
  tcp::testutil::TwoHostNet h(net::make_dctcp_factory(250, 5));
  h.ctx.tracer().set_enabled(true);
  net::PacketTracer tracer(h.ctx);
  h.b->install_filter(&tracer);
  core::HWatchConfig cfg;
  cfg.probe_count = 10;
  cfg.probe_span = sim::microseconds(20);
  sim::Rng rng(7);
  const auto shim_a = core::install_hwatch(h.net, *h.a, cfg, rng.fork());
  const auto shim_b = core::install_hwatch(h.net, *h.b, cfg, rng.fork());
  tcp::TcpConfig tc;
  tc.initial_cwnd_segments = 10;
  tc.min_rto = sim::milliseconds(10);
  tc.initial_rto = sim::milliseconds(10);
  tc.ecn = tcp::EcnMode::kDctcp;
  tcp::TcpConnection conn(h.net, *h.a, *h.b, 1000, 80,
                          tcp::Transport::kDctcp, tc);
  conn.start(60 * 1442);
  h.sched.run_until(sim::milliseconds(50));
  h.ctx.tracer().close_open_spans(h.ctx.now());

  EmittedTrace out;
  out.path = temp_path("emitted.spans.jsonl");
  std::ostringstream dump;
  h.ctx.tracer().dump_jsonl(dump);
  std::ofstream(out.path) << dump.str();
  for (const char c : dump.str()) out.lines += c == '\n' ? 1 : 0;
  for (const sim::TraceEvent& ev : h.ctx.tracer().events()) {
    if (ev.kind == sim::SpanKind::kPacket) {
      out.packets.push_back(h.ctx.tracer().packet_of(ev));
    }
  }
  return out;
}

int count_lines(const std::string& text) {
  int lines = 0;
  for (char ch : text) lines += ch == '\n' ? 1 : 0;
  return lines;
}

/// A miniature span dump in SpanTracer::dump_jsonl's shape: flow
/// registration, a flow span with a decision -> rwnd_write provenance
/// chain, the latency summary and the dropped trailer.
std::string span_fixture() {
  return write_fixture(
      "ti_spans.jsonl",
      R"({"ph":"F","id":1,"src":1,"dst":2,"sport":40000,"dport":80}
{"t_ps":0,"ph":"B","kind":"flow","id":1,"parent":0,"flow":1,"total_bytes":4096}
{"t_ps":500000,"ph":"i","kind":"decision","id":2,"parent":0,"flow":1,"x_um":3,"x_m":1,"immediate_pkts":2,"deferred_pkts":2}
{"t_ps":600000,"ph":"i","kind":"rwnd_write","id":3,"parent":2,"flow":1,"rwnd_bytes":7210,"raw_old":65535,"raw_new":7210,"synack":1}
{"t_ps":3000000,"ph":"E","kind":"flow","id":1,"parent":0,"flow":1,"bytes_acked":4096,"retransmits":0}
{"ph":"L","flow":1,"queueing_ps":200000,"queueing_samples":1}
{"ph":"D","dropped_events":0}
)");
}

TEST(TraceInspectCli, SummaryCountsPerFlowCategories) {
  const EmittedTrace trace = emitted_trace();
  // What the summary must report for the data direction 0:1000 -> 1:80
  // (a and b are nodes 0 and 1), tallied from the records themselves.
  std::uint64_t pkts = 0, data = 0, syn = 0, probes = 0, ce = 0, all_ce = 0;
  for (const PacketRecord& p : trace.packets) {
    all_ce += p.ecn == PacketRecord::kEcnCe ? 1 : 0;
    if (p.src != 0 || p.sport != 1000) continue;
    ++pkts;
    ce += p.ecn == PacketRecord::kEcnCe ? 1 : 0;
    probes += p.probe ? 1 : 0;
    data += !p.probe && p.payload > 0 ? 1 : 0;
    syn += !p.probe && (p.flags & PacketRecord::kSyn) != 0 ? 1 : 0;
  }
  ASSERT_GT(probes, 0u);
  ASSERT_GT(ce, 0u);
  ASSERT_GT(data, 0u);

  int code = -1;
  const std::string out = run_cli("summary " + trace.path, &code);
  EXPECT_EQ(code, 0);
  const std::string n = std::to_string(trace.lines);
  EXPECT_NE(out.find("lines: " + n + "  matched: " + n), std::string::npos)
      << out;
  EXPECT_NE(out.find("packet=" + std::to_string(trace.packets.size())),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("ce-marked: " + std::to_string(all_ce) + " of " +
                     std::to_string(trace.packets.size()) + " packets"),
            std::string::npos)
      << out;
  const std::size_t row = out.find("0:1000 -> 1:80  pkts=" +
                                   std::to_string(pkts) + " ");
  ASSERT_NE(row, std::string::npos) << out;
  const std::string line = out.substr(row, out.find('\n', row) - row);
  EXPECT_NE(line.find(" ce=" + std::to_string(ce) + " "), std::string::npos)
      << line;
  EXPECT_NE(line.find(" data=" + std::to_string(data) + " "),
            std::string::npos)
      << line;
  EXPECT_NE(line.find(" syn=" + std::to_string(syn) + " "), std::string::npos)
      << line;
  EXPECT_NE(line.find(" probes=" + std::to_string(probes)), std::string::npos)
      << line;
}

TEST(TraceInspectCli, FilterAcceptsRepeatedKindFlags) {
  int code = -1;
  const std::string out = run_cli(
      "filter --kind decision --kind rwnd_write " + span_fixture(), &code);
  EXPECT_EQ(code, 0);
  // Exactly the two provenance lines survive, verbatim.
  EXPECT_NE(out.find("\"kind\":\"decision\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"kind\":\"rwnd_write\""), std::string::npos) << out;
  EXPECT_EQ(out.find("\"kind\":\"flow\""), std::string::npos) << out;
  EXPECT_EQ(count_lines(out), 2) << out;
}

TEST(TraceInspectCli, SingleKindFilterStillWorks) {
  const EmittedTrace trace = emitted_trace();
  int probes = 0;
  for (const PacketRecord& p : trace.packets) probes += p.probe ? 1 : 0;
  ASSERT_GT(probes, 0);
  int code = -1;
  // A packet line matches its type as well as its kind.
  EXPECT_EQ(count_lines(run_cli("filter --kind probe " + trace.path, &code)),
            probes);
  EXPECT_EQ(code, 0);
  EXPECT_EQ(count_lines(run_cli("filter --kind packet " + trace.path, &code)),
            static_cast<int>(trace.packets.size()));
  EXPECT_EQ(code, 0);
}

TEST(TraceInspectCli, BadFlagExitsOneWithUsage) {
  int code = -1;
  const std::string out = run_cli("--no-such-flag", &code);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
}

TEST(TraceInspectCli, BadNumberExitsOneWithUsage) {
  for (const char* args : {"--src abc", "--since x", "--dport 80x"}) {
    int code = -1;
    const std::string out = run_cli(std::string(args) + " /dev/null", &code);
    EXPECT_EQ(code, 1) << args;
    EXPECT_NE(out.find("usage:"), std::string::npos) << args << ": " << out;
  }
}

TEST(TraceInspectCli, UnreadableFileExitsOne) {
  int code = -1;
  run_cli("summary /nonexistent/trace.jsonl", &code);
  EXPECT_EQ(code, 1);
}

TEST(TraceInspectCli, MalformedLineExitsTwo) {
  const std::string path =
      write_fixture("ti_bad.jsonl", "{\"t_ps\":1,\"kind\":\"data\"\nnot json\n");
  int code = -1;
  run_cli("summary " + path, &code);
  EXPECT_EQ(code, 2);
}

TEST(TraceInspectCli, ExportMergesSpansAndPackets) {
  const EmittedTrace trace = emitted_trace();
  int code = -1;
  const std::string out =
      run_cli("export " + trace.path + " " + span_fixture(), &code);
  ASSERT_EQ(code, 0);
  std::string err;
  const Json doc = Json::parse(out, &err);
  ASSERT_TRUE(err.empty()) << err << "\n" << out;
  const Json* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "hwatch.trace_export/v1");
  const Json* evs = doc.find("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_GT(evs->size(), 0u);
  // Well-formed for Perfetto: non-metadata timestamps sorted, B/E
  // balanced; one process per input file, named after its stem; every
  // packet on a flow track of the emitted run.
  double last_ts = -1;
  int depth = 0;
  std::size_t packets_on_flow_track = 0;
  std::vector<std::string> processes;
  for (const Json& e : evs->items()) {
    const Json* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->as_string() == "M") {
      if (e.find("name")->as_string() == "process_name") {
        processes.push_back(e.find("args")->find("name")->as_string());
      }
      continue;
    }
    const double ts = e.find("ts")->as_double();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    if (ph->as_string() == "B") ++depth;
    if (ph->as_string() == "E") --depth;
    EXPECT_GE(depth, 0);
    if (e.find("name")->as_string() == "packet") {
      EXPECT_EQ(e.find("pid")->as_int(), 1);
      packets_on_flow_track += e.find("tid")->as_int() != 0 ? 1 : 0;
    }
  }
  EXPECT_EQ(depth, 0);
  const std::string fixture_stem = "ExportMergesSpansAndPackets_ti_spans";
  EXPECT_EQ(processes, (std::vector<std::string>{
                           "ExportMergesSpansAndPackets_emitted",
                           fixture_stem}));
  // Probes carry their flow's 4-tuple, so they land on its track too.
  EXPECT_EQ(packets_on_flow_track, trace.packets.size());
  // Provenance args survive the export.
  EXPECT_NE(out.find("\"x_um\":3"), std::string::npos);
  EXPECT_NE(out.find("\"rwnd_bytes\":7210"), std::string::npos);
}

TEST(TraceInspectCli, ExportWritesOutputFile) {
  const std::string dest = temp_path("ti_export_out.json");
  std::remove(dest.c_str());
  int code = -1;
  run_cli("export -o " + dest + " " + span_fixture(), &code);
  ASSERT_EQ(code, 0);
  std::ifstream is(dest);
  ASSERT_TRUE(is.good());
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  std::string err;
  Json::parse(content, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_NE(content.find("hwatch.trace_export/v1"), std::string::npos);
}

/// A manifest carrying one incident that names the span_fixture flow
/// (span 1, 1:40000 -> 2:80) and overlaps its lifetime.
std::string manifest_fixture() {
  return write_fixture(
      "ti_manifest.json",
      R"({"schema":"hwatch.run_manifest/v2","name":"doctor",
"incidents":{"schema":"hwatch.incidents/v1","count":1,"incidents":[
{"id":0,"kind":"queue-buildup","severity":2,"start_ps":400000,
"end_ps":2500000,"location":"core","magnitude":90,"drops":3,
"flows":[{"src":1,"dst":2,"sport":40000,"dport":80,"span":1}],
"spans":[1]}]}})");
}

TEST(TraceInspectCli, ExplainBySpanIdBreaksDownTheFlow) {
  int code = -1;
  const std::string out = run_cli("explain 1 " + span_fixture(), &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("flow 1:40000->2:80 (span 1)"), std::string::npos)
      << out;
  EXPECT_NE(out.find("4096/4096 bytes acked"), std::string::npos) << out;
  // The only latency component in the fixture is queueing, so the
  // decomposition and the verdict both pin it at 100%.
  EXPECT_NE(out.find("queueing"), std::string::npos) << out;
  EXPECT_NE(out.find("slow because: 100% queueing"), std::string::npos)
      << out;
  EXPECT_NE(out.find("shim cut rwnd 1x"), std::string::npos) << out;
}

TEST(TraceInspectCli, ExplainAcceptsTupleSelector) {
  int code = -1;
  const std::string out =
      run_cli("explain '1:40000->2:80' " + span_fixture(), &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("(span 1)"), std::string::npos) << out;
}

TEST(TraceInspectCli, ExplainJoinsManifestIncidents) {
  int code = -1;
  const std::string out =
      run_cli("explain 1 --manifest " + manifest_fixture() + " " +
                  span_fixture(),
              &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("incidents touching this flow: 1"), std::string::npos)
      << out;
  // Membership (not mere time overlap) is reported, and the causal
  // clause cites the incident by id and location.
  EXPECT_NE(out.find("#0 queue-buildup at core sev2"), std::string::npos)
      << out;
  EXPECT_NE(out.find("(this flow)"), std::string::npos) << out;
  EXPECT_NE(out.find("at core during queue-buildup #0"), std::string::npos)
      << out;
}

TEST(TraceInspectCli, ExplainUnknownFlowExitsOne) {
  int code = -1;
  const std::string out = run_cli("explain 99 " + span_fixture(), &code);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("not found"), std::string::npos) << out;
}

TEST(TraceInspectCli, ExplainBadManifestSchemaExitsTwo) {
  const std::string bad = write_fixture(
      "ti_bad_manifest.json",
      R"({"incidents":{"schema":"hwatch.incidents/v0","incidents":[]}})");
  int code = -1;
  run_cli("explain 1 --manifest " + bad + " " + span_fixture(), &code);
  EXPECT_EQ(code, 2);
}

TEST(TraceInspectCli, ExportCarriesIncidentTrack) {
  int code = -1;
  const std::string out =
      run_cli("export --manifest " + manifest_fixture() + " " +
                  span_fixture(),
              &code);
  ASSERT_EQ(code, 0);
  std::string err;
  const Json doc = Json::parse(out, &err);
  ASSERT_TRUE(err.empty()) << err << "\n" << out;
  // Incidents land on their own process, after the one input part, as
  // balanced B/E slices without breaking the monotonic timestamp order
  // of the merged stream.
  double last_ts = -1;
  std::int64_t incident_pid = -1;
  int incident_b = 0, incident_e = 0;
  for (const Json& e : doc.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() == "M") {
      if (e.find("args")->find("name")->as_string() == "incidents") {
        incident_pid = e.find("pid")->as_int();
      }
      continue;
    }
    const double ts = e.find("ts")->as_double();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    if (e.find("pid")->as_int() != incident_pid) continue;
    incident_b += e.find("ph")->as_string() == "B" ? 1 : 0;
    incident_e += e.find("ph")->as_string() == "E" ? 1 : 0;
  }
  EXPECT_EQ(incident_pid, 2);
  EXPECT_EQ(incident_b, 1);
  EXPECT_EQ(incident_e, 1);
  EXPECT_NE(out.find("\"incidents\""), std::string::npos);
  EXPECT_NE(out.find("queue-buildup"), std::string::npos);
}

TEST(TraceInspectCli, ExportIsDeterministic) {
  int code_a = -1, code_b = -1;
  const std::string fixture = span_fixture() + " " + emitted_trace().path;
  const std::string a = run_cli("export " + fixture, &code_a);
  const std::string b = run_cli("export " + fixture, &code_b);
  EXPECT_EQ(code_a, 0);
  EXPECT_EQ(code_b, 0);
  EXPECT_EQ(a, b);
}

}  // namespace
