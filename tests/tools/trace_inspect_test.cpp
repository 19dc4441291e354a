// End-to-end tests of the trace_inspect CLI binary: exit codes (0 ok,
// 1 usage/unreadable file, 2 malformed input), the per-flow summary
// counters, repeatable --kind filters, and the merged Chrome export.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <sys/wait.h>

#include "sim/json.hpp"

namespace {

using hwatch::sim::Json;

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

/// A miniature packet trace: one CE-marked data packet, its ACK, a SYN
/// and an HWatch probe, across two flows.
std::string packet_fixture() {
  return write_fixture(
      "ti_packets.jsonl",
      R"({"t_ps":1000000,"dir":"out","kind":"data","src":1,"dst":2,"sport":40000,"dport":80,"flags":"A","payload":1448,"wire":1500,"ecn":"ce"}
{"t_ps":2000000,"dir":"in","kind":"ack","src":2,"dst":1,"sport":80,"dport":40000,"flags":"A","payload":0,"wire":52}
{"t_ps":3000000,"dir":"out","kind":"syn","src":1,"dst":2,"sport":40001,"dport":80,"flags":"S","payload":0,"wire":60}
{"t_ps":4000000,"dir":"out","kind":"probe","src":1,"dst":2,"sport":40001,"dport":80,"flags":"","payload":0,"wire":38}
)");
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
  int code = -1;
  const std::string out = run_cli("summary " + packet_fixture(), &code);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("lines: 4  matched: 4"), std::string::npos) << out;
  // Flow 1:40000 -> 2:80 carried the data packet; its reverse the ACK;
  // 1:40001 -> 2:80 the SYN and the probe.
  EXPECT_NE(out.find("data=1"), std::string::npos) << out;
  EXPECT_NE(out.find("acks=1"), std::string::npos) << out;
  EXPECT_NE(out.find("syn=1"), std::string::npos) << out;
  EXPECT_NE(out.find("probes=1"), std::string::npos) << out;
  EXPECT_NE(out.find("ce=1"), std::string::npos) << out;
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
  int lines = 0;
  for (char ch : out) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2) << out;
}

TEST(TraceInspectCli, SingleKindFilterStillWorks) {
  int code = -1;
  const std::string out =
      run_cli("filter --kind probe " + packet_fixture(), &code);
  EXPECT_EQ(code, 0);
  int lines = 0;
  for (char ch : out) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1) << out;
}

TEST(TraceInspectCli, BadFlagExitsOneWithUsage) {
  int code = -1;
  const std::string out = run_cli("--no-such-flag", &code);
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
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
  int code = -1;
  const std::string out =
      run_cli("export " + span_fixture() + " " + packet_fixture(), &code);
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
  // balanced, and both the span track and the packet track present.
  double last_ts = -1;
  int depth = 0;
  bool saw_span_pid = false, saw_packet_pid = false;
  for (const Json& e : evs->items()) {
    const Json* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->as_string() == "M") continue;
    const Json* pid = e.find("pid");
    ASSERT_NE(pid, nullptr);
    saw_span_pid |= pid->as_int() == 1;
    saw_packet_pid |= pid->as_int() == 2;
    const double ts = e.find("ts")->as_double();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    if (ph->as_string() == "B") ++depth;
    if (ph->as_string() == "E") --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_TRUE(saw_span_pid);
  EXPECT_TRUE(saw_packet_pid);
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
  // Incidents land on pid 3 as balanced B/E slices without breaking
  // the monotonic timestamp order of the merged stream.
  double last_ts = -1;
  int pid3_b = 0, pid3_e = 0;
  for (const Json& e : doc.find("traceEvents")->items()) {
    if (e.find("ph")->as_string() == "M") continue;
    const double ts = e.find("ts")->as_double();
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
    if (e.find("pid")->as_int() != 3) continue;
    pid3_b += e.find("ph")->as_string() == "B" ? 1 : 0;
    pid3_e += e.find("ph")->as_string() == "E" ? 1 : 0;
  }
  EXPECT_EQ(pid3_b, 1);
  EXPECT_EQ(pid3_e, 1);
  EXPECT_NE(out.find("\"incidents\""), std::string::npos);
  EXPECT_NE(out.find("queue-buildup"), std::string::npos);
}

TEST(TraceInspectCli, ExportIsDeterministic) {
  int code_a = -1, code_b = -1;
  const std::string fixture = span_fixture() + " " + packet_fixture();
  const std::string a = run_cli("export " + fixture, &code_a);
  const std::string b = run_cli("export " + fixture, &code_b);
  EXPECT_EQ(code_a, 0);
  EXPECT_EQ(code_b, 0);
  EXPECT_EQ(a, b);
}

}  // namespace
