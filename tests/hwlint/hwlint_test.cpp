// Unit tests for the hwlint static-analysis pass: lexer behaviour,
// every rule (seeded violations flagged, near-misses pass), suppression
// semantics, allowlist/glob parsing, and the CLI end to end (exit codes
// and --json output parsed back through sim::Json).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "hwlint/hwlint.hpp"
#include "sim/json.hpp"

namespace {

using hwlint::Violation;

std::vector<Violation> check(const std::string& rel_path,
                             std::string_view source,
                             std::size_t* suppressed = nullptr) {
  return hwlint::check_source(rel_path, source, suppressed);
}

std::vector<std::string> rules_of(const std::vector<Violation>& vs) {
  std::vector<std::string> out;
  for (const auto& v : vs) out.push_back(v.rule);
  return out;
}

// ------------------------------------------------------------------ lexer

TEST(HwlintLexer, StripsCommentsStringsAndPreprocessor) {
  const auto lr = hwlint::lex(
      "// std::random_device in a comment\n"
      "/* rand() in a block\n   comment */\n"
      "#include <random>  // preprocessor line\n"
      "const char* s = \"time(nullptr) malloc\";\n"
      "char c = 'x';\n");
  for (const auto& t : lr.tokens) {
    EXPECT_NE(t.text, "random_device");
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "random");
    EXPECT_NE(t.text, "malloc");
  }
  EXPECT_TRUE(lr.suppressions.empty());
  EXPECT_TRUE(lr.malformed_suppressions.empty());
}

TEST(HwlintLexer, RawStringsAreOpaque) {
  const auto lr = hwlint::lex(
      "const char* r = R\"(std::deque<int> new delete)\";\n"
      "int after = 1;\n");
  bool saw_after = false;
  for (const auto& t : lr.tokens) {
    EXPECT_NE(t.text, "deque");
    if (t.text == "after") saw_after = true;
  }
  EXPECT_TRUE(saw_after);  // lexer resumed after the raw string
}

TEST(HwlintLexer, TracksLineNumbers) {
  const auto lr = hwlint::lex("int a;\n\nint b;\n");
  ASSERT_GE(lr.tokens.size(), 4u);
  EXPECT_EQ(lr.tokens[0].line, 1);  // int
  EXPECT_EQ(lr.tokens[3].line, 3);  // b's `int`
}

TEST(HwlintLexer, ParsesSuppressions) {
  const auto lr = hwlint::lex(
      "int a;  // hwlint: allow(nondeterminism)\n"
      "// hwlint: allow(hot-path-alloc, hot-path-container)\n"
      "int b;\n"
      "int c;  // hwlint: allow(*)\n");
  ASSERT_EQ(lr.suppressions.size(), 3u);
  EXPECT_EQ(lr.suppressions[0].line, 1);
  EXPECT_FALSE(lr.suppressions[0].whole_line);
  ASSERT_EQ(lr.suppressions[0].rules.size(), 1u);
  EXPECT_EQ(lr.suppressions[0].rules[0], "nondeterminism");
  EXPECT_TRUE(lr.suppressions[1].whole_line);
  EXPECT_EQ(lr.suppressions[1].rules.size(), 2u);
  EXPECT_TRUE(lr.suppressions[2].rules.empty());  // allow(*) == allow-all
}

TEST(HwlintLexer, FlagsMalformedMarkersButIgnoresProse) {
  const auto lr = hwlint::lex(
      "// hwlint: allow nondeterminism   <- missing parens\n"
      "// hwlint: is the tool's name; prose mention, no allow keyword\n");
  ASSERT_EQ(lr.malformed_suppressions.size(), 1u);
  EXPECT_EQ(lr.malformed_suppressions[0], 1);
}

// ------------------------------------------------------- nondeterminism

TEST(HwlintRules, FlagsEntropyAndWallClockSources) {
  const auto vs = check("src/api/bad.cpp",
                        "#include <random>\n"
                        "unsigned seed() {\n"
                        "  std::random_device rd;\n"
                        "  return rd() + static_cast<unsigned>(time(nullptr));\n"
                        "}\n"
                        "auto t0() { return std::chrono::steady_clock::now(); }\n");
  ASSERT_EQ(vs.size(), 3u);
  for (const auto& v : vs) EXPECT_EQ(v.rule, hwlint::kRuleNondeterminism);
  EXPECT_EQ(vs[0].line, 3);
  EXPECT_EQ(vs[1].line, 4);
  EXPECT_EQ(vs[2].line, 6);
}

TEST(HwlintRules, NondeterminismAppliesOutsideHotPathDirsToo) {
  const auto vs = check("tests/foo_test.cpp", "int x = rand();\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, hwlint::kRuleNondeterminism);
}

TEST(HwlintRules, ProjectNamesContainingBannedWordsPass) {
  const auto vs = check("src/net/ok.cpp",
                        "std::uint64_t transmission_time(int bytes);\n"
                        "std::uint64_t f() { return transmission_time(1); }\n"
                        "struct Clock { std::uint64_t time() const; };\n"
                        "std::uint64_t g(const Clock& c) { return c.time(); }\n");
  EXPECT_TRUE(vs.empty()) << vs[0].message;
}

TEST(HwlintRules, QualifiedProjectTimeIsNotStdTime) {
  // myns::time() is the project's own; std::time()/::time() are not.
  EXPECT_TRUE(
      check("src/net/a.cpp", "int f() { return myns::time(); }\n").empty());
  EXPECT_EQ(
      check("src/net/b.cpp", "auto f() { return std::time(nullptr); }\n")
          .size(),
      1u);
  EXPECT_EQ(
      check("src/net/c.cpp", "auto f() { return ::time(nullptr); }\n").size(),
      1u);
}

// -------------------------------------------------- hot-path containers

TEST(HwlintRules, FlagsBannedContainersOnlyInHotPathDirs) {
  const std::string src =
      "#include <deque>\n"
      "std::deque<int> q;\n"
      "std::function<void()> cb;\n"
      "std::list<int> l;\n"
      "std::map<long, int> m;\n"
      "std::multimap<long, int> mm;\n";
  EXPECT_EQ(check("src/net/hot.cpp", src).size(), 5u);
  EXPECT_EQ(check("src/sim/hot.cpp", src).size(), 5u);
  EXPECT_EQ(check("src/tcp/hot.cpp", src).size(), 5u);
  EXPECT_EQ(check("src/hwatch/hot.cpp", src).size(), 5u);
  // stats, api, tools and tests are not hot-path dirs.
  EXPECT_TRUE(check("src/stats/cold.cpp", src).empty());
  EXPECT_TRUE(check("tools/cold.cpp", src).empty());
}

// A std::map-based calendar queue — the tempting "simple" event core —
// must be flagged in the scheduler's directory: a red-black tree pays
// one node allocation per scheduled event.
TEST(HwlintRules, FlagsMapCalendarQueueInScheduler) {
  const auto vs = check("src/sim/scheduler.cpp",
                        "std::multimap<long, int> calendar;\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, hwlint::kRuleHotPathContainer);
  EXPECT_NE(vs[0].message.find("calendar"), std::string::npos);
}

// ------------------------------------------------------- hot-path alloc

TEST(HwlintRules, FlagsRawAllocationInHotPathDirs) {
  const auto vs = check("src/tcp/alloc.cpp",
                        "int* a() { return new int(3); }\n"
                        "void b(int* p) { delete p; }\n"
                        "void* c() { return malloc(16); }\n");
  EXPECT_EQ(rules_of(vs),
            (std::vector<std::string>{"hot-path-alloc", "hot-path-alloc",
                                      "hot-path-alloc"}));
}

TEST(HwlintRules, PlacementNewAndOperatorNewPass) {
  const auto vs = check(
      "src/sim/pool_like.cpp",
      "int* a(void* buf) { return ::new (buf) int(7); }\n"
      "struct P { static void* operator new(std::size_t); };\n"
      "struct S { S(const S&) = delete; };\n");
  EXPECT_TRUE(vs.empty()) << vs[0].message;
}

TEST(HwlintRules, RawAllocationOutsideHotPathPasses) {
  EXPECT_TRUE(
      check("src/api/setup.cpp", "int* f() { return new int(1); }\n").empty());
}

// ------------------------------------------------------- unordered-iter

TEST(HwlintRules, FlagsIterationOverUnorderedContainers) {
  const auto vs = check(
      "src/stats/dump.cpp",
      "#include <unordered_map>\n"
      "std::unordered_map<int, double> fct_by_flow;\n"
      "double sum() {\n"
      "  double s = 0;\n"
      "  for (const auto& [k, v] : fct_by_flow) s += v;\n"
      "  for (auto it = fct_by_flow.begin(); it != fct_by_flow.end(); ++it)\n"
      "    s += it->second;\n"
      "  return s;\n"
      "}\n");
  // Line 5 draws both passes: the iteration itself (unordered-iter) and
  // the float accumulation over it (fp-determinism).
  ASSERT_EQ(vs.size(), 3u);
  EXPECT_EQ(vs[0].rule, hwlint::kRuleFpDeterminism);
  EXPECT_EQ(vs[0].line, 5);
  EXPECT_EQ(vs[1].rule, hwlint::kRuleUnorderedIter);
  EXPECT_EQ(vs[1].line, 5);
  EXPECT_EQ(vs[2].rule, hwlint::kRuleUnorderedIter);
  EXPECT_EQ(vs[2].line, 6);
}

TEST(HwlintRules, PointLookupsAndOrderedIterationPass) {
  const auto vs = check(
      "src/stats/ok.cpp",
      "std::unordered_map<int, double> index;\n"
      "std::map<int, double> ordered;\n"
      "double f(int k) {\n"
      "  auto it = index.find(k);\n"
      "  return it == index.end() ? 0.0 : it->second;\n"
      "}\n"
      "double g() {\n"
      "  double s = 0;\n"
      "  for (const auto& [k, v] : ordered) s += v;\n"
      "  return s;\n"
      "}\n");
  EXPECT_TRUE(vs.empty()) << vs[0].message;
}

TEST(HwlintRules, UnorderedNamesCrossFiles) {
  // A member declared in a header is caught when iterated in the .cpp:
  // the driver folds every file into the TreeIndex before checking.
  const auto header = hwlint::lex(
      "struct Table { std::unordered_map<int, int> live_ports; };\n");
  hwlint::TreeIndex index;
  hwlint::index_file("src/hwatch/table.hpp", header, index);
  EXPECT_TRUE(index.unordered_names.count("live_ports"));
  const std::string cpp =
      "void walk(Table& t) { for (auto& kv : t.live_ports) (void)kv; }\n";
  const auto lexed = hwlint::lex(cpp);
  const auto vs = hwlint::check_file("src/stats/walk.cpp", lexed, index);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, hwlint::kRuleUnorderedIter);
  EXPECT_EQ(vs[0].pass, hwlint::kPassToken);
}

// ---------------------------------------------------- cross-shard-state

TEST(HwlintRules, FlagsThreadingPrimitivesInSrc) {
  const auto vs = check(
      "src/api/runner.cpp",
      "#include <atomic>\n"
      "std::atomic<int> done{0};\n"
      "void f() { std::mutex mu; std::thread t([] {}); t.join(); }\n"
      "std::barrier<> sync(2);\n"
      "std::condition_variable cv;\n");
  ASSERT_EQ(vs.size(), 5u);
  for (const auto& v : vs) {
    EXPECT_EQ(v.rule, hwlint::kRuleCrossShardState) << v.message;
  }
}

TEST(HwlintRules, CrossShardStateAppliesOnlyToSrc) {
  const std::string src = "std::mutex mu;\nstd::thread t;\n";
  EXPECT_EQ(check("src/sim/x.cpp", src).size(), 2u);
  // Tests, benches and tools may thread freely.
  EXPECT_TRUE(check("tests/api/x.cpp", src).empty());
  EXPECT_TRUE(check("bench/x.cpp", src).empty());
  EXPECT_TRUE(check("tools/x.cpp", src).empty());
}

TEST(HwlintRules, ProjectNamesResemblingPrimitivesPass) {
  const auto vs = check(
      "src/net/loom.cpp",
      "struct mutex {};\n"  // project type, unqualified
      "struct Loom {\n"
      "  mutex weave_lock;\n"
      "  int thread = 0;\n"  // a weaving thread
      "};\n"
      "int barrier(int x) { return x; }\n"
      "int f(const net::atomic& a) { return a.v; }\n");  // net::, not std::
  EXPECT_TRUE(vs.empty()) << vs[0].message;
}

TEST(HwlintRules, CrossShardStateSuppressible) {
  std::size_t suppressed = 0;
  const auto vs = check("src/net/ring.cpp",
                        "// hwlint: allow(cross-shard-state)\n"
                        "std::atomic<std::size_t> head{0};\n",
                        &suppressed);
  EXPECT_TRUE(vs.empty());
  EXPECT_EQ(suppressed, 1u);
}

// ------------------------------------------------------- mutable-global

TEST(HwlintRules, FlagsMutableNamespaceScopeState) {
  const auto vs = check("src/api/globals.cpp",
                        "static int g_counter = 0;\n"
                        "namespace { long g_total = 0; }\n"
                        "thread_local int g_tls = 0;\n");
  EXPECT_EQ(rules_of(vs),
            (std::vector<std::string>{"mutable-global", "mutable-global",
                                      "mutable-global"}));
}

TEST(HwlintRules, ConstantsLocalsAndSimInternalsPass) {
  const std::string consts =
      "constexpr int kMax = 4;\n"
      "const char* const kName = \"x\";\n"
      "static constexpr double kAlpha = 0.125;\n"
      "int f() { static int local = 0; return ++local; }\n";
  EXPECT_TRUE(check("src/api/consts.cpp", consts).empty());
  // src/sim internals are exempt from mutable-global by path, but the
  // shard-confinement pass demands an explicit HWATCH_SHARD_SHARED
  // marker there instead.
  {
    const auto vs =
        check("src/sim/log.cpp", "static int g_sink_depth = 0;\n");
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, hwlint::kRuleShardConfinement);
  }
  EXPECT_TRUE(
      check("src/sim/log.cpp",
            "HWATCH_SHARD_SHARED int g_sink_depth = 0;\n")
          .empty());
}

// -------------------------------------------------- suppression handling

TEST(HwlintSuppression, SameLineAndWholeLineAboveSilence) {
  std::size_t suppressed = 0;
  const auto vs = check("src/net/s.cpp",
                        "std::deque<int> a;  // hwlint: allow(hot-path-container)\n"
                        "// hwlint: allow(hot-path-container)\n"
                        "std::deque<int> b;\n",
                        &suppressed);
  EXPECT_TRUE(vs.empty());
  EXPECT_EQ(suppressed, 2u);
}

TEST(HwlintSuppression, WrongRuleDoesNotSilence) {
  const auto vs = check(
      "src/net/s.cpp",
      "std::deque<int> a;  // hwlint: allow(nondeterminism)\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, hwlint::kRuleHotPathContainer);
}

TEST(HwlintSuppression, AllowStarSilencesEverything) {
  std::size_t suppressed = 0;
  const auto vs = check("src/net/s.cpp",
                        "std::deque<int> a;  // hwlint: allow(*)\n",
                        &suppressed);
  EXPECT_TRUE(vs.empty());
  EXPECT_EQ(suppressed, 1u);
}

TEST(HwlintSuppression, MalformedMarkerIsAViolation) {
  const auto vs = check("src/net/s.cpp",
                        "// hwlint: allow hot-path-container\n"
                        "std::deque<int> a;\n");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].rule, hwlint::kRuleBadSuppression);
  EXPECT_EQ(vs[1].rule, hwlint::kRuleHotPathContainer);
}

// --------------------------------------------------- include-graph pass

using LexedFiles = std::map<std::string, hwlint::LexResult>;

std::vector<Violation> run_graph(const LexedFiles& files,
                                 std::size_t* suppressed = nullptr) {
  std::map<std::string, const hwlint::LexResult*> view;
  for (const auto& [rel, lexed] : files) view.emplace(rel, &lexed);
  return hwlint::check_include_graph(view, suppressed);
}

LexedFiles lex_files(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  LexedFiles out;
  for (const auto& [rel, src] : sources) out.emplace(rel, hwlint::lex(src));
  return out;
}

TEST(HwlintIncludeGraph, LayerRanks) {
  EXPECT_EQ(hwlint::layer_rank("src/sim/context.hpp"), 0);
  EXPECT_EQ(hwlint::layer_rank("src/net/link.hpp"), 1);
  EXPECT_EQ(hwlint::layer_rank("src/tcp/sender.hpp"), 2);
  EXPECT_EQ(hwlint::layer_rank("src/hwatch/shim.hpp"), 2);
  EXPECT_EQ(hwlint::layer_rank("src/topo/fat_tree.hpp"), 3);
  EXPECT_EQ(hwlint::layer_rank("src/stats/cdf.hpp"), 3);
  EXPECT_EQ(hwlint::layer_rank("src/workload/tenant.hpp"), 3);
  EXPECT_EQ(hwlint::layer_rank("src/api/scenario.hpp"), 4);
  // Unknown dirs and out-of-src files take no part in layering.
  EXPECT_EQ(hwlint::layer_rank("src/unknown/x.hpp"), -1);
  EXPECT_EQ(hwlint::layer_rank("tools/hwlint/hwlint.hpp"), -1);
  EXPECT_EQ(hwlint::layer_rank("src/toplevel.hpp"), -1);
}

TEST(HwlintIncludeGraph, ResolvesRelativeThenRootThenVerbatim) {
  const std::set<std::string> known = {
      "src/sim/detail/helper.hpp", "src/sim/user.hpp", "src/net/link.hpp",
      "tools/hwlint/hwlint.hpp"};
  // Relative to the including file's directory wins.
  EXPECT_EQ(hwlint::resolve_include("src/sim/user.hpp", "detail/helper.hpp",
                                    known),
            "src/sim/detail/helper.hpp");
  // Then the src/ include root.
  EXPECT_EQ(hwlint::resolve_include("src/sim/user.hpp", "net/link.hpp", known),
            "src/net/link.hpp");
  // Then verbatim from the repo root.
  EXPECT_EQ(hwlint::resolve_include("src/sim/user.hpp",
                                    "tools/hwlint/hwlint.hpp", known),
            "tools/hwlint/hwlint.hpp");
  // `..` segments collapse.
  EXPECT_EQ(hwlint::resolve_include("src/sim/detail/helper.hpp",
                                    "../user.hpp", known),
            "src/sim/user.hpp");
  // Unresolvable spellings are tolerated ("" = not part of the graph).
  EXPECT_EQ(hwlint::resolve_include("src/sim/user.hpp", "no/such/file.hpp",
                                    known),
            "");
}

TEST(HwlintIncludeGraph, UpwardIncludeFlagged) {
  const auto vs = run_graph(lex_files({
      {"src/sim/core.hpp", "#include \"api/surface.hpp\"\n"},
      {"src/api/surface.hpp", "struct S {};\n"},
  }));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, hwlint::kRuleLayering);
  EXPECT_EQ(vs[0].pass, hwlint::kPassIncludeGraph);
  EXPECT_EQ(vs[0].file, "src/sim/core.hpp");
  EXPECT_EQ(vs[0].line, 1);
  EXPECT_EQ(vs[0].evidence, "src/sim/core.hpp -> src/api/surface.hpp");
}

TEST(HwlintIncludeGraph, SameLayerAndDownwardIncludesPass) {
  const auto vs = run_graph(lex_files({
      // Downward: api -> net -> sim.
      {"src/api/top.hpp", "#include \"net/mid.hpp\"\n"},
      {"src/net/mid.hpp", "#include \"sim/base.hpp\"\n"},
      {"src/sim/base.hpp", "struct B {};\n"},
      // Same rank: hwatch -> tcp is legitimate.
      {"src/hwatch/shim2.hpp", "#include \"tcp/sender2.hpp\"\n"},
      {"src/tcp/sender2.hpp", "struct T {};\n"},
  }));
  EXPECT_TRUE(vs.empty()) << vs[0].message;
}

TEST(HwlintIncludeGraph, SelfIncludeIsACycle) {
  const auto vs = run_graph(lex_files({
      {"src/net/self.hpp", "#include \"net/self.hpp\"\nstruct S {};\n"},
  }));
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, hwlint::kRuleLayering);
  EXPECT_NE(vs[0].message.find("cycle"), std::string::npos);
  EXPECT_EQ(vs[0].evidence, "src/net/self.hpp -> src/net/self.hpp");
}

TEST(HwlintIncludeGraph, DiamondIsNotACycle) {
  const auto vs = run_graph(lex_files({
      {"src/api/top.hpp",
       "#include \"net/left.hpp\"\n#include \"net/right.hpp\"\n"},
      {"src/net/left.hpp", "#include \"sim/base.hpp\"\n"},
      {"src/net/right.hpp", "#include \"sim/base.hpp\"\n"},
      {"src/sim/base.hpp", "struct B {};\n"},
  }));
  EXPECT_TRUE(vs.empty()) << vs[0].message;
}

TEST(HwlintIncludeGraph, ThreeHeaderCycleReportedOnceWithFullPath) {
  const auto vs = run_graph(lex_files({
      {"src/net/a.hpp", "#include \"net/b.hpp\"\n"},
      {"src/net/b.hpp", "#include \"net/c.hpp\"\n"},
      {"src/net/c.hpp", "#include \"net/a.hpp\"\n"},
  }));
  ASSERT_EQ(vs.size(), 1u);  // one cycle, one report
  EXPECT_EQ(vs[0].file, "src/net/a.hpp");  // smallest member owns it
  EXPECT_EQ(vs[0].evidence,
            "src/net/a.hpp -> src/net/b.hpp -> src/net/c.hpp -> "
            "src/net/a.hpp");
}

TEST(HwlintIncludeGraph, MissingIncludesAndAngledIncludesTolerated) {
  const auto vs = run_graph(lex_files({
      {"src/net/user.hpp",
       "#include <vector>\n"
       "#include \"generated/tables.hpp\"\n"
       "struct U {};\n"},
  }));
  EXPECT_TRUE(vs.empty());
}

TEST(HwlintIncludeGraph, UpwardIncludeSuppressibleInline) {
  std::size_t suppressed = 0;
  const auto vs = run_graph(
      lex_files({
          {"src/sim/core.hpp",
           "// hwlint: allow(layering)\n#include \"api/surface.hpp\"\n"},
          {"src/api/surface.hpp", "struct S {};\n"},
      }),
      &suppressed);
  EXPECT_TRUE(vs.empty());
  EXPECT_EQ(suppressed, 1u);
}

// ------------------------------------------------- shard-confinement pass

TEST(HwlintConfinement, IndexCollectsAnnotations) {
  hwlint::TreeIndex index;
  hwlint::index_file(
      "src/sim/core.hpp",
      hwlint::lex("class HWATCH_SHARD_CONFINED EventCore { };\n"
                  "struct HWATCH_SHARD_SHARED Registry { };\n"
                  "HWATCH_DETERMINISTIC_PLANE std::uint64_t drain_all();\n"),
      index);
  ASSERT_TRUE(index.confined_types.count("EventCore"));
  EXPECT_EQ(index.confined_types.at("EventCore"), "src/sim/core.hpp:1");
  ASSERT_TRUE(index.shared_types.count("Registry"));
  ASSERT_TRUE(index.deterministic_fns.count("drain_all"));
  EXPECT_EQ(index.deterministic_fns.at("drain_all"), "src/sim/core.hpp:3");
}

TEST(HwlintConfinement, ConfinedTypeInThreadingContextFlagged) {
  hwlint::TreeIndex index;
  hwlint::index_file(
      "src/sim/core.hpp",
      hwlint::lex("class HWATCH_SHARD_CONFINED EventCore { };\n"), index);
  const std::string threading =
      "#include <thread>\n"
      "void f(EventCore& c) { std::thread t([&c] {}); t.join(); }\n";
  const auto lexed = hwlint::lex(threading);
  const auto vs = hwlint::check_file("src/api/pool.cpp", lexed, index);
  bool confined = false;
  for (const auto& v : vs) {
    if (v.rule == hwlint::kRuleShardConfinement) {
      confined = true;
      EXPECT_EQ(v.evidence, "HWATCH_SHARD_CONFINED at src/sim/core.hpp:1");
    }
  }
  EXPECT_TRUE(confined);
  // The same reference without any threading primitive is fine.
  const auto calm = hwlint::lex("void f(EventCore& c) { (void)c; }\n");
  for (const auto& v : hwlint::check_file("src/api/calm.cpp", calm, index)) {
    EXPECT_NE(v.rule, hwlint::kRuleShardConfinement) << v.message;
  }
}

TEST(HwlintConfinement, DeclaringFileExemptFromConfinementCheck) {
  hwlint::TreeIndex index;
  const std::string decl =
      "#include <atomic>\n"  // the declaring file may thread internally
      "class HWATCH_SHARD_CONFINED EventCore { std::atomic<int> n_; };\n";
  const auto lexed = hwlint::lex(decl);
  hwlint::index_file("src/sim/core.hpp", lexed, index);
  for (const auto& v : hwlint::check_file("src/sim/core.hpp", lexed, index)) {
    EXPECT_NE(v.rule, hwlint::kRuleShardConfinement) << v.message;
  }
}

TEST(HwlintConfinement, DeterministicPlaneBodyScanned) {
  const auto vs = check("src/sim/plane.cpp",
                        "HWATCH_DETERMINISTIC_PLANE long window_end();\n"
                        "long window_end() {\n"
                        "  return static_cast<long>(time(nullptr));\n"
                        "}\n");
  bool plane = false;
  for (const auto& v : vs) {
    if (v.rule == hwlint::kRuleShardConfinement) {
      plane = true;
      EXPECT_EQ(v.pass, hwlint::kPassShardConfinement);
      EXPECT_NE(v.message.find("window_end"), std::string::npos);
    }
  }
  EXPECT_TRUE(plane);
  // Reseeding an engine inside the plane is flagged too.
  const auto reseed = check("src/sim/plane2.cpp",
                            "HWATCH_DETERMINISTIC_PLANE void rewind(Rng& r);\n"
                            "void rewind(Rng& r) { r.seed(42); }\n");
  bool saw = false;
  for (const auto& v : reseed) {
    if (v.rule == hwlint::kRuleShardConfinement) saw = true;
  }
  EXPECT_TRUE(saw);
  // A clean plane function passes.
  EXPECT_TRUE(check("src/sim/plane3.cpp",
                    "HWATCH_DETERMINISTIC_PLANE long area(long w, long h);\n"
                    "long area(long w, long h) { return w * h; }\n")
                  .empty());
}

TEST(HwlintConfinement, SimStaticsNeedSharedMarker) {
  const auto vs = check("src/sim/state.cpp", "static int g_mode = 0;\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, hwlint::kRuleShardConfinement);
  EXPECT_TRUE(check("src/sim/state.cpp",
                    "HWATCH_SHARD_SHARED static int g_mode = 0;\n")
                  .empty());
  // Outside src/sim the marker grants nothing; mutable-global applies.
  const auto api = check("src/api/state.cpp",
                         "HWATCH_SHARD_SHARED static int g_mode = 0;\n");
  ASSERT_EQ(api.size(), 1u);
  EXPECT_EQ(api[0].rule, hwlint::kRuleMutableGlobal);
}

// -------------------------------------------------- fp-determinism pass

TEST(HwlintFp, FlagsFloatComparisonsPerFile) {
  const auto vs = check("src/stats/cmp.cpp",
                        "bool eq(double a, double b) { return a == b; }\n"
                        "bool tiny(double x) { return x != 0.25; }\n");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].rule, hwlint::kRuleFpDeterminism);
  EXPECT_EQ(vs[0].pass, hwlint::kPassFpDeterminism);
  // Integer comparisons and operator== declarations pass, and fp names
  // from *other* files do not poison this one.
  EXPECT_TRUE(check("src/stats/ok.cpp",
                    "bool f(long a, long b) { return a == b; }\n"
                    "bool operator==(P a, P b);\n"
                    "bool g(char c) { return c == 'x'; }\n")
                  .empty());
}

TEST(HwlintFp, FlagsAccumulationOverUnorderedOnly) {
  const auto bad = check("src/stats/acc.cpp",
                         "std::unordered_map<int, double> samples;\n"
                         "double total() {\n"
                         "  double sum = 0;\n"
                         "  for (const auto& [k, v] : samples) sum += v;\n"
                         "  return sum;\n"
                         "}\n");
  bool fp = false;
  for (const auto& v : bad) {
    if (v.rule == hwlint::kRuleFpDeterminism) fp = true;
  }
  EXPECT_TRUE(fp);
  // Ordered containers accumulate fine.
  EXPECT_TRUE(check("src/stats/acc_ok.cpp",
                    "std::map<int, double> samples;\n"
                    "double total() {\n"
                    "  double sum = 0;\n"
                    "  for (const auto& [k, v] : samples) sum += v;\n"
                    "  return sum;\n"
                    "}\n")
                  .empty());
}

TEST(HwlintFp, LibmPolicySqrtExemptPowFlagged) {
  const auto vs = check("src/stats/libm.cpp",
                        "double a(double x) { return std::sqrt(x); }\n"
                        "double b(double x) { return std::pow(x, 2.0); }\n"
                        "double c(double x) { return std::fma(x, x, 1.0); }\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 2);
  EXPECT_EQ(vs[0].rule, hwlint::kRuleFpDeterminism);
  // Only src/ is in scope: tools and bench math is not manifest payload.
  EXPECT_TRUE(
      check("tools/plot.cpp", "double f(double x) { return exp(x); }\n")
          .empty());
}

// ----------------------------------------------- unknown suppression rule

TEST(HwlintSuppression, UnknownRuleInAllowListIsViolation) {
  const auto vs = check("src/net/typo.cpp",
                        "// hwlint: allow(layerng)\n"
                        "constexpr int x = 0;\n");
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].rule, hwlint::kRuleBadSuppression);
  EXPECT_NE(vs[0].message.find("layerng"), std::string::npos);
  // All real rule names parse clean.
  for (const auto& rule : hwlint::all_rules()) {
    const auto ok = check("src/net/ok.cpp",
                          "// hwlint: allow(" + rule + ")\nconstexpr int x = 0;\n");
    EXPECT_TRUE(ok.empty()) << rule << ": " << ok[0].message;
  }
}

TEST(HwlintAllowlist, RejectsUnknownRuleNames) {
  hwlint::Allowlist al;
  std::string err;
  EXPECT_FALSE(
      hwlint::parse_allowlist("allow layerng src/sim/x.cpp\n", al, err));
  EXPECT_NE(err.find("layerng"), std::string::npos);
  EXPECT_TRUE(hwlint::parse_allowlist("allow layering src/sim/x.cpp\n"
                                      "allow * src/scratch/\n",
                                      al, err))
      << err;
}

// -------------------------------------------------- allowlist and globs

TEST(HwlintAllowlist, GlobMatchSemantics) {
  EXPECT_TRUE(hwlint::glob_match("src/sim/random.*", "src/sim/random.cpp"));
  EXPECT_TRUE(hwlint::glob_match("src/sim/random.*", "src/sim/random.hpp"));
  EXPECT_FALSE(hwlint::glob_match("src/sim/random.*", "src/sim/rng.cpp"));
  // `*` crosses directory separators.
  EXPECT_TRUE(hwlint::glob_match("src/*_test.cpp", "src/a/b/x_test.cpp"));
  // Trailing `/` is a prefix match.
  EXPECT_TRUE(hwlint::glob_match("tests/hwlint/fixtures/",
                                 "tests/hwlint/fixtures/bad/src/a.cpp"));
  EXPECT_FALSE(hwlint::glob_match("tests/hwlint/fixtures/", "tests/a.cpp"));
  // ...and the directory prefix itself may contain wildcards.
  EXPECT_TRUE(hwlint::glob_match("tests/*/fixtures/",
                                 "tests/hwlint/fixtures/bad/src/a.cpp"));
  EXPECT_FALSE(hwlint::glob_match("tests/*/fixtures/", "tests/hwlint/x.cpp"));
  EXPECT_TRUE(hwlint::glob_match("src/s?m/", "src/sim/context.hpp"));
  EXPECT_TRUE(hwlint::glob_match("a?c", "abc"));
  EXPECT_FALSE(hwlint::glob_match("a?c", "ac"));
}

TEST(HwlintAllowlist, ParseAndApply) {
  hwlint::Allowlist al;
  std::string err;
  ASSERT_TRUE(hwlint::parse_allowlist(
      "# comment\n"
      "allow nondeterminism src/sim/random.*\n"
      "allow * tools/scratch/\n"
      "exclude tests/hwlint/fixtures/\n",
      al, err))
      << err;
  EXPECT_TRUE(al.allowed("src/sim/random.cpp", "nondeterminism"));
  EXPECT_FALSE(al.allowed("src/sim/random.cpp", "hot-path-alloc"));
  EXPECT_TRUE(al.allowed("tools/scratch/x.cpp", "mutable-global"));
  EXPECT_TRUE(al.excluded("tests/hwlint/fixtures/bad_tree/src/a.cpp"));
  EXPECT_FALSE(al.excluded("tests/hwlint/hwlint_test.cpp"));
}

TEST(HwlintAllowlist, RejectsMalformedLines) {
  hwlint::Allowlist al;
  std::string err;
  EXPECT_FALSE(hwlint::parse_allowlist("allow nondeterminism\n", al, err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(hwlint::parse_allowlist("frobnicate x y\n", al, err));
}

// ----------------------------------------------------- driver / run_lint

TEST(HwlintDriver, BadFixtureTreeFailsWithEveryRule) {
  hwlint::Options opts;
  opts.root = std::string(HWLINT_FIXTURES) + "/bad_tree";
  hwlint::Report report;
  std::ostringstream err;
  ASSERT_EQ(hwlint::run_lint(opts, report, err), 1) << err.str();
  std::set<std::string> seen;
  for (const auto& v : report.violations) seen.insert(v.rule);
  for (const auto& rule : hwlint::all_rules()) {
    EXPECT_TRUE(seen.count(rule)) << "rule never fired: " << rule;
  }
  EXPECT_EQ(report.suppressed, 2u);  // suppressed.cpp's two valid markers
}

TEST(HwlintDriver, CleanFixtureTreePasses) {
  hwlint::Options opts;
  opts.root = std::string(HWLINT_FIXTURES) + "/clean_tree";
  hwlint::Report report;
  std::ostringstream err;
  EXPECT_EQ(hwlint::run_lint(opts, report, err), 0) << err.str();
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.files_scanned, 12u);
}

TEST(HwlintDriver, StaleAllowlistEntryIsABadSuppression) {
  // The tree's allowlist has one entry that silences seed.cpp and one
  // (line 6) that matches nothing: a whole-tree scan reports the stale
  // one at its allowlist line.
  hwlint::Options opts;
  opts.root = std::string(HWLINT_FIXTURES) + "/stale_allowlist_tree";
  hwlint::Report report;
  std::ostringstream err;
  ASSERT_EQ(hwlint::run_lint(opts, report, err), 1) << err.str();
  ASSERT_EQ(report.violations.size(), 1u);
  const hwlint::Violation& v = report.violations[0];
  EXPECT_EQ(v.file, "tools/hwlint/allowlist.txt");
  EXPECT_EQ(v.line, 6);
  EXPECT_EQ(v.rule, "bad-suppression");
  EXPECT_NE(v.message.find("allow nondeterminism src/net/*"),
            std::string::npos)
      << v.message;
  EXPECT_EQ(report.allowlisted, 1u);

  // An explicit path list sees only part of the tree, so an entry it
  // does not exercise is not evidence of staleness.
  opts.paths = {"src"};
  hwlint::Report partial;
  EXPECT_EQ(hwlint::run_lint(opts, partial, err), 0) << err.str();
  EXPECT_TRUE(partial.violations.empty());
  EXPECT_EQ(partial.allowlisted, 1u);
}

TEST(HwlintDriver, ViolationsAreSorted) {
  hwlint::Options opts;
  opts.root = std::string(HWLINT_FIXTURES) + "/bad_tree";
  hwlint::Report report;
  std::ostringstream err;
  ASSERT_EQ(hwlint::run_lint(opts, report, err), 1);
  for (std::size_t i = 1; i < report.violations.size(); ++i) {
    const auto& a = report.violations[i - 1];
    const auto& b = report.violations[i];
    EXPECT_LE(std::tie(a.file, a.line, a.rule),
              std::tie(b.file, b.line, b.rule));
  }
}

TEST(HwlintDriver, ReportsAreByteIdenticalAcrossJobCounts) {
  auto run = [](unsigned jobs) {
    hwlint::Options opts;
    opts.root = std::string(HWLINT_FIXTURES) + "/bad_tree";
    opts.jobs = jobs;
    hwlint::Report report;
    std::ostringstream err;
    EXPECT_EQ(hwlint::run_lint(opts, report, err), 1) << err.str();
    return report;
  };
  const auto serial = run(1);
  for (const std::size_t jobs : {2u, 4u, 8u}) {
    const auto parallel = run(jobs);
    ASSERT_EQ(parallel.violations.size(), serial.violations.size());
    EXPECT_EQ(parallel.files_scanned, serial.files_scanned);
    EXPECT_EQ(parallel.suppressed, serial.suppressed);
    EXPECT_EQ(parallel.allowlisted, serial.allowlisted);
    for (std::size_t i = 0; i < serial.violations.size(); ++i) {
      const auto& a = serial.violations[i];
      const auto& b = parallel.violations[i];
      EXPECT_EQ(std::tie(a.file, a.line, a.rule, a.pass, a.message,
                         a.evidence),
                std::tie(b.file, b.line, b.rule, b.pass, b.message,
                         b.evidence))
          << "divergence at index " << i << " with jobs=" << jobs;
    }
  }
}

// ------------------------------------------------------------------ CLI

std::string run_cli(const std::string& args, int* exit_code) {
  const std::string cmd = std::string(HWLINT_BIN) + " " + args + " 2>&1";
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

TEST(HwlintCli, ExitCodesMatchTreeState) {
  int code = -1;
  run_cli("--root " + std::string(HWLINT_FIXTURES) + "/clean_tree", &code);
  EXPECT_EQ(code, 0);
  run_cli("--root " + std::string(HWLINT_FIXTURES) + "/bad_tree", &code);
  EXPECT_EQ(code, 1);
  run_cli("--root /nonexistent-hwlint-root", &code);
  EXPECT_EQ(code, 2);
  run_cli("--jobs nope --root .", &code);
  EXPECT_EQ(code, 2);
}

TEST(HwlintCli, JobsFlagDoesNotChangeOutputBytes) {
  const std::string base =
      "--json --root " + std::string(HWLINT_FIXTURES) + "/bad_tree";
  int code = -1;
  const std::string serial = run_cli(base + " --jobs 1", &code);
  EXPECT_EQ(code, 1);
  const std::string parallel = run_cli(base + " --jobs 4", &code);
  EXPECT_EQ(code, 1);
  EXPECT_EQ(serial, parallel);
}

TEST(HwlintCli, JsonReportRoundTripsThroughSimJson) {
  int code = -1;
  const std::string out = run_cli(
      "--json --root " + std::string(HWLINT_FIXTURES) + "/bad_tree", &code);
  EXPECT_EQ(code, 1);
  std::string perr;
  const auto doc = hwatch::sim::Json::parse(out, &perr);
  ASSERT_TRUE(perr.empty()) << perr << "\noutput was:\n" << out;
  ASSERT_TRUE(doc.is_object());
  const auto* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "hwatch.hwlint_report/v2");
  // v2 declares its rule and pass vocabulary at top level.
  const auto* rule_list = doc.find("rules");
  ASSERT_NE(rule_list, nullptr);
  ASSERT_TRUE(rule_list->is_array());
  EXPECT_EQ(rule_list->items().size(), hwlint::all_rules().size());
  const auto* pass_list = doc.find("passes");
  ASSERT_NE(pass_list, nullptr);
  ASSERT_TRUE(pass_list->is_array());
  std::set<std::string> passes;
  for (const auto& p : pass_list->items()) passes.insert(p.as_string());
  EXPECT_TRUE(passes.count("token"));
  EXPECT_TRUE(passes.count("include-graph"));
  EXPECT_TRUE(passes.count("shard-confinement"));
  EXPECT_TRUE(passes.count("fp-determinism"));
  const auto* violations = doc.find("violations");
  ASSERT_NE(violations, nullptr);
  ASSERT_TRUE(violations->is_array());
  EXPECT_EQ(violations->items().size(), 35u);
  std::set<std::string> rules;
  bool saw_evidence = false;
  for (const auto& v : violations->items()) {
    ASSERT_TRUE(v.is_object());
    ASSERT_NE(v.find("file"), nullptr);
    ASSERT_NE(v.find("line"), nullptr);
    ASSERT_NE(v.find("rule"), nullptr);
    ASSERT_NE(v.find("pass"), nullptr);
    ASSERT_NE(v.find("message"), nullptr);
    ASSERT_NE(v.find("evidence"), nullptr);
    EXPECT_GT(v.find("line")->as_int(), 0);
    EXPECT_TRUE(passes.count(v.find("pass")->as_string()))
        << "unknown pass: " << v.find("pass")->as_string();
    if (!v.find("evidence")->as_string().empty()) saw_evidence = true;
    rules.insert(v.find("rule")->as_string());
  }
  EXPECT_TRUE(saw_evidence);  // include paths / annotation sites survive
  for (const auto& rule : hwlint::all_rules()) {
    EXPECT_TRUE(rules.count(rule)) << "rule missing from JSON: " << rule;
  }
  const auto* suppressed = doc.find("suppressed");
  ASSERT_NE(suppressed, nullptr);
  EXPECT_EQ(suppressed->as_int(), 2);
}

}  // namespace
