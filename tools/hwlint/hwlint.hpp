// hwlint — project-specific static analysis for the HWatch simulator.
//
// The engine's credibility rests on two machine-checkable properties:
// runs are bit-reproducible (all nondeterminism flows through
// sim::SimContext) and the packet hot path never touches the global
// allocator.  Nothing in the compiler enforces either, so this tool
// does: a lightweight C++ tokenizer (comments, strings and preprocessor
// lines stripped; identifiers joined across `::`) walks src/, bench/,
// tests/ and tools/ and applies the rules below.  It is deliberately
// dependency-free — plain C++20 and <filesystem> — so the lint gate
// costs nothing to build anywhere the simulator builds.
//
// v2 grew the per-file tokenizer into a whole-program analyzer: a
// preprocessor-lite include resolver feeds an include-graph layering
// pass, and annotations from src/sim/annotations.hpp
// (HWATCH_SHARD_CONFINED / HWATCH_SHARD_SHARED /
// HWATCH_DETERMINISTIC_PLANE) feed a shard-confinement pass.  Files are
// lexed once, in parallel, and every pass shares the memoized token
// streams; reports stay deterministic (sorted by path) regardless of
// thread count.
//
// Rules (ids are what `// hwlint: allow(<rule>)` and the allowlist use),
// grouped by pass:
//
// pass "token" — per-file token scans:
//
//   nondeterminism     std::random_device, rand()/srand(), time()/clock(),
//                      std::chrono::{system,steady,high_resolution}_clock,
//                      gettimeofday/clock_gettime/getrandom anywhere in
//                      the tree.  Wall-clock reads are only legitimate
//                      where the simulator measures itself (bench wall
//                      timing, the self-profiler, shard telemetry, the
//                      run's wall time) — covered by the checked-in
//                      allowlist or an inline suppression.
//
//   hot-path-container std::function / std::deque / std::list / std::map
//                      / std::multimap in the hot-path dirs (src/sim,
//                      src/net, src/tcp, src/hwatch).  These either
//                      allocate per element or force copyability and
//                      heap spills; the repo provides UniqueFunction and
//                      net::Ring instead.
//
//   hot-path-alloc     raw `new` / `delete` (placement new and
//                      `operator new` declarations are recognised and
//                      permitted) and malloc/calloc/realloc/free in the
//                      hot-path dirs.  Allocation goes through the
//                      SimContext pools, whose `::operator new` calls
//                      the rule already permits.
//
//   unordered-iter     iteration (range-for, .begin()/.cbegin()/...)
//                      over a name declared anywhere in the tree as
//                      std::unordered_map / std::unordered_set.  Hash
//                      order is implementation-defined, so iterating one
//                      into a manifest, flow-record dump or stats table
//                      silently breaks byte-identical output.  Point
//                      lookups (find/insert/erase) stay fine.  Applies
//                      to src/ and tools/.
//
//   cross-shard-state  std:: threading / shared-state primitives
//                      (std::thread, std::mutex, std::atomic,
//                      std::barrier, std::condition_variable, futures,
//                      semaphores, ...) anywhere in src/.  Shards own
//                      disjoint SimContexts and may only exchange state
//                      through net::CrossShardChannel under the
//                      sim::ShardGroup epoch barrier; any other shared
//                      state silently breaks the byte-identical-
//                      across-thread-counts invariant.  The sanctioned
//                      implementations (shard_group, the sweep thread
//                      pool, the self-profiler counter) are covered by
//                      the checked-in allowlist.
//
//   mutable-global     mutable namespace-scope state (static,
//                      thread_local, extern or anonymous-namespace
//                      variables that are not const/constexpr) in src/
//                      outside src/sim — shared state across SimContext
//                      instances breaks the zero-shared-state design.
//                      The sim internals are covered by the
//                      shard-confinement rule instead, which demands an
//                      explicit HWATCH_SHARD_SHARED marker.
//
//   bad-suppression    unparsable `hwlint:` markers, and `allow(...)`
//                      lists naming a rule this binary does not know
//                      (`allow(layerng)` must fail loudly, not silently
//                      no-op), so typos cannot disable the gate.  On a
//                      default (whole-tree) scan, also every allowlist
//                      `allow` line that silenced nothing: a stale entry
//                      would pre-approve the next violation it matches.
//                      Scans of explicit paths see only part of the
//                      tree, so they skip this check.
//
// pass "include-graph" — whole-program, over resolved `#include "..."`
// edges between files under src/:
//
//   layering           the include DAG must respect the layer order
//                        sim → net → tcp/hwatch → topo/stats/workload → api
//                      (same-layer includes are fine; an include that
//                      points at a *higher* layer is flagged), and must
//                      be acyclic — cycle reports print the full
//                      include path.  Quoted includes resolve relative
//                      to the including file first, then against the
//                      src/ include root; includes that resolve to no
//                      scanned file (system headers, generated code)
//                      are tolerated.
//
// pass "shard-confinement" — annotation-driven (src/sim/annotations.hpp):
//
//   shard-confinement  (1) a type declared HWATCH_SHARD_CONFINED
//                      referenced from a translation unit that uses
//                      std:: threading primitives (the ShardInbox /
//                      ShardChannel-external threading contexts); (2) a
//                      mutable namespace-scope variable in src/sim not
//                      marked HWATCH_SHARD_SHARED; (3) a function
//                      annotated HWATCH_DETERMINISTIC_PLANE whose
//                      definition calls wall-clock or RNG-root APIs
//                      (including `.seed(...)` reseeding) — enforced
//                      even inside nondeterminism-allowlisted TUs.
//
// pass "fp-determinism" — floating-point portability, src/ only:
//
//   fp-determinism     (1) float/double accumulation (`+=`, `-=`, ...,
//                      std::accumulate) inside iteration over a
//                      container declared unordered — summation order
//                      is implementation-defined; (2) direct `==`/`!=`
//                      where either operand is a floating literal or a
//                      name declared float/double *in the same file*
//                      (per-file on purpose: a tree-wide name table
//                      turns every `c == '"'` into noise the moment
//                      any file declares `double c`) — representation
//                      noise breaks cross-platform byte-identity; (3)
//                      non-portable libm calls (pow/exp/log/tgamma/...;
//                      sqrt and fma are exempt — IEEE 754 requires
//                      correct rounding for them) outside allowlisted
//                      TUs.
//
// Suppression: `// hwlint: allow(rule)` (or `allow(rule1, rule2)`,
// or `allow(*)`) on the offending line, or alone on the line above.
// A checked-in allowlist file (default <root>/tools/hwlint/allowlist.txt)
// holds `allow <rule> <glob>` and `exclude <glob>` lines; rule names in
// both places are validated against the rule table.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace hwlint {

// ---------------------------------------------------------------- lexer

struct Token {
  enum class Kind { kIdentifier, kNumber, kPunct };
  Kind kind;
  std::string text;
  int line;
};

/// An inline `hwlint: allow(...)` comment.  `rules` empty means
/// `allow(*)`.  When the comment is the only thing on its line it also
/// covers the following line.
struct Suppression {
  int line = 0;
  bool whole_line = false;
  std::vector<std::string> rules;
};

/// One `#include` directive, collected for the include-graph pass.
/// `angled` distinguishes `<...>` (system — never part of the project
/// graph) from `"..."`.
struct IncludeDirective {
  int line = 0;
  bool angled = false;
  std::string path;  // verbatim spelling between the delimiters
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  std::vector<IncludeDirective> includes;
  /// Lines carrying a `hwlint:` marker that did not parse as
  /// `allow(rule[, rule...])` — reported as violations of rule
  /// "bad-suppression" so typos cannot silently disable the gate.
  std::vector<int> malformed_suppressions;
};

/// Tokenizes one translation unit: strips comments (collecting hwlint
/// markers), string/char literals (raw strings included) and
/// preprocessor directives (collecting `#include` targets); joins
/// nothing — `::` is a single punct token so rule code can reassemble
/// qualified names.  `==` `!=` `+=` `-=` `*=` `/=` are single tokens
/// (the fp-determinism pass keys on them); all other multi-character
/// operators except `::` and `->` stay split.
LexResult lex(std::string_view source);

// ---------------------------------------------------------------- rules

struct Violation {
  std::string file;  // root-relative, forward slashes
  int line = 0;
  std::string rule;
  std::string pass;      // "token" | "include-graph" | "shard-confinement"
                         // | "fp-determinism"
  std::string message;
  std::string evidence;  // include path / annotation site; "" when n/a
};

inline constexpr std::string_view kRuleNondeterminism = "nondeterminism";
inline constexpr std::string_view kRuleHotPathContainer = "hot-path-container";
inline constexpr std::string_view kRuleHotPathAlloc = "hot-path-alloc";
inline constexpr std::string_view kRuleUnorderedIter = "unordered-iter";
inline constexpr std::string_view kRuleCrossShardState = "cross-shard-state";
inline constexpr std::string_view kRuleMutableGlobal = "mutable-global";
inline constexpr std::string_view kRuleBadSuppression = "bad-suppression";
inline constexpr std::string_view kRuleLayering = "layering";
inline constexpr std::string_view kRuleShardConfinement = "shard-confinement";
inline constexpr std::string_view kRuleFpDeterminism = "fp-determinism";

inline constexpr std::string_view kPassToken = "token";
inline constexpr std::string_view kPassIncludeGraph = "include-graph";
inline constexpr std::string_view kPassShardConfinement = "shard-confinement";
inline constexpr std::string_view kPassFpDeterminism = "fp-determinism";

/// All rule ids, for `--help`, suppression validation and the tests.
const std::vector<std::string>& all_rules();
/// All pass names, in report order.
const std::vector<std::string>& all_passes();
/// True when `rule` names a known rule (suppression validation).
bool known_rule(std::string_view rule);

/// Cross-file facts collected over every scanned file before the rule
/// checks run, so a declaration in a header is honoured when its .cpp
/// is checked.  Values in the evidence maps are "file:line" of the
/// first declaration in path order (deterministic).
struct TreeIndex {
  /// Names declared as std::unordered_{map,set,multimap,multiset}.
  std::set<std::string> unordered_names;
  /// Class names annotated HWATCH_SHARD_CONFINED -> declaration site.
  std::map<std::string, std::string> confined_types;
  /// Class names annotated HWATCH_SHARD_SHARED -> declaration site.
  std::map<std::string, std::string> shared_types;
  /// Function names annotated HWATCH_DETERMINISTIC_PLANE -> site.
  std::map<std::string, std::string> deterministic_fns;
};

/// Folds one lexed file into the tree-wide index.  Call in sorted path
/// order so evidence strings are deterministic.
void index_file(const std::string& rel_path, const LexResult& lexed,
                TreeIndex& index);

/// Runs every per-file rule over one already-lexed file.  `rel_path`
/// (forward slashes, relative to the scan root) decides which rules
/// apply; `index` is the tree-wide fact table.  Inline suppressions are
/// applied here; allowlist filtering happens in the driver.
std::vector<Violation> check_file(const std::string& rel_path,
                                  const LexResult& lexed,
                                  const TreeIndex& index,
                                  std::size_t* suppressed_count = nullptr);

/// Convenience for tests: lex + index-free check of a single source.
/// Builds a one-file TreeIndex from `source` itself.
std::vector<Violation> check_source(
    const std::string& rel_path, std::string_view source,
    std::size_t* suppressed_count = nullptr);

// ------------------------------------------------- include-graph pass

/// Layer rank of a path under src/ (sim=0, net=1, tcp=hwatch=2,
/// topo=stats=workload=3, api=4); -1 for anything else (unknown dirs
/// and files outside src/ take no part in layering).
int layer_rank(std::string_view rel_path);

/// Resolves one quoted include spelled `target` inside `includer_rel`
/// against the set of scanned files: relative to the including file's
/// directory first, then the src/ include root, then verbatim.  Returns
/// "" when nothing matches (missing-file tolerance).
std::string resolve_include(const std::string& includer_rel,
                            const std::string& target,
                            const std::set<std::string>& known_files);

/// The include-graph pass: builds the resolved `#include` DAG over the
/// files under src/ and enforces the layer order plus acyclicity.
/// Upward includes are attributed to the including file at the
/// `#include` line (inline-suppressible there); cycles are attributed
/// to the lexicographically smallest member and carry the full path in
/// the message and evidence.  `files` maps rel path -> lexed content.
std::vector<Violation> check_include_graph(
    const std::map<std::string, const LexResult*>& files,
    std::size_t* suppressed_count = nullptr);

// --------------------------------------------------------------- driver

struct AllowEntry {
  std::string rule;  // "*" matches every rule
  std::string glob;  // `*` matches any run of characters, `?` one
  int line = 0;      // line in the allowlist file

  bool matches(const std::string& rel_path, const std::string& rule) const;
};

struct Allowlist {
  std::vector<AllowEntry> allows;
  std::vector<std::string> excludes;  // globs; matching files are skipped

  bool excluded(const std::string& rel_path) const;
  bool allowed(const std::string& rel_path, const std::string& rule) const;
};

/// `*` crosses directory separators; a pattern ending in `/` matches any
/// path under that prefix (the prefix itself may contain wildcards).
bool glob_match(std::string_view pattern, std::string_view path);

/// Parses `allow <rule> <glob>` / `exclude <glob>` lines (# comments).
/// Rule names must be known (or `*`).  Returns false (with a message in
/// `err`) on malformed input.  Each entry records its line number.
bool parse_allowlist(std::string_view text, Allowlist& out, std::string& err);

struct Options {
  std::filesystem::path root = ".";
  std::vector<std::string> paths;  // explicit files/dirs; empty => default dirs
  std::filesystem::path allowlist;  // empty => <root>/tools/hwlint/allowlist.txt
  bool json = false;
  /// Worker threads for the lex and rule passes; 0 = one per hardware
  /// thread (clamped).  The report is byte-identical for every value.
  unsigned jobs = 0;
};

struct Report {
  std::vector<Violation> violations;  // sorted by (file, line, rule)
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;   // silenced by inline comments
  std::size_t allowlisted = 0;  // silenced by the allowlist file
};

/// Walks the tree, runs the rules, fills `report`.  Returns 0 when the
/// tree is clean, 1 when violations remain, 2 on usage/IO errors.
int run_lint(const Options& opts, Report& report, std::ostream& err);

/// Renders `file:line: rule: message` lines (stable order).
void print_text(const Report& report, std::ostream& out);

/// Renders the machine-readable report (schema hwatch.hwlint_report/v2:
/// violations carry pass and evidence; top level lists rules + passes).
void print_json(const Report& report, const Options& opts, std::ostream& out);

}  // namespace hwlint
