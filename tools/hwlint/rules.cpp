// Rule implementations.  Each rule walks the token stream produced by
// lex(); see hwlint.hpp for what every rule protects and why.
//
// Cross-file rules (unordered-iter, shard-confinement, fp-determinism)
// read the TreeIndex the driver builds over every scanned file before
// the per-file checks run; the include-graph pass lives in
// include_graph.cpp.

#include "hwlint/hwlint.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <tuple>
#include <unordered_set>

namespace hwlint {

namespace {

using Toks = std::vector<Token>;

bool is_ident(const Token& t) { return t.kind == Token::Kind::kIdentifier; }
bool is_punct(const Token& t, std::string_view s) {
  return t.kind == Token::Kind::kPunct && t.text == s;
}

/// Reassembles the qualified name ending at identifier `i`
/// ("std::chrono::steady_clock" for the token `steady_clock`).
std::string qualified_name(const Toks& t, std::size_t i) {
  std::string name = t[i].text;
  std::size_t k = i;
  while (k >= 2 && is_punct(t[k - 1], "::") && is_ident(t[k - 2])) {
    name.insert(0, t[k - 2].text + "::");
    k -= 2;
  }
  return name;
}

const Token* prev_tok(const Toks& t, std::size_t i) {
  return i > 0 ? &t[i - 1] : nullptr;
}
const Token* next_tok(const Toks& t, std::size_t i) {
  return i + 1 < t.size() ? &t[i + 1] : nullptr;
}

/// Keywords that legitimately precede a call expression (so `return
/// time(...)` is a call, while `std::uint64_t time(...)` is a
/// declaration of a same-named project function).
bool is_call_preceder_keyword(const Token& t) {
  static const std::unordered_set<std::string> kSet = {
      "return", "co_return", "co_yield", "co_await", "else", "do"};
  return is_ident(t) && kSet.count(t.text) != 0;
}

/// True when identifier `i` is a call (followed by `(`) of a free or
/// std-qualified function — member calls (`x.time(...)`) don't count.
bool is_free_call(const Toks& t, std::size_t i) {
  const Token* nx = next_tok(t, i);
  if (nx == nullptr || !is_punct(*nx, "(")) return false;
  const Token* pv = prev_tok(t, i);
  if (pv == nullptr) return true;
  if (is_punct(*pv, ".") || is_punct(*pv, "->")) return false;
  if (is_punct(*pv, "::")) {
    // Qualified: only std:: (or global ::) still counts as the banned
    // library function; anything_else::time() is the project's own.
    if (i >= 2 && is_ident(t[i - 2]) && !is_call_preceder_keyword(t[i - 2])) {
      return t[i - 2].text == "std";
    }
    return true;  // leading ::time()
  }
  // `Type time(...)` / `Type* time(...)` is a declaration, not a call.
  if (is_ident(*pv)) return is_call_preceder_keyword(*pv);
  if (is_punct(*pv, ">") || is_punct(*pv, "*") || is_punct(*pv, "&")) {
    return false;
  }
  return true;
}

// --------------------------------------------------------- rule scoping

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool in_hot_path(std::string_view rel) {
  return starts_with(rel, "src/sim/") || starts_with(rel, "src/net/") ||
         starts_with(rel, "src/tcp/") || starts_with(rel, "src/hwatch/");
}

bool unordered_iter_applies(std::string_view rel) {
  return starts_with(rel, "src/") || starts_with(rel, "tools/");
}

bool mutable_global_applies(std::string_view rel) {
  return starts_with(rel, "src/") && !starts_with(rel, "src/sim/");
}

bool cross_shard_state_applies(std::string_view rel) {
  return starts_with(rel, "src/");
}

bool confinement_applies(std::string_view rel) {
  return starts_with(rel, "src/");
}

bool fp_determinism_applies(std::string_view rel) {
  return starts_with(rel, "src/");
}

// ------------------------------------------------------ nondeterminism

const std::unordered_set<std::string>& banned_qualified() {
  static const std::unordered_set<std::string> kSet = {
      "std::random_device",
      "random_device",
      "std::chrono::system_clock",
      "std::chrono::steady_clock",
      "std::chrono::high_resolution_clock",
      "chrono::system_clock",
      "chrono::steady_clock",
      "chrono::high_resolution_clock",
      "system_clock",
      "steady_clock",
      "high_resolution_clock",
  };
  return kSet;
}

const std::unordered_set<std::string>& banned_calls() {
  static const std::unordered_set<std::string> kSet = {
      "rand",     "srand",         "time",        "clock",
      "gettimeofday", "clock_gettime", "timespec_get", "getrandom",
  };
  return kSet;
}

Violation token_violation(const std::string& rel, int line,
                          std::string_view rule, std::string message) {
  return Violation{rel, line, std::string(rule), std::string(kPassToken),
                   std::move(message), ""};
}

void check_nondeterminism(const std::string& rel, const Toks& t,
                          std::vector<Violation>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i])) continue;
    const std::string qn = qualified_name(t, i);
    if (banned_qualified().count(qn) != 0) {
      out.push_back(token_violation(
          rel, t[i].line, kRuleNondeterminism,
          "wall-clock / entropy source `" + qn +
              "`; route nondeterminism through sim::SimContext "
              "(seeded sim::Rng, manifest environment section)"));
      continue;
    }
    if (banned_calls().count(t[i].text) != 0 && is_free_call(t, i)) {
      out.push_back(token_violation(
          rel, t[i].line, kRuleNondeterminism,
          "call to `" + t[i].text +
              "()` is nondeterministic; use the SimContext "
              "clock/Rng instead"));
    }
  }
}

// -------------------------------------------------- hot-path-container

void check_hot_path_container(const std::string& rel, const Toks& t,
                              std::vector<Violation>& out) {
  static const std::unordered_set<std::string> kBanned = {
      "std::function", "std::deque", "std::list", "std::map",
      "std::multimap"};
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i])) continue;
    const std::string qn = qualified_name(t, i);
    if (kBanned.count(qn) == 0) continue;
    const char* alt =
        qn == "std::function"
            ? "sim::UniqueFunction (move-only, SBO, no per-event heap)"
        : (qn == "std::map" || qn == "std::multimap")
            ? "a flat slab / wheel / sorted vector (a red-black tree "
              "allocates one node per insert — a std::map calendar "
              "queue would undo the scheduler's zero-alloc fast path)"
            : "net::Ring / std::vector (deque and list allocate "
              "per node)";
    out.push_back(token_violation(
        rel, t[i].line, kRuleHotPathContainer,
        "`" + qn + "` in a hot-path dir; use " + alt));
  }
}

// ------------------------------------------------------ hot-path-alloc

void check_hot_path_alloc(const std::string& rel, const Toks& t,
                          std::vector<Violation>& out) {
  static const std::unordered_set<std::string> kAllocCalls = {
      "malloc", "calloc", "realloc", "free", "aligned_alloc"};
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i])) continue;
    const Token* pv = prev_tok(t, i);
    const Token* nx = next_tok(t, i);
    if (t[i].text == "new") {
      // `operator new` declarations and placement new (`new (buf) T`,
      // including `::new`) are the sanctioned forms.
      if (pv != nullptr && pv->text == "operator") continue;
      if (nx != nullptr && is_punct(*nx, "(")) continue;
      out.push_back(token_violation(
          rel, t[i].line, kRuleHotPathAlloc,
          "raw `new` in a hot-path dir; allocate through the "
          "SimContext pools or pre-reserve at construction"));
      continue;
    }
    if (t[i].text == "delete") {
      if (pv != nullptr && (pv->text == "operator" || is_punct(*pv, "="))) {
        continue;  // deleted function / operator delete declaration
      }
      out.push_back(token_violation(
          rel, t[i].line, kRuleHotPathAlloc,
          "raw `delete` in a hot-path dir; hot-path objects are "
          "pool-recycled or value-owned"));
      continue;
    }
    if (kAllocCalls.count(t[i].text) != 0 && is_free_call(t, i)) {
      out.push_back(token_violation(
          rel, t[i].line, kRuleHotPathAlloc,
          "`" + t[i].text +
              "()` in a hot-path dir; the hot path must not "
              "touch the global allocator"));
    }
  }
}

// ---------------------------------------------------- cross-shard-state

/// Only std::-qualified names are matched: a project type or parameter
/// that happens to be called `mutex` or `thread` is not shared state.
/// Shared with the shard-confinement pass, which uses the same set to
/// decide whether a file is a threading context.
const std::unordered_set<std::string>& threading_primitives() {
  static const std::unordered_set<std::string> kBanned = {
      "std::thread",          "std::jthread",
      "std::mutex",           "std::timed_mutex",
      "std::recursive_mutex", "std::recursive_timed_mutex",
      "std::shared_mutex",    "std::shared_timed_mutex",
      "std::condition_variable", "std::condition_variable_any",
      "std::atomic",          "std::atomic_flag",
      "std::atomic_ref",      "std::atomic_thread_fence",
      "std::barrier",         "std::latch",
      "std::counting_semaphore", "std::binary_semaphore",
      "std::future",          "std::shared_future",
      "std::promise",         "std::packaged_task",
      "std::async",           "std::stop_source",
      "std::stop_token",
  };
  return kBanned;
}

void check_cross_shard_state(const std::string& rel, const Toks& t,
                             std::vector<Violation>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i])) continue;
    const std::string qn = qualified_name(t, i);
    if (threading_primitives().count(qn) == 0) continue;
    out.push_back(token_violation(
        rel, t[i].line, kRuleCrossShardState,
        "`" + qn +
            "` shares state across threads; shards own disjoint "
            "SimContexts and communicate only through "
            "net::CrossShardChannel under the sim::ShardGroup barrier "
            "(sanctioned implementations are allowlisted)"));
  }
}

// ------------------------------------------------------- unordered-iter

/// Skips a balanced `<...>` starting at the `<` in position i; returns
/// the index one past the closing `>` (or toks.size() when unbalanced).
std::size_t skip_template_args(const Toks& t, std::size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (is_punct(t[i], "<")) ++depth;
    if (is_punct(t[i], ">") && --depth == 0) return i + 1;
    // A `;` at template depth means we misparsed (comparison operator);
    // bail rather than eat the rest of the file.
    if (is_punct(t[i], ";")) return i;
  }
  return i;
}

/// Locates every range-for whose range expression names a member of
/// `names`; calls `fn(name_index, colon, close)` for each.
template <typename Fn>
void for_each_unordered_range_for(const Toks& t,
                                  const std::set<std::string>& names,
                                  Fn&& fn) {
  if (names.empty()) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i]) || t[i].text != "for" || i + 1 >= t.size() ||
        !is_punct(t[i + 1], "(")) {
      continue;
    }
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t k = i + 1; k < t.size(); ++k) {
      if (is_punct(t[k], "(")) ++depth;
      if (is_punct(t[k], ")") && --depth == 0) {
        close = k;
        break;
      }
      if (depth == 1 && colon == 0 && is_punct(t[k], ":")) colon = k;
    }
    if (colon == 0 || close == 0) continue;
    for (std::size_t k = colon + 1; k < close; ++k) {
      if (is_ident(t[k]) && names.count(t[k].text) != 0) {
        fn(k, colon, close);
        break;
      }
    }
  }
}

void check_unordered_iter(const std::string& rel, const Toks& t,
                          const std::set<std::string>& names,
                          std::vector<Violation>& out) {
  if (names.empty()) return;
  for_each_unordered_range_for(
      t, names, [&](std::size_t k, std::size_t, std::size_t) {
        out.push_back(token_violation(
            rel, t[k].line, kRuleUnorderedIter,
            "range-for over unordered container `" + t[k].text +
                "`; hash order is implementation-defined — copy to a "
                "sorted vector or use an ordered container"));
      });
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Explicit iterator walk: name.begin() / cbegin / rbegin / crbegin.
    if (is_ident(t[i]) && names.count(t[i].text) != 0 && i + 2 < t.size() &&
        (is_punct(t[i + 1], ".") || is_punct(t[i + 1], "->")) &&
        is_ident(t[i + 2])) {
      // `.end()` alone is NOT flagged: `it != m.end()` after a find()
      // is the sanctioned point-lookup idiom.  Walks start at begin().
      static const std::unordered_set<std::string> kIterFns = {
          "begin", "cbegin", "rbegin", "crbegin"};
      if (kIterFns.count(t[i + 2].text) != 0 && i + 3 < t.size() &&
          is_punct(t[i + 3], "(")) {
        out.push_back(token_violation(
            rel, t[i].line, kRuleUnorderedIter,
            "iterator walk over unordered container `" + t[i].text +
                "`; iteration order is implementation-defined"));
      }
    }
  }
}

// ------------------------------------------------------ mutable-global

/// Statement-head classification for scope tracking.
enum class ScopeKind { kNamespace, kClass, kFunction, kOther };

bool head_has(const Toks& head, std::string_view word) {
  for (const Token& t : head) {
    if (t.kind == Token::Kind::kIdentifier && t.text == word) return true;
  }
  return false;
}
bool head_has_punct(const Toks& head, std::string_view p) {
  for (const Token& t : head) {
    if (t.kind == Token::Kind::kPunct && t.text == p) return true;
  }
  return false;
}

/// Decides whether the tokens of one namespace-scope statement declare a
/// mutable variable (as opposed to a function, type, alias, ...).
bool head_is_mutable_var(const Toks& head) {
  if (head.size() < 2) return false;
  static const std::array<std::string_view, 12> kSkipWords = {
      "using",  "typedef", "friend",    "template",  "operator", "class",
      "struct", "union",   "enum",      "const",     "constexpr", "consteval"};
  for (std::string_view w : kSkipWords) {
    if (head_has(head, w)) return false;
  }
  if (!head_has(head, "static") && !head_has(head, "thread_local") &&
      !head_has(head, "extern")) {
    // Plain `int g = 0;` at namespace scope is just as mutable, but only
    // flag it when it really looks like a variable (has an initializer);
    // without one we cannot cheaply tell a declaration from a macro use.
    if (!head_has_punct(head, "=")) return false;
  }
  // Function if the first `(` comes before any `=`.
  std::size_t first_paren = head.size();
  std::size_t first_eq = head.size();
  for (std::size_t i = 0; i < head.size(); ++i) {
    if (first_paren == head.size() && head[i].kind == Token::Kind::kPunct &&
        head[i].text == "(") {
      first_paren = i;
    }
    if (first_eq == head.size() && head[i].kind == Token::Kind::kPunct &&
        head[i].text == "=") {
      first_eq = i;
    }
  }
  if (first_paren < first_eq) return false;
  // Needs at least a type token and a name token.
  int idents = 0;
  for (const Token& t : head) {
    if (t.kind == Token::Kind::kIdentifier) ++idents;
  }
  return idents >= 2;
}

/// Walks namespace-scope statements; calls `fn(head, line)` for every
/// statement head that declares a mutable variable.  Shared between
/// mutable-global (src/ outside sim) and the shard-confinement
/// unannotated-static check (src/sim).
template <typename Fn>
void for_each_mutable_global(const Toks& t, Fn&& fn) {
  std::vector<ScopeKind> scopes;
  Toks head;
  auto at_namespace_scope = [&] {
    return scopes.empty() || scopes.back() == ScopeKind::kNamespace;
  };
  for (const Token& tok : t) {
    if (is_punct(tok, "{")) {
      ScopeKind kind = ScopeKind::kOther;
      if (head_has(head, "namespace")) {
        kind = ScopeKind::kNamespace;
      } else if (head_has_punct(head, "(") || head_has_punct(head, ")")) {
        kind = ScopeKind::kFunction;
      } else if (head_has(head, "class") || head_has(head, "struct") ||
                 head_has(head, "union") || head_has(head, "enum")) {
        kind = ScopeKind::kClass;
      } else if (at_namespace_scope() && head_is_mutable_var(head)) {
        // Brace-initialized namespace-scope variable: `static int x{0};`
        fn(head, tok.line);
      }
      scopes.push_back(kind);
      head.clear();
      continue;
    }
    if (is_punct(tok, "}")) {
      if (!scopes.empty()) scopes.pop_back();
      head.clear();
      continue;
    }
    if (is_punct(tok, ";")) {
      if (at_namespace_scope() && head_is_mutable_var(head)) {
        fn(head, head.front().line);
      }
      head.clear();
      continue;
    }
    if (head.size() < 512) head.push_back(tok);
  }
}

void check_mutable_global(const std::string& rel, const Toks& t,
                          std::vector<Violation>& out) {
  for_each_mutable_global(t, [&](const Toks&, int line) {
    out.push_back(token_violation(
        rel, line, kRuleMutableGlobal,
        "mutable namespace-scope state; SimContext owns all "
        "mutable state so parallel scenarios share nothing "
        "(const/constexpr is fine)"));
  });
}

// --------------------------------------------------- shard-confinement

constexpr std::string_view kAnnoConfined = "HWATCH_SHARD_CONFINED";
constexpr std::string_view kAnnoShared = "HWATCH_SHARD_SHARED";
constexpr std::string_view kAnnoDeterministic = "HWATCH_DETERMINISTIC_PLANE";

/// RNG-root constructions banned inside DETERMINISTIC_PLANE functions on
/// top of the wall-clock/entropy sets: engines seeded in place bypass
/// the SimContext's derived-seed discipline.
const std::unordered_set<std::string>& rng_root_names() {
  static const std::unordered_set<std::string> kSet = {
      "std::mt19937",       "std::mt19937_64",
      "std::minstd_rand",   "std::minstd_rand0",
      "std::default_random_engine", "std::ranlux24",
      "std::ranlux48",      "std::knuth_b",
  };
  return kSet;
}

/// Index one past the `)` matching the `(` at `open` (or toks.size()).
std::size_t skip_parens(const Toks& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is_punct(t[i], "(")) ++depth;
    if (is_punct(t[i], ")") && --depth == 0) return i + 1;
  }
  return t.size();
}

/// Index one past the `}` matching the `{` at `open` (or toks.size()).
std::size_t skip_braces(const Toks& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (is_punct(t[i], "{")) ++depth;
    if (is_punct(t[i], "}") && --depth == 0) return i + 1;
  }
  return t.size();
}

void check_shard_confinement(const std::string& rel, const Toks& t,
                             const TreeIndex& index,
                             std::vector<Violation>& out) {
  // (1) Confined types referenced from a threading context: a TU that
  // uses std:: threading primitives may not touch shard-confined types
  // — cross-shard traffic goes through the sanctioned (allowlisted)
  // shard_group / shard_channel machinery only.
  std::string first_primitive;
  int first_primitive_line = 0;
  for (std::size_t i = 0; i < t.size() && first_primitive.empty(); ++i) {
    if (!is_ident(t[i])) continue;
    const std::string qn = qualified_name(t, i);
    if (threading_primitives().count(qn) != 0) {
      first_primitive = qn;
      first_primitive_line = t[i].line;
    }
  }
  if (!first_primitive.empty() && !index.confined_types.empty()) {
    std::set<std::string> flagged;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!is_ident(t[i])) continue;
      const auto it = index.confined_types.find(t[i].text);
      if (it == index.confined_types.end()) continue;
      // The declaring file itself is exempt (the annotation lives there).
      if (it->second.compare(0, rel.size(), rel) == 0 &&
          it->second.size() > rel.size() && it->second[rel.size()] == ':') {
        continue;
      }
      if (!flagged.insert(t[i].text).second) continue;  // once per type
      out.push_back(Violation{
          rel, t[i].line, std::string(kRuleShardConfinement),
          std::string(kPassShardConfinement),
          "`" + t[i].text + "` is HWATCH_SHARD_CONFINED but this file is "
              "a threading context (`" + first_primitive + "` at line " +
              std::to_string(first_primitive_line) +
              "); confined types may only cross shards through the "
              "sanctioned ShardInbox/ShardChannel machinery",
          "HWATCH_SHARD_CONFINED at " + it->second});
    }
  }

  // (2) Mutable namespace-scope state in src/sim must carry an explicit
  // HWATCH_SHARD_SHARED marker (outside src/sim the mutable-global rule
  // bans it outright).
  if (starts_with(rel, "src/sim/")) {
    for_each_mutable_global(t, [&](const Toks& head, int line) {
      if (head_has(head, std::string(kAnnoShared))) return;
      out.push_back(Violation{
          rel, line, std::string(kRuleShardConfinement),
          std::string(kPassShardConfinement),
          "mutable namespace-scope state in src/sim without "
          "HWATCH_SHARD_SHARED; either move it into SimContext or mark "
          "it shared and document its synchronization at the "
          "declaration (src/sim/annotations.hpp)",
          ""});
    });
  }

  // (3) HWATCH_DETERMINISTIC_PLANE function definitions may not read
  // wall clocks, construct entropy sources, seed RNG engines or call
  // RNG-root constructors — even inside nondeterminism-allowlisted TUs.
  if (index.deterministic_fns.empty()) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i])) continue;
    const auto fn = index.deterministic_fns.find(t[i].text);
    if (fn == index.deterministic_fns.end()) continue;
    const Token* nx = next_tok(t, i);
    if (nx == nullptr || !is_punct(*nx, "(")) continue;
    // Find the definition body: after the parameter list, a `{` before
    // any `;` (member-init lists are crossed; a `;` first means this was
    // a declaration or a call statement).
    std::size_t k = skip_parens(t, i + 1);
    std::size_t body = 0;
    for (; k < t.size(); ++k) {
      if (is_punct(t[k], "{")) {
        body = k;
        break;
      }
      if (is_punct(t[k], ";")) break;
    }
    if (body == 0) continue;
    const std::size_t end = skip_braces(t, body);
    for (std::size_t b = body; b < end; ++b) {
      if (!is_ident(t[b])) continue;
      const std::string qn = qualified_name(t, b);
      std::string what;
      if (banned_qualified().count(qn) != 0 ||
          rng_root_names().count(qn) != 0) {
        what = qn;
      } else if (banned_calls().count(t[b].text) != 0 && is_free_call(t, b)) {
        what = t[b].text + "()";
      } else if (t[b].text == "seed" && b >= 1 &&
                 (is_punct(t[b - 1], ".") || is_punct(t[b - 1], "->")) &&
                 b + 1 < t.size() && is_punct(t[b + 1], "(")) {
        what = ".seed()";
      }
      if (what.empty()) continue;
      out.push_back(Violation{
          rel, t[b].line, std::string(kRuleShardConfinement),
          std::string(kPassShardConfinement),
          "`" + what + "` inside deterministic-plane function `" +
              fn->first +
              "`; HWATCH_DETERMINISTIC_PLANE code must be a pure "
              "function of simulation state (no wall clocks, no RNG "
              "roots, no reseeding)",
          "HWATCH_DETERMINISTIC_PLANE at " + fn->second});
    }
  }
}

// ----------------------------------------------------- fp-determinism

/// A number token that denotes a floating literal: decimal with a `.`
/// or exponent, hex with a `.` or binary exponent, or an f/F suffix.
bool is_fp_literal(const Token& tok) {
  if (tok.kind != Token::Kind::kNumber) return false;
  const std::string& s = tok.text;
  const bool hex = s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
  if (s.find('.') != std::string::npos) return true;
  if (hex) return s.find('p') != std::string::npos ||
                  s.find('P') != std::string::npos;
  if (s.size() > 1 && s[0] == '0' && (s[1] == 'b' || s[1] == 'B')) return false;
  if (s.find('e') != std::string::npos || s.find('E') != std::string::npos) {
    return true;
  }
  return s.back() == 'f' || s.back() == 'F';
}

/// Non-portable libm entry points: accuracy is implementation-defined,
/// so two libms legally produce different last bits and break the
/// cross-platform byte-identity of manifests.  sqrt and fma are exempt
/// (IEEE 754 requires correct rounding); so are the exact/rounding ops.
const std::unordered_set<std::string>& nonportable_libm() {
  static const std::unordered_set<std::string> kSet = {
      "pow",   "powf",  "powl",   "exp",    "exp2",   "expm1", "log",
      "log2",  "log10", "log1p",  "tgamma", "lgamma", "sin",   "cos",
      "tan",   "asin",  "acos",   "atan",   "atan2",  "sinh",  "cosh",
      "tanh",  "asinh", "acosh",  "atanh",  "erf",    "erfc",  "cbrt",
      "hypot",
  };
  return kSet;
}

/// Names declared float / double in this file (locals, members,
/// parameters).  Deliberately per-file, not tree-wide: one `double c`
/// anywhere would otherwise turn every `c == '"'` in the tree into a
/// false positive.
std::set<std::string> collect_fp_names(const Toks& t) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i]) || (t[i].text != "float" && t[i].text != "double")) {
      continue;
    }
    // Skip declarator decorations; template args (`vector<double>`) and
    // casts have no trailing identifier and fall out naturally.
    std::size_t k = i + 1;
    while (k < t.size() &&
           (is_punct(t[k], "&") || is_punct(t[k], "*") ||
            (is_ident(t[k]) && t[k].text == "const"))) {
      ++k;
    }
    if (k >= t.size() || !is_ident(t[k])) continue;
    const Token* after = next_tok(t, k);
    // `name(` is a function returning float/double, not a variable.
    if (after != nullptr && is_punct(*after, "(")) continue;
    names.insert(t[k].text);
    // `double a = 0, b = 1;` — pick up names right after top-level commas.
    std::size_t m = k + 1;
    int depth = 0;
    while (m < t.size() && !is_punct(t[m], ";") && !is_punct(t[m], "{") &&
           !(depth == 0 && is_punct(t[m], ")"))) {
      if (is_punct(t[m], "(")) ++depth;
      if (is_punct(t[m], ")")) --depth;
      if (depth == 0 && is_punct(t[m], ",") && m + 1 < t.size() &&
          is_ident(t[m + 1])) {
        names.insert(t[m + 1].text);
      }
      ++m;
    }
  }
  return names;
}

bool is_fp_operand(const Toks& t, std::size_t i,
                   const std::set<std::string>& fp_names) {
  if (is_fp_literal(t[i])) return true;
  return is_ident(t[i]) && fp_names.count(t[i].text) != 0;
}

void check_fp_determinism(const std::string& rel, const Toks& t,
                          const TreeIndex& index,
                          std::vector<Violation>& out) {
  const std::set<std::string> fp_names = collect_fp_names(t);
  auto fp_violation = [&](int line, std::string message,
                          std::string evidence) {
    out.push_back(Violation{rel, line, std::string(kRuleFpDeterminism),
                            std::string(kPassFpDeterminism),
                            std::move(message), std::move(evidence)});
  };

  // (1) Direct ==/!= with a floating operand on either side.
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (!is_punct(t[i], "==") && !is_punct(t[i], "!=")) continue;
    // `operator==` declarations are not comparisons.
    if (is_ident(t[i - 1]) && t[i - 1].text == "operator") continue;
    // Right side may be a signed literal: x == -0.5
    std::size_t rhs = i + 1;
    if ((is_punct(t[rhs], "-") || is_punct(t[rhs], "+")) &&
        rhs + 1 < t.size()) {
      ++rhs;
    }
    std::string operand;
    if (is_fp_operand(t, i - 1, fp_names)) {
      operand = t[i - 1].text;
    } else if (is_fp_operand(t, rhs, fp_names)) {
      operand = t[rhs].text;
    } else {
      continue;
    }
    fp_violation(
        t[i].line,
        "floating-point `" + t[i].text + "` against `" + operand +
            "`; representation noise makes exact comparison "
            "platform-dependent — compare against an integer "
            "representation or use an explicit tolerance",
        "operand `" + operand + "` is floating-point");
  }

  // (2) Float accumulation inside iteration over an unordered
  // container: summation order is implementation-defined, so the same
  // flows can produce different last bits on different hosts.
  for_each_unordered_range_for(
      t, index.unordered_names,
      [&](std::size_t name_idx, std::size_t, std::size_t close) {
        // Loop body: `{...}` or a single statement up to `;`.
        std::size_t body = close + 1;
        if (body >= t.size()) return;
        const std::size_t end = is_punct(t[body], "{")
                                    ? skip_braces(t, body)
                                    : [&] {
                                        std::size_t e = body;
                                        while (e < t.size() &&
                                               !is_punct(t[e], ";")) {
                                          ++e;
                                        }
                                        return e;
                                      }();
        for (std::size_t b = body; b < end; ++b) {
          if (t[b].kind != Token::Kind::kPunct) continue;
          if (t[b].text != "+=" && t[b].text != "-=" && t[b].text != "*=" &&
              t[b].text != "/=") {
            continue;
          }
          if (b == 0 || !is_ident(t[b - 1]) ||
              fp_names.count(t[b - 1].text) == 0) {
            continue;
          }
          fp_violation(
              t[b].line,
              "float accumulation `" + t[b - 1].text + " " + t[b].text +
                  "` over unordered container `" + t[name_idx].text +
                  "`; summation order is implementation-defined — "
                  "accumulate over a sorted copy",
              "`" + t[name_idx].text + "` declared unordered");
        }
      });
  // std::accumulate over an unordered container's iterators.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i]) || t[i].text != "accumulate" || !is_free_call(t, i)) {
      continue;
    }
    const std::size_t end = skip_parens(t, i + 1);
    for (std::size_t k = i + 2; k < end; ++k) {
      if (is_ident(t[k]) && index.unordered_names.count(t[k].text) != 0) {
        fp_violation(
            t[i].line,
            "std::accumulate over unordered container `" + t[k].text +
                "`; summation order is implementation-defined — "
                "accumulate over a sorted copy",
            "`" + t[k].text + "` declared unordered");
        break;
      }
    }
  }

  // (3) Non-portable libm calls.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i]) || nonportable_libm().count(t[i].text) == 0 ||
        !is_free_call(t, i)) {
      continue;
    }
    fp_violation(
        t[i].line,
        "non-portable libm call `" + t[i].text +
            "()`; accuracy is implementation-defined, so results can "
            "differ across platforms — use integer/fixed-point math, "
            "sqrt/fma (correctly rounded), or suppress with a "
            "justification",
        "");
  }
}

// --------------------------------------------------------- suppression

bool suppressed(const std::vector<Suppression>& sups, const Violation& v) {
  for (const Suppression& s : sups) {
    const bool line_match =
        s.line == v.line || (s.whole_line && s.line + 1 == v.line);
    if (!line_match) continue;
    if (s.rules.empty()) return true;  // allow(*)
    for (const std::string& r : s.rules) {
      if (r == v.rule) return true;
    }
  }
  return false;
}

}  // namespace

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      std::string(kRuleNondeterminism),    std::string(kRuleHotPathContainer),
      std::string(kRuleHotPathAlloc),      std::string(kRuleUnorderedIter),
      std::string(kRuleCrossShardState),   std::string(kRuleMutableGlobal),
      std::string(kRuleBadSuppression),    std::string(kRuleLayering),
      std::string(kRuleShardConfinement),  std::string(kRuleFpDeterminism)};
  return kRules;
}

const std::vector<std::string>& all_passes() {
  static const std::vector<std::string> kPasses = {
      std::string(kPassToken), std::string(kPassIncludeGraph),
      std::string(kPassShardConfinement), std::string(kPassFpDeterminism)};
  return kPasses;
}

bool known_rule(std::string_view rule) {
  for (const std::string& r : all_rules()) {
    if (r == rule) return true;
  }
  return false;
}

void index_file(const std::string& rel, const LexResult& lexed,
                TreeIndex& index) {
  const Toks& t = lexed.tokens;
  const auto site = [&](int line) {
    return rel + ":" + std::to_string(line);
  };

  static const std::unordered_set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i])) continue;

    // Names declared as unordered containers (members, locals, params).
    if (kUnordered.count(t[i].text) != 0) {
      std::size_t k = i + 1;
      if (k < t.size() && is_punct(t[k], "<")) {
        k = skip_template_args(t, k);
        // Skip declarator decorations (`&`, `*`, trailing `const`)
        // between the template closer and the declared name; `&&` is
        // two `&` tokens.
        while (k < t.size() &&
               (is_punct(t[k], "&") || is_punct(t[k], "*") ||
                (is_ident(t[k]) && t[k].text == "const"))) {
          ++k;
        }
        if (k < t.size() && is_ident(t[k])) {
          const Token* after = next_tok(t, k);
          // `name(` is a function returning the container — skip.
          if (after == nullptr || !is_punct(*after, "(")) {
            index.unordered_names.insert(t[k].text);
          }
        }
      }
      continue;
    }

    // Annotated class declarations: `class HWATCH_SHARD_CONFINED Name`.
    if (t[i].text == "class" || t[i].text == "struct") {
      if (i + 2 >= t.size() || !is_ident(t[i + 1]) || !is_ident(t[i + 2])) {
        continue;
      }
      if (t[i + 1].text == kAnnoConfined) {
        index.confined_types.emplace(t[i + 2].text, site(t[i + 2].line));
      } else if (t[i + 1].text == kAnnoShared) {
        index.shared_types.emplace(t[i + 2].text, site(t[i + 2].line));
      }
      continue;
    }

    // Annotated functions: the first identifier followed by `(` after
    // the marker is the function name (return types, qualifiers and
    // template arguments are crossed; `operator` overloads are skipped).
    if (t[i].text == kAnnoDeterministic) {
      const std::size_t limit = std::min(t.size(), i + 40);
      for (std::size_t k = i + 1; k + 1 < limit; ++k) {
        if (!is_ident(t[k]) || t[k].text == "operator") continue;
        if (is_punct(t[k + 1], "(")) {
          index.deterministic_fns.emplace(t[k].text, site(t[k].line));
          break;
        }
      }
    }
  }
}

std::vector<Violation> check_file(const std::string& rel,
                                  const LexResult& lexed,
                                  const TreeIndex& index,
                                  std::size_t* suppressed_count) {
  std::vector<Violation> raw;
  check_nondeterminism(rel, lexed.tokens, raw);
  if (in_hot_path(rel)) {
    check_hot_path_container(rel, lexed.tokens, raw);
    check_hot_path_alloc(rel, lexed.tokens, raw);
  }
  if (unordered_iter_applies(rel)) {
    check_unordered_iter(rel, lexed.tokens, index.unordered_names, raw);
  }
  if (cross_shard_state_applies(rel)) {
    check_cross_shard_state(rel, lexed.tokens, raw);
  }
  if (mutable_global_applies(rel)) {
    check_mutable_global(rel, lexed.tokens, raw);
  }
  if (confinement_applies(rel)) {
    check_shard_confinement(rel, lexed.tokens, index, raw);
  }
  if (fp_determinism_applies(rel)) {
    check_fp_determinism(rel, lexed.tokens, index, raw);
  }
  std::vector<Violation> kept;
  for (Violation& v : raw) {
    if (suppressed(lexed.suppressions, v)) {
      if (suppressed_count != nullptr) ++*suppressed_count;
    } else {
      kept.push_back(std::move(v));
    }
  }
  // A malformed marker is always reported — a typo in `allow(...)` must
  // not silently turn the gate off.
  for (int line : lexed.malformed_suppressions) {
    kept.push_back(Violation{rel, line, std::string(kRuleBadSuppression),
                             std::string(kPassToken),
                             "unparsable `hwlint:` comment; expected "
                             "`hwlint: allow(rule[, rule...])`",
                             ""});
  }
  // ...and so must a well-formed marker naming a rule this binary does
  // not know: `allow(layerng)` is a disabled gate, not a suppression.
  for (const Suppression& s : lexed.suppressions) {
    for (const std::string& r : s.rules) {
      if (known_rule(r)) continue;
      kept.push_back(Violation{rel, s.line, std::string(kRuleBadSuppression),
                               std::string(kPassToken),
                               "unknown rule `" + r +
                                   "` in `hwlint: allow(...)`; known rules: "
                                   "run `hwlint --help`",
                               ""});
    }
  }
  std::sort(kept.begin(), kept.end(), [](const Violation& a, const Violation& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  return kept;
}

std::vector<Violation> check_source(const std::string& rel,
                                    std::string_view source,
                                    std::size_t* suppressed_count) {
  const LexResult lexed = lex(source);
  TreeIndex index;
  index_file(rel, lexed, index);
  return check_file(rel, lexed, index, suppressed_count);
}

}  // namespace hwlint
