// File walking, allowlist handling, parallel scanning and report
// rendering for hwlint.
//
// Three phases: (1) read + lex every file, in parallel — each file is
// lexed exactly once and the token stream is shared by every pass; (2)
// fold the lexed files into the TreeIndex in sorted path order (so a
// member declared in a header is honoured when its .cpp is checked, and
// evidence strings are deterministic); (3) run the per-file rules, in
// parallel, plus the whole-program include-graph pass.  Results are
// merged in sorted file order, so diagnostics and the JSON report are
// byte-identical regardless of directory-iteration order or --jobs.

#include "hwlint/hwlint.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

namespace hwlint {

namespace fs = std::filesystem;

namespace {

const char* kDefaultDirs[] = {"src", "bench", "tests", "tools", "examples"};

bool lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hh" || ext == ".ipp";
}

std::string to_rel(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(file, root, ec);
  if (ec || rel.empty()) rel = file;
  return rel.generic_string();
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

void json_escape(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

unsigned worker_count(unsigned requested, std::size_t work_items) {
  unsigned jobs = requested != 0 ? requested : std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  jobs = std::min<unsigned>(jobs, 16);
  jobs = std::min<std::size_t>(jobs, std::max<std::size_t>(work_items, 1));
  return jobs;
}

/// Runs fn(i) for every i in [0, count) across `jobs` threads.  Work
/// stealing via a shared atomic counter; callers write results into
/// per-index slots, so no other synchronization is needed and merge
/// order is up to the caller.
template <typename Fn>
void parallel_for(std::size_t count, unsigned jobs, Fn&& fn) {
  if (count == 0) return;
  if (jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(jobs - 1);
  for (unsigned t = 1; t < jobs; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

}  // namespace

bool glob_match(std::string_view pattern, std::string_view path) {
  if (!pattern.empty() && pattern.back() == '/') {
    // Directory pattern: everything under the prefix matches.  The
    // prefix itself may contain wildcards (`tests/*/fixtures/`), so
    // rewrite as `<prefix>*` instead of a literal prefix compare.
    const std::string rewritten = std::string(pattern) + "*";
    return glob_match(rewritten, path);
  }
  // Classic backtracking fnmatch; `*` crosses '/' on purpose (patterns
  // like `src/sim/random.*` and `tests/*_fixture*` read naturally).
  std::size_t p = 0, s = 0, star = std::string_view::npos, mark = 0;
  while (s < path.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == path[s])) {
      ++p;
      ++s;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = s;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      s = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

bool Allowlist::excluded(const std::string& rel) const {
  for (const std::string& g : excludes) {
    if (glob_match(g, rel)) return true;
  }
  return false;
}

bool AllowEntry::matches(const std::string& rel,
                         const std::string& r) const {
  return (rule == "*" || rule == r) && glob_match(glob, rel);
}

bool Allowlist::allowed(const std::string& rel, const std::string& rule) const {
  return std::any_of(allows.begin(), allows.end(),
                     [&](const AllowEntry& e) { return e.matches(rel, rule); });
}

bool parse_allowlist(std::string_view text, Allowlist& out, std::string& err) {
  std::istringstream in{std::string(text)};
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string verb;
    if (!(ls >> verb)) continue;  // blank / comment-only
    if (verb == "allow") {
      AllowEntry e;
      e.line = lineno;
      if (!(ls >> e.rule >> e.glob)) {
        err = "allowlist line " + std::to_string(lineno) +
              ": expected `allow <rule> <glob>`";
        return false;
      }
      // A typo'd rule name would silently allow nothing (or, worse,
      // silently stop allowing once a rule is renamed) — fail loudly.
      if (e.rule != "*" && !known_rule(e.rule)) {
        err = "allowlist line " + std::to_string(lineno) +
              ": unknown rule `" + e.rule + "`";
        return false;
      }
      out.allows.push_back(std::move(e));
    } else if (verb == "exclude") {
      std::string glob;
      if (!(ls >> glob)) {
        err = "allowlist line " + std::to_string(lineno) +
              ": expected `exclude <glob>`";
        return false;
      }
      out.excludes.push_back(std::move(glob));
    } else {
      err = "allowlist line " + std::to_string(lineno) +
            ": unknown directive `" + verb + "`";
      return false;
    }
    std::string extra;
    if (ls >> extra) {
      err = "allowlist line " + std::to_string(lineno) +
            ": trailing junk `" + extra + "`";
      return false;
    }
  }
  return true;
}

int run_lint(const Options& opts, Report& report, std::ostream& err) {
  std::error_code ec;
  const fs::path root = fs::absolute(opts.root, ec);
  if (ec || !fs::is_directory(root)) {
    err << "hwlint: root is not a directory: " << opts.root.string() << "\n";
    return 2;
  }

  Allowlist allow;
  fs::path allow_path = opts.allowlist;
  const bool allow_explicit = !allow_path.empty();
  if (!allow_explicit) allow_path = root / "tools" / "hwlint" / "allowlist.txt";
  if (fs::exists(allow_path)) {
    std::string text;
    if (!read_file(allow_path, text)) {
      err << "hwlint: cannot read allowlist " << allow_path.string() << "\n";
      return 2;
    }
    std::string perr;
    if (!parse_allowlist(text, allow, perr)) {
      err << "hwlint: " << allow_path.string() << ": " << perr << "\n";
      return 2;
    }
  } else if (allow_explicit) {
    err << "hwlint: allowlist not found: " << allow_path.string() << "\n";
    return 2;
  }

  // Resolve the scan set.
  std::vector<fs::path> roots;
  if (opts.paths.empty()) {
    for (const char* d : kDefaultDirs) {
      if (fs::is_directory(root / d)) roots.push_back(root / d);
    }
  } else {
    for (const std::string& p : opts.paths) {
      fs::path fp = fs::path(p).is_absolute() ? fs::path(p) : root / p;
      if (!fs::exists(fp)) {
        err << "hwlint: no such file or directory: " << p << "\n";
        return 2;
      }
      roots.push_back(std::move(fp));
    }
  }

  std::vector<fs::path> files;
  for (const fs::path& r : roots) {
    if (fs::is_regular_file(r)) {
      files.push_back(r);
      continue;
    }
    for (auto it = fs::recursive_directory_iterator(r, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_regular_file() && lintable_extension(it->path())) {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // The scan list, sorted by rel path — slot index is identity from
  // here on, so parallel phases can write results lock-free.
  struct Entry {
    fs::path abs;
    std::string rel;
    LexResult lexed;
    bool read_ok = true;
    std::vector<Violation> violations;
    std::size_t suppressed = 0;
  };
  std::vector<Entry> entries;
  entries.reserve(files.size());
  for (const fs::path& f : files) {
    std::string rel = to_rel(f, root);
    if (allow.excluded(rel)) continue;
    entries.push_back(Entry{f, std::move(rel), {}, true, {}, 0});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.rel < b.rel; });

  const unsigned jobs = worker_count(opts.jobs, entries.size());

  // Phase 1: read + lex, in parallel.  Each file is lexed exactly once;
  // the LexResult is shared by the index build, the per-file rules and
  // the include-graph pass.
  parallel_for(entries.size(), jobs, [&](std::size_t i) {
    std::string content;
    if (!read_file(entries[i].abs, content)) {
      entries[i].read_ok = false;
      return;
    }
    entries[i].lexed = lex(content);
  });
  for (const Entry& e : entries) {
    if (!e.read_ok) {
      err << "hwlint: cannot read " << e.rel << "\n";
      return 2;
    }
  }

  // Phase 2: tree-wide index, sequential in sorted order (evidence
  // strings record the first declaration in path order).
  TreeIndex index;
  for (const Entry& e : entries) {
    index_file(e.rel, e.lexed, index);
  }

  // Phase 3: per-file rules, in parallel; results land in per-slot
  // storage and are merged in slot (= sorted path) order below.
  parallel_for(entries.size(), jobs, [&](std::size_t i) {
    entries[i].violations =
        check_file(entries[i].rel, entries[i].lexed, index,
                   &entries[i].suppressed);
  });

  // Whole-program include-graph pass.
  std::map<std::string, const LexResult*> graph_files;
  for (const Entry& e : entries) graph_files.emplace(e.rel, &e.lexed);
  std::size_t graph_suppressed = 0;
  std::vector<Violation> graph_violations =
      check_include_graph(graph_files, &graph_suppressed);

  report.files_scanned = entries.size();
  report.suppressed = graph_suppressed;
  // An allow line is used when it matches at least one violation.
  std::vector<bool> used(allow.allows.size(), false);
  auto admit = [&](Violation& v) {
    bool allowed = false;
    for (std::size_t i = 0; i < allow.allows.size(); ++i) {
      if (allow.allows[i].matches(v.file, v.rule)) {
        used[i] = true;
        allowed = true;
      }
    }
    if (allowed) {
      ++report.allowlisted;
    } else {
      report.violations.push_back(std::move(v));
    }
  };
  for (Entry& e : entries) {
    report.suppressed += e.suppressed;
    for (Violation& v : e.violations) admit(v);
  }
  for (Violation& v : graph_violations) admit(v);
  // Only a whole-tree scan sees every violation an entry could match.
  if (opts.paths.empty()) {
    const std::string allow_rel = to_rel(allow_path, root);
    for (std::size_t i = 0; i < allow.allows.size(); ++i) {
      if (used[i]) continue;
      const AllowEntry& a = allow.allows[i];
      report.violations.push_back(
          {allow_rel, a.line, std::string(kRuleBadSuppression),
           std::string(kPassToken),
           "allowlist entry `allow " + a.rule + " " + a.glob +
               "` silences nothing; delete it",
           ""});
    }
  }

  std::sort(report.violations.begin(), report.violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.rule, a.evidence) <
                     std::tie(b.file, b.line, b.rule, b.evidence);
            });
  return report.violations.empty() ? 0 : 1;
}

void print_text(const Report& report, std::ostream& out) {
  for (const Violation& v : report.violations) {
    out << v.file << ":" << v.line << ": " << v.rule << ": " << v.message;
    if (!v.evidence.empty()) out << " [" << v.evidence << "]";
    out << "\n";
  }
  out << "hwlint: " << report.files_scanned << " files, "
      << report.violations.size() << " violation"
      << (report.violations.size() == 1 ? "" : "s") << " ("
      << report.suppressed << " suppressed inline, " << report.allowlisted
      << " allowlisted)\n";
}

void print_json(const Report& report, const Options& opts, std::ostream& out) {
  out << "{\n  \"schema\": \"hwatch.hwlint_report/v2\",\n  \"root\": \"";
  json_escape(out, opts.root.generic_string());
  out << "\",\n  \"files_scanned\": " << report.files_scanned
      << ",\n  \"suppressed\": " << report.suppressed
      << ",\n  \"allowlisted\": " << report.allowlisted
      << ",\n  \"rules\": [";
  const std::vector<std::string>& rules = all_rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"";
    json_escape(out, rules[i]);
    out << "\"";
  }
  out << "],\n  \"passes\": [";
  const std::vector<std::string>& passes = all_passes();
  for (std::size_t i = 0; i < passes.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"";
    json_escape(out, passes[i]);
    out << "\"";
  }
  out << "],\n  \"violations\": [";
  for (std::size_t i = 0; i < report.violations.size(); ++i) {
    const Violation& v = report.violations[i];
    out << (i == 0 ? "" : ",") << "\n    {\"file\": \"";
    json_escape(out, v.file);
    out << "\", \"line\": " << v.line << ", \"rule\": \"";
    json_escape(out, v.rule);
    out << "\", \"pass\": \"";
    json_escape(out, v.pass);
    out << "\", \"message\": \"";
    json_escape(out, v.message);
    out << "\", \"evidence\": \"";
    json_escape(out, v.evidence);
    out << "\"}";
  }
  out << (report.violations.empty() ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace hwlint
