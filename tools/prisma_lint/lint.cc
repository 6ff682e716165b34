#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>

#include "protocol.h"
#include "structure.h"

namespace prisma::lint {
namespace {

// -------------------------------------------------------------- diagnostics

void Emit(std::vector<Diagnostic>* out, const PreparedFile& file, int line,
          const char* rule, std::string message) {
  Diagnostic d;
  d.path = file.path;
  d.line = line;
  d.rule = rule;
  d.message = std::move(message);
  if (line >= 1 && line <= static_cast<int>(file.raw.size())) {
    d.snippet = Trim(file.raw[line - 1]);
  }
  out->push_back(std::move(d));
}

// ------------------------------------------------------------------ rule D1

struct TokenRule {
  std::regex pattern;
  const char* what;
};

/// Files whose whole purpose is to *own* the simulation's determinism: the
/// virtual clock and the seeded PRNG. Everything else must consume time and
/// randomness through them.
bool ExemptFromD1(const std::string& path) {
  return StartsWith(path, "sim/") || path == "common/rng.h";
}

void CheckNondeterminism(const PreparedFile& file,
                         std::vector<Diagnostic>* out) {
  if (ExemptFromD1(file.path)) return;
  // Word-ish boundaries are expressed with a leading character class
  // because std::regex has no lookbehind. `:` stays allowed before
  // time/clock so std::time/std::clock are caught, while `.`/`->`/`_`
  // prefixed member calls (response_time(), t.time()) are not.
  static const std::vector<TokenRule> kRules = [] {
    std::vector<TokenRule> rules;
    auto add = [&rules](const char* re, const char* what) {
      rules.push_back({std::regex(re), what});
    };
    add("std\\s*::\\s*chrono", "wall-clock time via std::chrono");
    add("\\b(system_clock|steady_clock|high_resolution_clock)\\b",
        "wall-clock time");
    add("\\brandom_device\\b", "hardware entropy (std::random_device)");
    add("std\\s*::\\s*(thread|jthread|async|mutex|shared_mutex|"
        "recursive_mutex|condition_variable)\\b",
        "threading primitive (the simulation is single-threaded)");
    add("\\bthis_thread\\b",
        "threading primitive (the simulation is single-threaded)");
    add("(^|[^A-Za-z0-9_:.>])(rand|srand|rand_r)\\s*\\(",
        "C PRNG (use prisma::Rng with an explicit seed)");
    add("(^|[^A-Za-z0-9_.>])(time|clock|gettimeofday|clock_gettime)\\s*\\(",
        "wall-clock time");
    add("std\\s*::\\s*(map|set|multimap|multiset)\\s*<[^<>,]*\\*[^<>]*[,>]",
        "ordered container keyed by pointer (address-dependent order)");
    return rules;
  }();
  for (size_t li = 0; li < file.code.size(); ++li) {
    const int line = static_cast<int>(li) + 1;
    for (const TokenRule& rule : kRules) {
      if (!std::regex_search(file.code[li], rule.pattern)) continue;
      if (file.IsSilenced("nondet", line)) continue;
      Emit(out, file, line, "D1",
           std::string(rule.what) +
               " outside src/sim — nondeterminism breaks same-seed replay");
      break;  // One D1 diagnostic per line is enough.
    }
  }
}

// ------------------------------------------------------------------ rule D2

/// Headers whose inclusion makes iteration order externally visible:
/// anything reachable from them can order outgoing messages, metric
/// registrations or trace events.
const char* const kObservableSurfaces[] = {
    "pool/runtime.h", "net/network.h",  "net/traffic.h",
    "obs/metrics.h",  "obs/trace.h",    "gdh/messages.h",
    "exec/exchange.h", "gdh/stage_consumer.h",
    "exec/fixpoint.h", "gdh/fixpoint_process.h",
    // The columnar batch and its wire encoding (DESIGN.md §12): frame
    // bytes are message payloads, so the order anything is appended to a
    // batch or frame is externally visible timing-wise and byte-wise.
    "common/column_batch.h", "common/serialize.h",
    // Replication (DESIGN.md §13): replica names and states feed failover
    // decisions, resync scheduling, metric labels and Unavailable
    // messages, so iteration order near them is replay-visible.
    "gdh/replication.h",
};

/// Collects names declared with an unordered container type, e.g.
///   std::unordered_map<K, V> name_;   unordered_set<T> seen;
/// The declaration may span lines; template arguments are skipped by
/// balancing angle brackets.
void CollectUnorderedNames(const PreparedFile& file,
                           std::set<std::string>* names) {
  std::string joined;
  for (const std::string& line : file.code) {
    joined += line;
    joined += '\n';
  }
  static const std::regex kDecl("unordered_(map|set|multimap|multiset)\\b");
  for (auto it = std::sregex_iterator(joined.begin(), joined.end(), kDecl);
       it != std::sregex_iterator(); ++it) {
    size_t pos = static_cast<size_t>(it->position()) + it->length();
    while (pos < joined.size() && std::isspace(static_cast<unsigned char>(
                                      joined[pos]))) {
      ++pos;
    }
    if (pos >= joined.size() || joined[pos] != '<') continue;
    int depth = 0;
    while (pos < joined.size()) {
      if (joined[pos] == '<') ++depth;
      if (joined[pos] == '>') {
        --depth;
        if (depth == 0) {
          ++pos;
          break;
        }
      }
      ++pos;
    }
    while (pos < joined.size() &&
           std::isspace(static_cast<unsigned char>(joined[pos]))) {
      ++pos;
    }
    std::string name;
    while (pos < joined.size() && IsIdentChar(joined[pos])) {
      name += joined[pos++];
    }
    if (name.empty()) continue;
    while (pos < joined.size() &&
           std::isspace(static_cast<unsigned char>(joined[pos]))) {
      ++pos;
    }
    // Require a declarator context so casts/returns are not recorded.
    if (pos < joined.size() && (joined[pos] == ';' || joined[pos] == '=' ||
                                joined[pos] == '{' || joined[pos] == ',' ||
                                joined[pos] == '(')) {
      names->insert(name);
    }
  }
}

void CheckUnorderedIteration(const PreparedFile& file,
                             const std::set<std::string>& unordered_names,
                             std::vector<Diagnostic>* out) {
  if (unordered_names.empty()) return;
  for (size_t li = 0; li < file.code.size(); ++li) {
    const std::string& code = file.code[li];
    if (code.find("for") == std::string::npos &&
        code.find(".begin()") == std::string::npos) {
      continue;
    }
    const int line = static_cast<int>(li) + 1;
    for (const std::string& name : unordered_names) {
      bool hit = false;
      // Range-for over the container, possibly via this->.
      std::regex range_for("for\\s*\\([^)]*:\\s*(this->\\s*)?" + name +
                           "\\s*\\)");
      if (std::regex_search(code, range_for)) hit = true;
      // Iterator loop: `for (auto it = name.begin();` — the begin() call
      // alone is not flagged (copy-then-sort is the sanctioned fix).
      std::regex iter_for("for\\s*\\([^;)]*=\\s*(this->\\s*)?" + name +
                          "\\s*\\.\\s*begin\\s*\\(");
      if (!hit && std::regex_search(code, iter_for)) hit = true;
      if (!hit) continue;
      if (file.IsSilenced("ordered", line)) continue;
      Emit(out, file, line, "D2",
           "iteration over unordered container '" + name +
               "' in a file on the message/metrics surface — order can "
               "escape; sort first or annotate '// prisma-lint: ordered - "
               "<why order cannot escape>'");
    }
  }
}

// ------------------------------------------------------------------ rule D3

/// Classes derived (directly) from pool::Process, collected tree-wide.
void CollectProcessClasses(const std::vector<PreparedFile>& files,
                           std::map<std::string, std::string>* classes) {
  static const std::regex kDerived(
      "class\\s+([A-Za-z_][\\w:]*)\\s*(?:final\\s*)?:\\s*public\\s+"
      "((?:[\\w]+::)*)Process\\b");
  for (const PreparedFile& file : files) {
    for (const std::string& line : file.code) {
      std::smatch m;
      if (std::regex_search(line, m, kDerived)) {
        (*classes)[UnqualifiedName(m[1].str())] = file.path;
      }
    }
  }
}

/// Basename without directory or extension ("gdh/ofm_process.cc" ->
/// "ofm_process"), used to pair a class's header with its .cc.
std::string Stem(const std::string& path) {
  size_t slash = path.rfind('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

void CheckCrossProcessPointers(
    const PreparedFile& file,
    const std::map<std::string, std::string>& process_classes,
    std::vector<Diagnostic>* out) {
  for (const auto& [name, home] : process_classes) {
    // A class may mention itself (copy-ctor deletion, self-typed helpers)
    // inside its own header/cc pair.
    if (Stem(home) == Stem(file.path)) continue;
    std::regex ptr_or_ref("\\b" + name + "\\s*[*&]");
    for (size_t li = 0; li < file.code.size(); ++li) {
      if (!std::regex_search(file.code[li], ptr_or_ref)) continue;
      const int line = static_cast<int>(li) + 1;
      if (file.IsSilenced("cross-process", line)) continue;
      Emit(out, file, line, "D3",
           "pointer/reference to process class '" + name + "' (owned by " +
               home +
               ") — POOL-X processes share no memory; exchange state "
               "through Mail");
    }
  }
}

// ------------------------------------------------------------------ rule D4

void CheckVoidDiscards(const PreparedFile& file,
                       std::vector<Diagnostic>* out) {
  static const std::regex kDiscard("^\\s*\\(\\s*void\\s*\\)\\s*[A-Za-z_:(]");
  for (size_t li = 0; li < file.code.size(); ++li) {
    if (!std::regex_search(file.code[li], kDiscard)) continue;
    const int line = static_cast<int>(li) + 1;
    if (file.IsSilenced("unused-status", line)) continue;
    // A trailing comment on the same line counts as the reason.
    if (!file.comment[li].empty()) continue;
    Emit(out, file, line, "D4",
         "result discarded with (void) but no reason — add a trailing "
         "comment or '// prisma-lint: unused-status - <reason>'");
  }
}

// -------------------------------------------------- include closure for D2

/// Which files (by path) transitively include one of the observable-surface
/// headers. Include paths are rooted at src/, so the include string is the
/// file's path key.
std::set<std::string> ComputeObservableFiles(
    const std::vector<PreparedFile>& files) {
  std::map<std::string, const PreparedFile*> by_path;
  for (const PreparedFile& file : files) by_path[file.path] = &file;

  std::map<std::string, bool> memo;
  std::function<bool(const std::string&)> observable =
      [&](const std::string& path) -> bool {
    for (const char* surface : kObservableSurfaces) {
      if (path == surface) return true;
    }
    auto it = by_path.find(path);
    if (it == by_path.end()) return false;
    auto m = memo.find(path);
    if (m != memo.end()) return m->second;
    memo[path] = false;  // Cycle guard.
    for (const std::string& inc : it->second->includes) {
      if (observable(inc)) {
        memo[path] = true;
        return true;
      }
    }
    return false;
  };

  std::set<std::string> result;
  for (const PreparedFile& file : files) {
    if (observable(file.path)) result.insert(file.path);
  }
  return result;
}

/// Minimal JSON string escaping (the diagnostics contain no exotic bytes,
/// but quotes/backslashes from snippets must round-trip).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string Diagnostic::Format() const {
  std::ostringstream os;
  os << path << ":" << line << ": [" << rule << "] " << message;
  return os.str();
}

std::vector<AllowlistEntry> ParseAllowlist(const std::string& content,
                                           std::vector<std::string>* errors) {
  std::vector<AllowlistEntry> entries;
  std::vector<std::string> lines;
  SplitLines(content, &lines);
  for (size_t li = 0; li < lines.size(); ++li) {
    std::string line = Trim(lines[li]);
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields;
    size_t start = 0;
    while (true) {
      size_t bar = line.find('|', start);
      if (bar == std::string::npos) {
        fields.push_back(Trim(line.substr(start)));
        break;
      }
      fields.push_back(Trim(line.substr(start, bar - start)));
      start = bar + 1;
    }
    if (fields.size() != 4 || fields[0].empty() || fields[1].empty() ||
        fields[2].empty() || fields[3].empty()) {
      if (errors != nullptr) {
        errors->push_back(
            "allowlist line " + std::to_string(li + 1) +
            ": expected 'rule | path-suffix | needle | justification'");
      }
      continue;
    }
    AllowlistEntry entry;
    entry.rule = fields[0];
    entry.path_suffix = fields[1];
    entry.needle = fields[2];
    entry.justification = fields[3];
    entry.source_line = static_cast<int>(li) + 1;
    entries.push_back(std::move(entry));
  }
  return entries;
}

std::vector<Diagnostic> AnalyzeSources(const std::vector<SourceFile>& files) {
  std::vector<PreparedFile> prepared;
  prepared.reserve(files.size());
  for (const SourceFile& source : files) prepared.push_back(Prepare(source));

  std::vector<FileStructure> structures;
  structures.reserve(prepared.size());
  for (const PreparedFile& file : prepared) {
    structures.push_back(ExtractStructure(file));
  }

  std::map<std::string, std::string> process_classes;
  CollectProcessClasses(prepared, &process_classes);
  const std::set<std::string> observable = ComputeObservableFiles(prepared);

  // Unordered declarations are shared across a header/cc pair: members
  // declared in ofm_process.h are iterated in ofm_process.cc.
  std::map<std::string, std::set<std::string>> decls_by_stem_dir;
  for (const PreparedFile& file : prepared) {
    std::string key = file.path.substr(0, file.path.rfind('.'));
    CollectUnorderedNames(file, &decls_by_stem_dir[key]);
  }

  std::vector<Diagnostic> diagnostics;
  for (const PreparedFile& file : prepared) {
    CheckNondeterminism(file, &diagnostics);
    if (observable.contains(file.path)) {
      std::string key = file.path.substr(0, file.path.rfind('.'));
      CheckUnorderedIteration(file, decls_by_stem_dir[key], &diagnostics);
    }
    CheckCrossProcessPointers(file, process_classes, &diagnostics);
    CheckVoidDiscards(file, &diagnostics);
  }
  CheckProtocolRules(prepared, structures, &diagnostics);
  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return diagnostics;
}

LintReport ApplyAllowlist(std::vector<Diagnostic> diagnostics,
                          const std::vector<AllowlistEntry>& allowlist) {
  LintReport report;
  std::vector<bool> used(allowlist.size(), false);
  for (Diagnostic& d : diagnostics) {
    for (size_t i = 0; i < allowlist.size(); ++i) {
      const AllowlistEntry& entry = allowlist[i];
      if (entry.rule != d.rule) continue;
      if (!EndsWith(d.path, entry.path_suffix)) continue;
      if (d.snippet.find(entry.needle) == std::string::npos) continue;
      d.allowlisted = true;
      d.justification = entry.justification;
      used[i] = true;
      break;
    }
    if (!d.allowlisted) ++report.violations;
  }
  for (size_t i = 0; i < allowlist.size(); ++i) {
    if (!used[i]) report.unused_allowlist.push_back(allowlist[i]);
  }
  report.diagnostics = std::move(diagnostics);
  return report;
}

std::string ReportToJson(const LintReport& report, size_t file_count) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"files_scanned\": " << file_count << ",\n";
  os << "  \"violations\": " << report.violations << ",\n";
  os << "  \"clean\": " << (report.clean() ? "true" : "false") << ",\n";
  os << "  \"diagnostics\": [";
  for (size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"path\": \"" << JsonEscape(d.path) << "\", \"line\": "
       << d.line << ", \"rule\": \"" << JsonEscape(d.rule)
       << "\", \"allowlisted\": " << (d.allowlisted ? "true" : "false")
       << ", \"message\": \"" << JsonEscape(d.message)
       << "\", \"snippet\": \"" << JsonEscape(d.snippet) << "\"";
    if (d.allowlisted) {
      os << ", \"justification\": \"" << JsonEscape(d.justification) << "\"";
    }
    os << "}";
  }
  os << (report.diagnostics.empty() ? "" : "\n  ") << "],\n";
  os << "  \"unused_allowlist\": [";
  for (size_t i = 0; i < report.unused_allowlist.size(); ++i) {
    const AllowlistEntry& e = report.unused_allowlist[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"rule\": \"" << JsonEscape(e.rule) << "\", \"path_suffix\": \""
       << JsonEscape(e.path_suffix) << "\", \"needle\": \""
       << JsonEscape(e.needle) << "\", \"allowlist_line\": " << e.source_line
       << "}";
  }
  os << (report.unused_allowlist.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
  return os.str();
}

bool LoadTree(const std::string& root, std::vector<SourceFile>* files,
              std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    if (error != nullptr) *error = "not a directory: " + root;
    return false;
  }
  std::vector<fs::path> paths;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp") {
      paths.push_back(it->path());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      if (error != nullptr) *error = "cannot read " + path.string();
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    SourceFile source;
    source.path = fs::relative(path, root).generic_string();
    source.content = buffer.str();
    files->push_back(std::move(source));
  }
  return true;
}

}  // namespace prisma::lint
