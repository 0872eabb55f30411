// detlint — the project's determinism/IO-discipline lint binary.
//
// Scans C++ sources for the project-specific hazard classes the compilers
// cannot see (README "Static analysis & correctness tooling"):
//
//   unordered-iter    iteration over std::unordered_{map,set,...} — their
//                     order is implementation-defined, so any iteration
//                     that feeds output, serialization or accumulation
//                     can break the bit-identical-output contract (the
//                     exact bug class PR 1 fixed by hand in the sampled
//                     recorder).
//   raw-rng           direct rand()/std::random_device/std::mt19937/
//                     time()/system_clock use outside common/rng.{h,cc}
//                     and bench/stopwatch.h — all randomness must come
//                     from the seeded Rng sub-streams, all timing from
//                     the monotonic Stopwatch.
//   raw-file-io       std::ofstream/std::ifstream/fopen/std::filesystem
//                     in src/ outside io/file_env.{h,cc} — I/O that
//                     bypasses the FileEnv seam is invisible to the
//                     fault-injection harness (PR 8). Inactive under
//                     tests/ (test fixtures may write temp files).
//   discarded-status  a statement that is exactly a call to a function
//                     declared to return Status/Result and drops the
//                     value — the static net behind [[nodiscard]] for
//                     files built without warnings.
//   bad-allow         a detlint:allow pragma with a missing/empty
//                     justification or an unknown rule id.
//
// Allowlist pragma: an intentional site stays documented with
//
//   // detlint:allow(<rule-id>): <required justification text>
//
// on the same line as the finding, or alone on the immediately preceding
// line. A pragma without justification is itself a finding and does not
// suppress anything.
//
// Analysis model: line- and statement-level scanning over comment-,
// string- and preprocessor-stripped text. Deliberate non-goals (misses
// are documented, not bugs): no type inference across translation units
// (unordered-iter resolves names per file plus the same-stem header),
// and single-statement bodies of if/for (e.g. `if (x) Save();`) are not
// matched by discarded-status — the compiler's [[nodiscard]] warning
// covers those.
//
// Usage: detlint [--list-rules] <file-or-directory>...
// Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.
//
// Directories are scanned recursively for .h/.hpp/.cc/.cpp files,
// skipping hidden directories, build* trees and detlint_fixtures (the
// seeded-violation corpus must not fail the repo-wide run; point detlint
// at a fixture file explicitly to scan it). Output lines are
// `path:line: [rule] message`, sorted by (path, line, rule) — detlint's
// own output is deterministic, of course.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

constexpr const char* kRuleUnorderedIter = "unordered-iter";
constexpr const char* kRuleRawRng = "raw-rng";
constexpr const char* kRuleRawFileIo = "raw-file-io";
constexpr const char* kRuleDiscardedStatus = "discarded-status";
constexpr const char* kRuleBadAllow = "bad-allow";

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = {
      kRuleUnorderedIter, kRuleRawRng, kRuleRawFileIo, kRuleDiscardedStatus,
      kRuleBadAllow};
  return kRules;
}

struct Finding {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;

  bool operator<(const Finding& other) const {
    if (file != other.file) return file < other.file;
    if (line != other.line) return line < other.line;
    return rule < other.rule;
  }
};

enum class Scope { kSrc, kTests };

struct SourceFile {
  std::string path;       // as reported in findings
  std::string basename;   // for built-in seam exemptions
  std::string stem_key;   // parent-dir + stem, pairs foo.cc with foo.h
  Scope scope = Scope::kSrc;
  std::string code;                   // stripped text, newlines preserved
  std::vector<std::string> comments;  // per-line comment text
  std::vector<std::string> code_lines;
  // allow[line] = rules allowlisted for findings on that 1-based line.
  std::map<int, std::set<std::string>> allow;
  std::set<std::string> unordered_names;
};

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// ---------------------------------------------------------------------
// Stripping: replaces comments, string/char literals and preprocessor
// directives with spaces (newlines kept, so offsets map to lines), and
// collects per-line comment text for pragma parsing.

struct Stripped {
  std::string code;
  std::vector<std::string> comments;
};

Stripped StripSource(const std::string& text) {
  Stripped out;
  out.code = text;
  size_t line_count = 1 + static_cast<size_t>(std::count(
                              text.begin(), text.end(), '\n'));
  out.comments.assign(line_count, "");

  size_t i = 0;
  int line = 0;
  bool at_line_start = true;  // only whitespace seen on this line so far
  auto blank = [&](size_t pos) {
    if (out.code[pos] != '\n') out.code[pos] = ' ';
  };
  while (i < text.size()) {
    char c = text[i];
    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (at_line_start && c == '#') {
      // Preprocessor directive: blank to end of line, honoring trailing
      // backslash continuations. Pragmas on directive lines are not
      // supported.
      while (i < text.size()) {
        if (text[i] == '\n') {
          // Continuation if the last non-ws char before \n is a backslash.
          size_t j = i;
          while (j > 0 && (text[j - 1] == ' ' || text[j - 1] == '\t' ||
                           text[j - 1] == '\r')) {
            --j;
          }
          if (j > 0 && text[j - 1] == '\\') {
            ++line;
            ++i;
            continue;
          }
          break;
        }
        blank(i);
        ++i;
      }
      continue;
    }
    if (!std::isspace(static_cast<unsigned char>(c))) at_line_start = false;
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      // Line comment: blank to end of line, honoring backslash line
      // splices — phase-2 splicing joins a physical line ending in '\'
      // to the next, so the comment swallows that line too.
      size_t seg = i + 2;
      while (i < text.size()) {
        if (text[i] == '\n') {
          size_t j = i;
          while (j > 0 && (text[j - 1] == ' ' || text[j - 1] == '\t' ||
                           text[j - 1] == '\r')) {
            --j;
          }
          if (j > 0 && text[j - 1] == '\\') {
            out.comments[line] += text.substr(seg, i - seg);
            ++line;
            ++i;
            seg = i;
            continue;
          }
          break;
        }
        blank(i);
        ++i;
      }
      out.comments[line] += text.substr(seg, i - seg);
      continue;
    }
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
      size_t k = i + 2;
      size_t seg_start = k;
      while (k + 1 < text.size() &&
             !(text[k] == '*' && text[k + 1] == '/')) {
        if (text[k] == '\n') {
          out.comments[line] += text.substr(seg_start, k - seg_start);
          ++line;
          seg_start = k + 1;
        }
        ++k;
      }
      size_t close = (k + 1 < text.size()) ? k + 2 : text.size();
      out.comments[line] += text.substr(
          seg_start, std::min(k, text.size()) - seg_start);
      // `line` already advanced at each newline above; blank() keeps
      // the newline characters in place.
      for (size_t p = i; p < close; ++p) blank(p);
      i = close;
      continue;
    }
    if (c == '"') {
      // Raw literal: R"..." with an optional encoding prefix (u8R, uR,
      // UR, LR), provided the prefix is not the tail of an identifier.
      bool raw = false;
      if (i > 0 && text[i - 1] == 'R') {
        size_t start = i - 1;  // first char of the literal prefix
        if (start >= 2 && text[start - 1] == '8' && text[start - 2] == 'u') {
          start -= 2;
        } else if (start >= 1 &&
                   (text[start - 1] == 'u' || text[start - 1] == 'U' ||
                    text[start - 1] == 'L')) {
          start -= 1;
        }
        raw = start == 0 || !IsIdentChar(text[start - 1]);
      }
      if (raw) {
        // R"delim( ... )delim"
        size_t open = text.find('(', i + 1);
        if (open == std::string::npos) {
          ++i;
          continue;
        }
        std::string delim = text.substr(i + 1, open - i - 1);
        std::string closer = ")" + delim + "\"";
        size_t end = text.find(closer, open + 1);
        size_t stop =
            end == std::string::npos ? text.size() : end + closer.size();
        for (size_t p = i; p < stop; ++p) {
          if (text[p] == '\n') ++line;
          blank(p);
        }
        i = stop;
        continue;
      }
      size_t k = i + 1;
      while (k < text.size() && text[k] != '"' && text[k] != '\n') {
        if (text[k] == '\\') ++k;
        ++k;
      }
      size_t stop = (k < text.size() && text[k] == '"') ? k + 1 : k;
      for (size_t p = i; p < stop; ++p) blank(p);
      i = stop;
      continue;
    }
    if (c == '\'') {
      // Guard against digit separators (1'000'000) and literal suffixes:
      // only treat as a char literal when not preceded by an ident char.
      if (i > 0 && IsIdentChar(text[i - 1])) {
        ++i;
        continue;
      }
      size_t k = i + 1;
      while (k < text.size() && text[k] != '\'' && text[k] != '\n') {
        if (text[k] == '\\') ++k;
        ++k;
      }
      size_t stop = (k < text.size() && text[k] == '\'') ? k + 1 : k;
      for (size_t p = i; p < stop; ++p) blank(p);
      i = stop;
      continue;
    }
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------
// Token helpers over stripped code.

bool TokenAt(const std::string& code, size_t pos, const std::string& token) {
  if (code.compare(pos, token.size(), token) != 0) return false;
  if (pos > 0 && IsIdentChar(code[pos - 1])) return false;
  size_t end = pos + token.size();
  return end >= code.size() || !IsIdentChar(code[end]);
}

int LineOf(const std::string& code, size_t pos) {
  return 1 + static_cast<int>(std::count(code.begin(), code.begin() + pos,
                                         '\n'));
}

size_t SkipWs(const std::string& s, size_t pos) {
  while (pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[pos]))) {
    ++pos;
  }
  return pos;
}

// Skips a balanced <...> starting at `pos` (which must point at '<').
// Returns the index one past the matching '>', or npos.
size_t SkipAngles(const std::string& s, size_t pos) {
  int depth = 0;
  for (size_t i = pos; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    if (s[i] == '>') {
      --depth;
      if (depth == 0) return i + 1;
    }
    if (s[i] == ';') return std::string::npos;  // not a template arg list
  }
  return std::string::npos;
}

std::string ReadIdent(const std::string& s, size_t pos, size_t* end) {
  if (pos >= s.size() || !IsIdentStart(s[pos])) return "";
  size_t e = pos;
  while (e < s.size() && IsIdentChar(s[e])) ++e;
  *end = e;
  return s.substr(pos, e - pos);
}

// ---------------------------------------------------------------------
// Pragma parsing.

void ParsePragmas(SourceFile* file, std::vector<Finding>* findings) {
  for (size_t ln = 0; ln < file->comments.size(); ++ln) {
    const std::string& comment = file->comments[ln];
    size_t pos = 0;
    const int line = static_cast<int>(ln) + 1;
    while ((pos = comment.find("detlint:allow(", pos)) !=
           std::string::npos) {
      size_t open = pos + std::string("detlint:allow(").size();
      size_t close = comment.find(')', open);
      if (close == std::string::npos) {
        findings->push_back({file->path, line, kRuleBadAllow,
                             "malformed detlint:allow pragma (missing ')')"});
        break;
      }
      std::string rule = Trim(comment.substr(open, close - open));
      std::string rest = comment.substr(close + 1);
      // Justification: text after the ')' , allowing a ':' or '-' lead-in.
      size_t j = rest.find_first_not_of(" \t:-");
      std::string justification =
          j == std::string::npos ? "" : Trim(rest.substr(j));
      if (KnownRules().count(rule) == 0) {
        findings->push_back({file->path, line, kRuleBadAllow,
                             "detlint:allow names unknown rule '" + rule +
                                 "'"});
      } else if (justification.empty()) {
        findings->push_back(
            {file->path, line, kRuleBadAllow,
             "detlint:allow(" + rule +
                 ") requires a justification after the ')'"});
      } else {
        file->allow[line].insert(rule);
      }
      pos = close;
    }
  }
}

bool IsAllowed(const SourceFile& file, int line, const std::string& rule) {
  auto it = file.allow.find(line);
  if (it != file.allow.end() && it->second.count(rule)) return true;
  // A pragma in the comment block directly above covers the next code
  // line: walk up through blank and comment-only lines (so a multi-line
  // justification stays one pragma).
  for (int k = line - 1; k >= 1; --k) {
    const std::string& code = file.code_lines[static_cast<size_t>(k - 1)];
    if (!Trim(code).empty()) break;
    it = file.allow.find(k);
    if (it != file.allow.end() && it->second.count(rule)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Rule: unordered-iter.

void CollectUnorderedNames(SourceFile* file) {
  static const char* kContainers[] = {"unordered_map", "unordered_set",
                                      "unordered_multimap",
                                      "unordered_multiset"};
  const std::string& code = file->code;
  for (const char* container : kContainers) {
    size_t pos = 0;
    const std::string tok(container);
    while ((pos = code.find(tok, pos)) != std::string::npos) {
      if (!TokenAt(code, pos, tok)) {
        pos += tok.size();
        continue;
      }
      size_t p = SkipWs(code, pos + tok.size());
      if (p >= code.size() || code[p] != '<') {
        pos += tok.size();
        continue;
      }
      size_t after = SkipAngles(code, p);
      if (after == std::string::npos) {
        pos += tok.size();
        continue;
      }
      p = SkipWs(code, after);
      while (p < code.size() && (code[p] == '&' || code[p] == '*')) {
        p = SkipWs(code, p + 1);
      }
      size_t end = 0;
      std::string name = ReadIdent(code, p, &end);
      if (!name.empty()) {
        // `unordered_map<...> Fn(` declares a function returning the
        // container, not a variable.
        size_t q = SkipWs(code, end);
        if (q >= code.size() || code[q] != '(') {
          file->unordered_names.insert(name);
        }
      }
      pos = after;
    }
  }
}

// Trailing identifier of an expression like `foo.bar_`, `p->items()`,
// `ns::table`. Empty if the expression ends in something else.
std::string TrailingIdent(const std::string& expr) {
  std::string t = Trim(expr);
  if (t.empty() || !IsIdentChar(t.back())) return "";
  size_t b = t.size();
  while (b > 0 && IsIdentChar(t[b - 1])) --b;
  return t.substr(b);
}

void CheckUnorderedIter(const SourceFile& file,
                        const std::set<std::string>& names,
                        std::vector<Finding>* findings) {
  if (names.empty()) return;
  const std::string& code = file.code;
  auto report = [&](size_t pos, const std::string& name) {
    findings->push_back(
        {file.path, LineOf(code, pos), kRuleUnorderedIter,
         "iterating unordered container '" + name +
             "': order is implementation-defined and breaks bit-identical "
             "output; iterate a sorted copy or an order-preserving index"});
  };
  // Range-for over a collected name.
  size_t pos = 0;
  while ((pos = code.find("for", pos)) != std::string::npos) {
    if (!TokenAt(code, pos, "for")) {
      pos += 3;
      continue;
    }
    size_t open = SkipWs(code, pos + 3);
    if (open >= code.size() || code[open] != '(') {
      pos += 3;
      continue;
    }
    // Find the range-for ':' at paren depth 1 (':' not part of '::').
    int depth = 0;
    size_t colon = std::string::npos, close = std::string::npos;
    for (size_t i = open; i < code.size(); ++i) {
      char c = code[i];
      if (c == '(') ++depth;
      if (c == ')') {
        --depth;
        if (depth == 0) {
          close = i;
          break;
        }
      }
      if (c == ';') break;  // classic for loop
      if (c == ':' && depth == 1) {
        bool dbl = (i + 1 < code.size() && code[i + 1] == ':') ||
                   (i > 0 && code[i - 1] == ':');
        if (!dbl && colon == std::string::npos) colon = i;
      }
    }
    if (colon != std::string::npos && close != std::string::npos) {
      std::string range = code.substr(colon + 1, close - colon - 1);
      std::string name = TrailingIdent(range);
      if (!name.empty() && names.count(name)) report(pos, name);
    }
    pos += 3;
  }
  // Explicit iterator harvesting: name.begin()/cbegin()/rbegin().
  for (const std::string& name : names) {
    size_t p = 0;
    while ((p = code.find(name, p)) != std::string::npos) {
      if (!TokenAt(code, p, name)) {
        p += name.size();
        continue;
      }
      size_t q = SkipWs(code, p + name.size());
      if (q < code.size() && code[q] == '.') {
        size_t end = 0;
        std::string member = ReadIdent(code, SkipWs(code, q + 1), &end);
        if (member == "begin" || member == "cbegin" || member == "rbegin" ||
            member == "crbegin") {
          report(p, name);
        }
      }
      p += name.size();
    }
  }
}

// ---------------------------------------------------------------------
// Rule: raw-rng and raw-file-io (token scans).

struct TokenRule {
  const char* token;
  bool call_like;  // require a following '(' and a non-member context
  const char* what;
};

void CheckTokens(const SourceFile& file, const char* rule,
                 const std::vector<TokenRule>& tokens,
                 const std::string& remedy,
                 std::vector<Finding>* findings) {
  const std::string& code = file.code;
  for (const TokenRule& t : tokens) {
    const std::string tok(t.token);
    size_t pos = 0;
    while ((pos = code.find(tok, pos)) != std::string::npos) {
      if (!TokenAt(code, pos, tok)) {
        pos += tok.size();
        continue;
      }
      // Member accesses (`x.time(...)`, `d->rand(...)`) are not the
      // global facilities these rules police.
      bool member = false;
      if (pos > 0) {
        size_t b = pos;
        while (b > 0 && std::isspace(static_cast<unsigned char>(
                            code[b - 1]))) {
          --b;
        }
        if (b > 0 && code[b - 1] == '.') member = true;
        if (b > 1 && code[b - 2] == '-' && code[b - 1] == '>') member = true;
      }
      if (member) {
        pos += tok.size();
        continue;
      }
      if (t.call_like) {
        size_t q = SkipWs(code, pos + tok.size());
        if (q >= code.size() || code[q] != '(') {
          pos += tok.size();
          continue;
        }
      }
      findings->push_back({file.path, LineOf(code, pos), rule,
                           std::string(t.what) + "; " + remedy});
      pos += tok.size();
    }
  }
}

void CheckRawRng(const SourceFile& file, std::vector<Finding>* findings) {
  if (file.basename == "rng.h" || file.basename == "rng.cc" ||
      file.basename == "stopwatch.h") {
    return;
  }
  static const std::vector<TokenRule> kTokens = {
      {"rand", true, "rand() is unseeded global state"},
      {"srand", true, "srand() mutates unseeded global state"},
      {"random_device", false, "std::random_device is non-deterministic"},
      {"mt19937", false, "raw std::mt19937 bypasses the Rng sub-streams"},
      {"mt19937_64", false, "raw std::mt19937_64 bypasses the Rng sub-streams"},
      {"default_random_engine", false,
       "std::default_random_engine is implementation-defined"},
      {"system_clock", false, "wall-clock time is non-deterministic"},
      {"high_resolution_clock", false,
       "high_resolution_clock is an unspecified alias; use Stopwatch"},
      {"time", true, "time() reads the wall clock"},
      {"clock", true, "clock() reads process time"},
      {"localtime", true, "localtime() reads the wall clock"},
      {"gmtime", true, "gmtime() reads the wall clock"},
  };
  CheckTokens(file, kRuleRawRng, kTokens,
              "derive randomness from common/rng.h sub-streams and timing "
              "from bench/stopwatch.h",
              findings);
}

void CheckRawFileIo(const SourceFile& file,
                    std::vector<Finding>* findings) {
  if (file.scope != Scope::kSrc) return;
  if (file.basename == "file_env.h" || file.basename == "file_env.cc") {
    return;
  }
  static const std::vector<TokenRule> kTokens = {
      {"ofstream", false, "std::ofstream bypasses the FileEnv seam"},
      {"ifstream", false, "std::ifstream bypasses the FileEnv seam"},
      {"fstream", false, "std::fstream bypasses the FileEnv seam"},
      {"fopen", true, "fopen() bypasses the FileEnv seam"},
      {"freopen", true, "freopen() bypasses the FileEnv seam"},
      {"filesystem", false,
       "direct std::filesystem calls bypass the FileEnv seam"},
  };
  CheckTokens(file, kRuleRawFileIo, kTokens,
              "route file I/O through io/file_env.h so fault injection "
              "(PR 8) sees it",
              findings);
}

// ---------------------------------------------------------------------
// Rule: discarded-status.

// Collects names declared with return type Status/Result<...> into
// `names`, and names with a void-returning declaration into `void_names`.
// A name appearing in both sets has conflicting overloads (e.g. the
// BinaryWriter/BinaryReader U32 pair: `void U32(uint32_t)` vs
// `Status U32(uint32_t*)`) that name-level matching cannot separate, so
// the caller drops it — the compiler's [[nodiscard]] still covers those
// sites.
void CollectStatusFunctions(const SourceFile& file,
                            std::set<std::string>* names,
                            std::set<std::string>* void_names) {
  const std::string& code = file.code;
  {
    const std::string tok("void");
    size_t pos = 0;
    while ((pos = code.find(tok, pos)) != std::string::npos) {
      if (!TokenAt(code, pos, tok)) {
        pos += tok.size();
        continue;
      }
      size_t p = SkipWs(code, pos + tok.size());
      size_t end = 0;
      std::string name = ReadIdent(code, p, &end);
      if (!name.empty()) {
        size_t q = SkipWs(code, end);
        // Qualified definitions: void Class::Method(...).
        while (q + 1 < code.size() && code[q] == ':' && code[q + 1] == ':') {
          std::string next = ReadIdent(code, SkipWs(code, q + 2), &end);
          if (next.empty()) break;
          name = next;
          q = SkipWs(code, end);
        }
        if (q < code.size() && code[q] == '(') void_names->insert(name);
      }
      pos += tok.size();
    }
  }
  for (const char* ret : {"Status", "Result"}) {
    const std::string tok(ret);
    size_t pos = 0;
    while ((pos = code.find(tok, pos)) != std::string::npos) {
      if (!TokenAt(code, pos, tok)) {
        pos += tok.size();
        continue;
      }
      size_t p = pos + tok.size();
      if (tok == "Result") {
        p = SkipWs(code, p);
        if (p >= code.size() || code[p] != '<') {
          pos += tok.size();
          continue;
        }
        p = SkipAngles(code, p);
        if (p == std::string::npos) {
          pos += tok.size();
          continue;
        }
      }
      p = SkipWs(code, p);
      // Reference/pointer returns are observed via the referent; only
      // by-value returns are discard hazards.
      if (p < code.size() && (code[p] == '&' || code[p] == '*')) {
        pos += tok.size();
        continue;
      }
      size_t end = 0;
      std::string name = ReadIdent(code, p, &end);
      if (name.empty()) {
        pos += tok.size();
        continue;
      }
      // Qualified definitions: Status Class::Method(...) — keep the last
      // component.
      size_t q = end;
      while (true) {
        size_t r = SkipWs(code, q);
        if (r + 1 < code.size() && code[r] == ':' && code[r + 1] == ':') {
          std::string next = ReadIdent(code, SkipWs(code, r + 2), &q);
          if (next.empty()) break;
          name = next;
        } else {
          q = r;
          break;
        }
      }
      if (q < code.size() && code[q] == '(') names->insert(name);
      pos += tok.size();
    }
  }
}

// True if `stmt` is exactly a (possibly qualified) call expression:
// `a.b->C::Name( ... )`. Writes the final callee name.
bool MatchWholeCall(const std::string& stmt, std::string* callee) {
  size_t pos = SkipWs(stmt, 0);
  std::string last;
  while (true) {
    size_t end = 0;
    std::string ident = ReadIdent(stmt, pos, &end);
    if (ident.empty()) return false;
    last = ident;
    pos = SkipWs(stmt, end);
    if (pos + 1 < stmt.size() && stmt[pos] == ':' && stmt[pos + 1] == ':') {
      pos = SkipWs(stmt, pos + 2);
      continue;
    }
    if (pos < stmt.size() && stmt[pos] == '.') {
      pos = SkipWs(stmt, pos + 1);
      continue;
    }
    if (pos + 1 < stmt.size() && stmt[pos] == '-' && stmt[pos + 1] == '>') {
      pos = SkipWs(stmt, pos + 2);
      continue;
    }
    if (pos < stmt.size() && stmt[pos] == '(') {
      int depth = 0;
      for (size_t i = pos; i < stmt.size(); ++i) {
        if (stmt[i] == '(') ++depth;
        if (stmt[i] == ')') {
          --depth;
          if (depth == 0) {
            if (SkipWs(stmt, i + 1) != stmt.size()) return false;
            *callee = last;
            return true;
          }
        }
      }
      return false;
    }
    return false;
  }
}

void CheckDiscardedStatus(const SourceFile& file,
                          const std::set<std::string>& status_fns,
                          std::vector<Finding>* findings) {
  if (status_fns.empty()) return;
  const std::string& code = file.code;
  size_t stmt_start = 0;
  int depth = 0;
  for (size_t i = 0; i < code.size(); ++i) {
    char c = code[i];
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == '{' || c == '}' || (c == ';' && depth == 0)) {
      if (c == ';') {
        std::string stmt = code.substr(stmt_start, i - stmt_start);
        std::string callee;
        if (MatchWholeCall(stmt, &callee) && status_fns.count(callee)) {
          // Report at the first non-ws char of the statement.
          size_t nws = code.find_first_not_of(" \t\r\n", stmt_start);
          size_t first = nws == std::string::npos ? stmt_start : nws;
          findings->push_back(
              {file.path, LineOf(code, first), kRuleDiscardedStatus,
               "result of '" + callee +
                   "' (returns Status/Result) is discarded; handle it or "
                   "write `(void)" +
                   callee + "(...);` with a comment saying why"});
        }
      }
      stmt_start = i + 1;
      if (c != ';') depth = 0;
    }
  }
}

// ---------------------------------------------------------------------
// File loading and directory walking.

bool HasSourceExtension(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

Scope ClassifyScope(const std::string& generic_path) {
  // Last marker wins, so tests/detlint_fixtures/src/x.cc scopes as src.
  auto last_of = [&](const std::string& marker) -> long {
    size_t p = generic_path.rfind("/" + marker + "/");
    if (p != std::string::npos) return static_cast<long>(p);
    if (generic_path.rfind(marker + "/", 0) == 0) return 0;
    return -1;
  };
  return last_of("tests") > last_of("src") ? Scope::kTests : Scope::kSrc;
}

bool LoadFile(const fs::path& path, SourceFile* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();

  out->path = path.generic_string();
  out->basename = path.filename().string();
  out->stem_key = (path.parent_path() / path.stem()).generic_string();
  out->scope = ClassifyScope(out->path);
  Stripped stripped = StripSource(text);
  out->code = std::move(stripped.code);
  out->comments = std::move(stripped.comments);
  out->code_lines.clear();
  std::istringstream lines(out->code);
  for (std::string line; std::getline(lines, line);) {
    out->code_lines.push_back(line);
  }
  out->code_lines.resize(out->comments.size());
  return true;
}

void CollectFiles(const fs::path& root, std::vector<fs::path>* files,
                  bool explicit_root) {
  std::error_code ec;
  if (fs::is_regular_file(root, ec)) {
    files->push_back(root);
    return;
  }
  if (!fs::is_directory(root, ec)) return;
  std::vector<fs::path> entries;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    entries.push_back(entry.path());
  }
  std::sort(entries.begin(), entries.end());
  for (const fs::path& p : entries) {
    std::string name = p.filename().string();
    if (fs::is_directory(p, ec)) {
      if (!name.empty() && name[0] == '.') continue;
      if (name.rfind("build", 0) == 0) continue;
      if (name == "detlint_fixtures" || name == "third_party") continue;
      CollectFiles(p, files, /*explicit_root=*/false);
    } else if (HasSourceExtension(p)) {
      files->push_back(p);
    }
  }
  (void)explicit_root;  // reserved: explicit roots are always scanned
}

void PrintRules() {
  std::printf("%-18s iteration over std::unordered_* containers\n",
              kRuleUnorderedIter);
  std::printf("%-18s rand()/random_device/mt19937/time()/system_clock "
              "outside common/rng, bench/stopwatch\n",
              kRuleRawRng);
  std::printf("%-18s ofstream/ifstream/fopen/std::filesystem in src/ "
              "outside io/file_env\n",
              kRuleRawFileIo);
  std::printf("%-18s bare statement discarding a Status/Result return\n",
              kRuleDiscardedStatus);
  std::printf("%-18s detlint:allow pragma without justification or with "
              "unknown rule id\n",
              kRuleBadAllow);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list-rules") {
      PrintRules();
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf("usage: detlint [--list-rules] <file-or-dir>...\n");
      return 0;
    }
    roots.emplace_back(arg);
  }
  if (roots.empty()) {
    std::fprintf(stderr, "usage: detlint [--list-rules] <file-or-dir>...\n");
    return 2;
  }

  std::vector<fs::path> paths;
  for (const fs::path& root : roots) {
    std::error_code ec;
    if (!fs::exists(root, ec)) {
      std::fprintf(stderr, "detlint: no such path: %s\n",
                   root.string().c_str());
      return 2;
    }
    CollectFiles(root, &paths, /*explicit_root=*/true);
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<SourceFile> files(paths.size());
  std::vector<Finding> findings;
  std::set<std::string> status_fns;
  std::set<std::string> void_fns;
  std::map<std::string, std::set<std::string>> names_by_stem;
  for (size_t i = 0; i < paths.size(); ++i) {
    if (!LoadFile(paths[i], &files[i])) {
      std::fprintf(stderr, "detlint: cannot read %s\n",
                   paths[i].string().c_str());
      return 2;
    }
    ParsePragmas(&files[i], &findings);
    CollectUnorderedNames(&files[i]);
    CollectStatusFunctions(files[i], &status_fns, &void_fns);
    names_by_stem[files[i].stem_key].insert(
        files[i].unordered_names.begin(), files[i].unordered_names.end());
  }
  // Drop names with conflicting (void) overloads — see
  // CollectStatusFunctions.
  for (const std::string& name : void_fns) status_fns.erase(name);

  for (const SourceFile& file : files) {
    // A .cc sees the unordered members its same-stem header declares.
    std::set<std::string> names = names_by_stem[file.stem_key];
    CheckUnorderedIter(file, names, &findings);
    CheckRawRng(file, &findings);
    CheckRawFileIo(file, &findings);
    CheckDiscardedStatus(file, status_fns, &findings);
  }

  std::vector<Finding> kept;
  for (const Finding& f : findings) {
    const SourceFile* file = nullptr;
    for (const SourceFile& s : files) {
      if (s.path == f.file) {
        file = &s;
        break;
      }
    }
    // bad-allow findings are never allowlistable.
    if (f.rule != kRuleBadAllow && file != nullptr &&
        IsAllowed(*file, f.line, f.rule)) {
      continue;
    }
    kept.push_back(f);
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Finding& a, const Finding& b) {
                           return a.file == b.file && a.line == b.line &&
                                  a.rule == b.rule && a.message == b.message;
                         }),
             kept.end());

  for (const Finding& f : kept) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  std::printf("detlint: %zu finding(s) in %zu file(s) scanned.\n",
              kept.size(), files.size());
  return kept.empty() ? 0 : 1;
}
