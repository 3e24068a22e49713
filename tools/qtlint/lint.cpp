#include "qtlint/lint.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>

#include "common/json_writer.h"
#include "common/table_printer.h"

namespace qta::lint {
namespace {

struct RuleInfo {
  RuleId id;
  std::string_view name;
  std::string_view scope;
  std::string_view rationale;
};

constexpr std::array<RuleInfo, 10> kRules{{
    {RuleId::kDatapathPurity, "datapath-purity",
     "src/hw, src/fixed, qtaccel pipeline files",
     "paper's fixed-point 4-DSP datapath: no float/double/libm"},
    {RuleId::kDeterminism, "determinism", "src/** except src/rng",
     "cycle-accuracy needs reproducible runs: no ambient entropy"},
    {RuleId::kPragmaOnce, "pragma-once", "all headers",
     "ODR hygiene: every header carries #pragma once"},
    {RuleId::kNoUsingNamespace, "no-using-namespace", "all headers",
     "headers must not inject namespaces into includers"},
    {RuleId::kNoIostream, "no-iostream", "src/hw, src/fixed",
     "hot-path cycle loop stays free of stream formatting"},
    {RuleId::kNoBareAssert, "no-bare-assert", "src/**",
     "QTA_CHECK aborts in release too; assert() vanishes under NDEBUG"},
    {RuleId::kTelemetryBoundary, "telemetry-boundary",
     "src/hw, src/fixed, qtaccel pipeline files",
     "datapath observes only via telemetry/sink.h; no registry/trace"},
    {RuleId::kLayering, "layering", "src/**, tools, examples, bench",
     "one include-graph DAG: modules see only declared deps; no cycles"},
    {RuleId::kMutexAnnotation, "mutex-annotation", "src/**",
     "every mutex/cv member is annotated so clang -Wthread-safety sees it"},
    {RuleId::kUnknownAllow, "unknown-allow", "qtlint annotations",
     "allow() must name a real rule"},
}};

const RuleInfo& info(RuleId id) {
  for (const auto& r : kRules) {
    if (r.id == id) return r;
  }
  return kRules[0];
}

bool rule_from_name(std::string_view name, RuleId* out) {
  for (const auto& r : kRules) {
    if (r.name == name) {
      *out = r.id;
      return true;
    }
  }
  return false;
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}
bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view basename_of(std::string_view path) {
  const auto pos = path.find_last_of('/');
  return pos == std::string_view::npos ? path : path.substr(pos + 1);
}

// Type names and libm calls banned from the synthesizable datapath model.
// float/double are banned as bare identifiers; the call set is matched
// only when followed by '(' so member names like eval_double stay legal.
constexpr std::array<std::string_view, 2> kFloatTypes{"float", "double"};
constexpr std::array<std::string_view, 34> kLibmCalls{
    "pow",   "powf",  "exp",    "expf",   "exp2",      "log",    "logf",
    "log10", "log2",  "log2f",  "sqrt",   "sqrtf",     "cbrt",   "sin",
    "cos",   "tan",   "asin",   "acos",   "atan",      "atan2",  "sinh",
    "cosh",  "tanh",  "erf",    "erfc",   "tgamma",    "lgamma", "hypot",
    "fma",   "floor", "ceil",   "round",  "lround",    "llround"};

// Entropy / wall-clock identifiers banned outside src/rng. The first set
// is banned wherever the identifier appears; the second only as a call.
constexpr std::array<std::string_view, 10> kEntropyTypes{
    "random_device", "mt19937",   "mt19937_64",     "minstd_rand",
    "minstd_rand0",  "ranlux24",  "ranlux48",       "knuth_b",
    "default_random_engine",      "system_clock"};
constexpr std::array<std::string_view, 7> kEntropyCalls{
    "rand", "srand", "rand_r", "drand48", "random", "time", "clock"};

constexpr std::array<std::string_view, 4> kStreamIdents{"cout", "cerr",
                                                        "clog", "printf"};

// Host-side telemetry machinery the datapath must never name directly —
// cycle/step events leave the datapath only through the TelemetrySink
// interface in telemetry/sink.h (the one header datapath may include).
constexpr std::string_view kTelemetrySinkHeader = "telemetry/sink.h";
constexpr std::array<std::string_view, 6> kTelemetryHostIdents{
    "MetricsRegistry", "TraceSession", "PipelineTelemetry",
    "PoolTraceObserver", "FlightRecorder", "ServeEvent"};

// qtaccel files that model pipeline hardware (as opposed to host-side
// config/readback helpers such as config.cpp, table_io.cpp, resources.cpp).
constexpr std::array<std::string_view, 6> kPipelineFileStems{
    "pipeline",  "boltzmann_pipeline", "forwarding", "qmax_unit",
    "action_units", "lane_engine"};

// --- the layering DAG (docs/static_analysis.md renders this table) ---
//
// One row per src/ module: the module name and the space-separated set
// of modules its files may #include (itself is always allowed). The
// table IS the architecture: runtime/ is visible only to runtime,
// driver, serve and shard; serve/ only to itself and shard; shard/ to
// nothing below it (tools, examples and bench sit above the seam and
// may include anything except the restricted backend headers below).
// Extending the architecture = editing this table, not writing a new
// scanner.
struct LayerSpec {
  std::string_view module;
  std::string_view deps;
};

constexpr std::array<LayerSpec, 15> kLayerSpecs{{
    {"common", ""},
    {"fixed", "common"},
    {"rng", "common fixed"},
    {"hw", "common fixed"},
    {"telemetry", "common"},
    {"env", "common fixed rng"},
    {"policy", "common fixed rng"},
    {"device", "common fixed hw"},
    {"algo", "common fixed rng env policy"},
    {"baseline", "common fixed rng hw env policy device"},
    {"qtaccel", "common fixed rng hw env policy device telemetry"},
    {"runtime",
     "common fixed rng hw env policy device telemetry qtaccel"},
    {"driver",
     "common fixed rng hw env policy device telemetry qtaccel runtime "
     "algo baseline"},
    {"serve",
     "common fixed rng hw env policy device telemetry qtaccel runtime"},
    {"shard",
     "common fixed rng hw env policy device telemetry qtaccel runtime "
     "serve"},
}};

// Concrete backend headers: constructible only from src/runtime (the
// Engine that owns them) and src/qtaccel (the backends' own module).
// Everything else — including tools/examples/bench above the seam —
// programs against the Engine facade.
constexpr std::array<std::string_view, 2> kRestrictedBackendHeaders{
    "qtaccel/pipeline.h", "qtaccel/lane_engine.h"};

bool is_src_module(std::string_view module) {
  for (const auto& row : kLayerSpecs) {
    if (row.module == module) return true;
  }
  return false;
}

// Whether src module `from` may include headers of src module `to`,
// per the kLayerSpecs row (self-includes always allowed).
bool layer_allows(std::string_view from, std::string_view to) {
  if (from == to) return true;
  for (const auto& row : kLayerSpecs) {
    if (row.module != from) continue;
    std::size_t pos = 0;
    const std::string_view deps = row.deps;
    while (pos < deps.size()) {
      while (pos < deps.size() && deps[pos] == ' ') ++pos;
      std::size_t start = pos;
      while (pos < deps.size() && deps[pos] != ' ') ++pos;
      if (pos > start && deps.substr(start, pos - start) == to) return true;
    }
    return false;
  }
  return false;  // unknown module: nothing declared, nothing allowed
}

// The src module an include target addresses ("runtime/engine.h" ->
// "runtime"), or "" when the target is not a src-module header (std
// headers, tools-local includes, ...).
std::string_view target_module(std::string_view target) {
  const auto slash = target.find('/');
  if (slash == std::string_view::npos) return "";
  const std::string_view head = target.substr(0, slash);
  return is_src_module(head) ? head : std::string_view{};
}

// Mutex-ish std:: member types that must carry a QTA_* annotation when
// declared under src/ (the mutex-annotation rule).
constexpr std::array<std::string_view, 8> kMutexTypes{
    "mutex",       "shared_mutex",           "recursive_mutex",
    "timed_mutex", "recursive_timed_mutex",  "shared_timed_mutex",
    "condition_variable", "condition_variable_any"};

struct LexedFile {
  // Source with comments and string/char-literal contents blanked out;
  // newlines preserved so token positions keep their line numbers.
  std::string code;
  // Comment text concatenated per line (1-based), for qtlint: directives.
  std::map<unsigned, std::string> comments;
  // Raw text of preprocessor-directive lines (1-based).
  std::map<unsigned, std::string> pp_lines;
};

LexedFile lex(std::string_view src) {
  LexedFile out;
  out.code.reserve(src.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  unsigned line = 1;
  bool line_has_code = false;  // non-ws code chars seen on this line

  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '\n') {
      out.code.push_back('\n');
      ++line;
      line_has_code = false;
      if (state == State::kLineComment) state = State::kCode;
      // Unterminated strings/chars cannot span lines in valid C++;
      // recover rather than swallowing the rest of the file.
      if (state == State::kString || state == State::kChar) {
        state = State::kCode;
      }
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out.code.append("  ");
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out.code.append("  ");
          ++i;
        } else if (c == '"') {
          // Raw string literal: R"delim( ... )delim"
          const bool raw = !out.code.empty() && out.code.back() == 'R' &&
                           (out.code.size() < 2 ||
                            !is_ident_char(out.code[out.code.size() - 2]));
          if (raw) {
            std::string delim;
            std::size_t j = i + 1;
            while (j < src.size() && src[j] != '(') delim.push_back(src[j++]);
            const std::string closer = ")" + delim + "\"";
            const auto end = src.find(closer, j);
            const std::size_t stop =
                end == std::string_view::npos ? src.size()
                                              : end + closer.size();
            for (std::size_t k = i; k < stop; ++k) {
              out.code.push_back(src[k] == '\n' ? '\n' : ' ');
              if (src[k] == '\n') ++line;
            }
            i = stop - 1;
          } else {
            out.code.push_back(' ');
            state = State::kString;
          }
        } else if (c == '\'') {
          // Digit separators (1'000'000) are not char literals.
          const bool digit_sep =
              !out.code.empty() &&
              std::isdigit(static_cast<unsigned char>(out.code.back()));
          out.code.push_back(digit_sep ? c : ' ');
          if (!digit_sep) state = State::kChar;
        } else {
          if (c == '#' && !line_has_code) {
            // Record the raw directive line (up to newline) once.
            const auto eol = src.find('\n', i);
            out.pp_lines[line] = std::string(
                src.substr(i, eol == std::string_view::npos ? src.size() - i
                                                            : eol - i));
          }
          if (!std::isspace(static_cast<unsigned char>(c))) {
            line_has_code = true;
          }
          out.code.push_back(c);
        }
        break;
      case State::kLineComment:
        out.comments[line].push_back(c);
        out.code.push_back(' ');
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out.code.append("  ");
          ++i;
        } else {
          out.comments[line].push_back(c);
          out.code.push_back(' ');
        }
        break;
      case State::kString:
        if (c == '\\') {
          out.code.append("  ");
          ++i;
        } else {
          if (c == '"') state = State::kCode;
          out.code.push_back(' ');
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out.code.append("  ");
          ++i;
        } else {
          if (c == '\'') state = State::kCode;
          out.code.push_back(' ');
        }
        break;
    }
  }
  return out;
}

// Parsed qtlint: directives for one file.
struct Allows {
  std::set<RuleId> file;
  std::map<unsigned, std::set<RuleId>> line;
  struct Block {
    RuleId rule;
    unsigned begin;
    unsigned end;  // inclusive; UINT_MAX for unterminated push
  };
  std::vector<Block> blocks;
  std::vector<Violation> errors;  // unknown-allow diagnostics

  bool allowed(RuleId rule, unsigned at_line) const {
    if (file.count(rule)) return true;
    if (auto it = line.find(at_line);
        it != line.end() && it->second.count(rule)) {
      return true;
    }
    return std::any_of(blocks.begin(), blocks.end(), [&](const Block& b) {
      return b.rule == rule && b.begin <= at_line && at_line <= b.end;
    });
  }
};

void skip_ws(std::string_view s, std::size_t* pos) {
  while (*pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[*pos]))) {
    ++*pos;
  }
}

// Parses "name(rule, rule)" directives out of one comment line.
void parse_directives(std::string_view text, unsigned line,
                      const std::string& file, Allows* allows,
                      std::map<RuleId, unsigned>* open_pushes) {
  // Only comments that BEGIN with "qtlint:" are directives; prose that
  // merely mentions the syntax (docs, nested comment examples) is not.
  std::size_t pos = 0;
  skip_ws(text, &pos);
  if (!starts_with(text.substr(pos), "qtlint:")) return;
  pos += 7;
  while (pos < text.size()) {
    skip_ws(text, &pos);
    std::size_t start = pos;
    while (pos < text.size() &&
           (is_ident_char(text[pos]) || text[pos] == '-')) {
      ++pos;
    }
    const std::string_view verb = text.substr(start, pos - start);
    if (verb.empty()) break;
    skip_ws(text, &pos);
    if (pos >= text.size() || text[pos] != '(') break;
    ++pos;
    const auto close = text.find(')', pos);
    if (close == std::string_view::npos) break;
    std::string_view arg_list = text.substr(pos, close - pos);
    pos = close + 1;

    std::vector<std::string_view> names;
    std::size_t a = 0;
    while (a < arg_list.size()) {
      while (a < arg_list.size() &&
             (std::isspace(static_cast<unsigned char>(arg_list[a])) ||
              arg_list[a] == ',')) {
        ++a;
      }
      std::size_t s = a;
      while (a < arg_list.size() && arg_list[a] != ',' &&
             !std::isspace(static_cast<unsigned char>(arg_list[a]))) {
        ++a;
      }
      if (a > s) names.push_back(arg_list.substr(s, a - s));
    }

    for (const auto& name : names) {
      RuleId rule;
      if (!rule_from_name(name, &rule)) {
        allows->errors.push_back(
            {file, line, RuleId::kUnknownAllow,
             "qtlint: " + std::string(verb) + "() names unknown rule '" +
                 std::string(name) + "'"});
        continue;
      }
      if (verb == "allow") {
        allows->line[line].insert(rule);
      } else if (verb == "allow-file") {
        allows->file.insert(rule);
      } else if (verb == "push-allow") {
        (*open_pushes)[rule] = line;
      } else if (verb == "pop-allow") {
        auto it = open_pushes->find(rule);
        if (it != open_pushes->end()) {
          allows->blocks.push_back({rule, it->second, line});
          open_pushes->erase(it);
        }
      } else {
        allows->errors.push_back(
            {file, line, RuleId::kUnknownAllow,
             "qtlint: unknown directive '" + std::string(verb) + "'"});
      }
    }
  }
}

Allows collect_allows(const LexedFile& lexed, const std::string& file) {
  Allows allows;
  std::map<RuleId, unsigned> open_pushes;
  for (const auto& [line, text] : lexed.comments) {
    parse_directives(text, line, file, &allows, &open_pushes);
  }
  for (const auto& [rule, begin] : open_pushes) {
    allows.blocks.push_back(
        {rule, begin, std::numeric_limits<unsigned>::max()});
  }
  return allows;
}

// Extracts the <name> or "name" from a #include directive line, else "".
std::string include_target(std::string_view pp) {
  auto pos = pp.find("include");
  if (pos == std::string_view::npos) return "";
  pos += 7;
  std::size_t p = pos;
  skip_ws(pp, &p);
  if (p >= pp.size()) return "";
  const char open = pp[p];
  const char close = open == '<' ? '>' : open == '"' ? '"' : '\0';
  if (close == '\0') return "";
  const auto end = pp.find(close, p + 1);
  if (end == std::string_view::npos) return "";
  return std::string(pp.substr(p + 1, end - p - 1));
}

bool is_pragma_once(std::string_view pp) {
  std::size_t p = 0;
  skip_ws(pp, &p);
  if (p >= pp.size() || pp[p] != '#') return false;
  ++p;
  skip_ws(pp, &p);
  if (!starts_with(pp.substr(p), "pragma")) return false;
  p += 6;
  skip_ws(pp, &p);
  return starts_with(pp.substr(p), "once");
}

template <std::size_t N>
bool in_set(std::string_view ident, const std::array<std::string_view, N>& s) {
  return std::find(s.begin(), s.end(), ident) != s.end();
}

struct Emitter {
  const std::string& file;
  const Allows& allows;
  std::vector<Violation>* out;

  void emit(RuleId rule, unsigned line, std::string message) const {
    if (allows.allowed(rule, line)) return;
    out->push_back({file, line, rule, std::move(message)});
  }
};

void check_includes(const LexedFile& lexed, const FileClass& fc,
                    const Emitter& e) {
  for (const auto& [line, pp] : lexed.pp_lines) {
    const std::string target = include_target(pp);
    if (target.empty()) continue;
    if (fc.datapath && (target == "cmath" || target == "math.h")) {
      e.emit(RuleId::kDatapathPurity, line,
             "#include <" + target + "> in datapath code");
    }
    if (fc.in_src && !fc.rng &&
        (target == "random" || target == "ctime" || target == "time.h")) {
      e.emit(RuleId::kDeterminism, line,
             "#include <" + target + "> outside src/rng");
    }
    if (fc.hot_path && target == "iostream") {
      e.emit(RuleId::kNoIostream, line,
             "#include <iostream> in hot-path code");
    }
    if (fc.in_src && (target == "cassert" || target == "assert.h")) {
      e.emit(RuleId::kNoBareAssert, line,
             "#include <" + target + ">; use common/check.h");
    }
    if (fc.datapath && starts_with(target, "telemetry/") &&
        target != kTelemetrySinkHeader) {
      e.emit(RuleId::kTelemetryBoundary, line,
             "#include \"" + target +
                 "\" in datapath code; only telemetry/sink.h is allowed");
    }
    // Layering, part 1: the restricted backend headers. Applies
    // everywhere (src AND the tools/examples/bench dirs above the
    // seam): Pipeline / LaneEngine are constructed only by the
    // runtime's Engine and their own module. The serving layer gets
    // a tailored message — serve stays backend-generic so snapshots
    // keep bridging backends.
    if (!fc.runtime && !fc.qtaccel &&
        in_set(std::string_view(target), kRestrictedBackendHeaders)) {
      if (fc.serve) {
        e.emit(RuleId::kLayering, line,
               "#include \"" + target +
                   "\" in the serving layer: serve is backend-generic "
                   "and builds machines only through runtime/engine.h");
      } else {
        e.emit(RuleId::kLayering, line,
               "#include \"" + target +
                   "\" outside src/runtime: use the Engine facade "
                   "(runtime/engine.h) instead");
      }
      continue;
    }
    // Layering, part 2: the module DAG (src files only; tools,
    // examples and bench sit above the whole stack). One data-driven
    // check replaces the old runtime-boundary/serve-boundary scanners;
    // kLayerSpecs is the single source of truth.
    if (fc.in_src && is_src_module(fc.module)) {
      const std::string_view to = target_module(target);
      if (!to.empty() && !layer_allows(fc.module, to)) {
        if (to == "runtime") {
          e.emit(RuleId::kLayering, line,
                 "#include \"" + target +
                     "\" inverts the layering: datapath and support "
                     "code must not depend on src/runtime");
        } else if (to == "serve") {
          e.emit(RuleId::kLayering, line,
                 "#include \"" + target +
                     "\" outside src/serve: the serving layer sits on "
                     "top of the runtime; lower layers must not depend "
                     "on it");
        } else {
          e.emit(RuleId::kLayering, line,
                 "#include \"" + target + "\" violates the layering "
                     "DAG: src/" + std::string(fc.module) +
                     " may not depend on " + std::string(to) +
                     "/ (see docs/static_analysis.md)");
        }
      }
    }
  }
}

void check_tokens(const LexedFile& lexed, const FileClass& fc,
                  const Emitter& e) {
  const std::string& code = lexed.code;
  unsigned line = 1;
  std::string prev_ident;
  unsigned prev_ident_line = 0;

  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] == '\n') {
      ++line;
      continue;
    }
    if (!is_ident_start(code[i])) continue;
    const std::size_t start = i;
    while (i < code.size() && is_ident_char(code[i])) ++i;
    const std::string_view ident(code.data() + start, i - start);
    // Next non-whitespace character decides call context.
    std::size_t k = i;
    while (k < code.size() &&
           (code[k] == ' ' || code[k] == '\t' || code[k] == '\n')) {
      ++k;
    }
    const bool call = k < code.size() && code[k] == '(';

    if (fc.datapath) {
      if (in_set(ident, kFloatTypes)) {
        e.emit(RuleId::kDatapathPurity, line,
               "floating-point type '" + std::string(ident) +
                   "' in datapath code");
      } else if (call && in_set(ident, kLibmCalls)) {
        e.emit(RuleId::kDatapathPurity, line,
               "libm call '" + std::string(ident) + "()' in datapath code");
      }
    }
    if (fc.in_src && !fc.rng) {
      if (in_set(ident, kEntropyTypes)) {
        e.emit(RuleId::kDeterminism, line,
               "entropy source '" + std::string(ident) +
                   "' outside src/rng");
      } else if (call && in_set(ident, kEntropyCalls)) {
        e.emit(RuleId::kDeterminism, line,
               "nondeterministic call '" + std::string(ident) +
                   "()' outside src/rng");
      }
    }
    if (fc.hot_path && in_set(ident, kStreamIdents)) {
      e.emit(RuleId::kNoIostream, line,
             "stream/formatting identifier '" + std::string(ident) +
                 "' in hot-path code");
    }
    if (fc.in_src && call && ident == "assert") {
      e.emit(RuleId::kNoBareAssert, line,
             "bare assert(); use QTA_CHECK / QTA_DCHECK");
    }
    if (fc.datapath && in_set(ident, kTelemetryHostIdents)) {
      e.emit(RuleId::kTelemetryBoundary, line,
             "host-side telemetry type '" + std::string(ident) +
                 "' in datapath code; emit through a TelemetrySink*");
    }
    if (fc.header && ident == "namespace" && prev_ident == "using" &&
        prev_ident_line == line) {
      e.emit(RuleId::kNoUsingNamespace, line,
             "'using namespace' at header scope");
    }
    // mutex-annotation: a raw std:: mutex/condvar DECLARATION under
    // src/ (next token is the declared name — usages like
    // `std::lock_guard<std::mutex>` or `std::mutex&` parameters see a
    // non-identifier next char and stay legal) must carry a QTA_*
    // annotation before the declaration's ';' so clang's thread-safety
    // analysis tracks it. qta::Mutex / qta::CondVar (common/mutex.h)
    // are the preferred spelling and need nothing extra.
    if (fc.in_src && prev_ident == "std" && in_set(ident, kMutexTypes) &&
        k < code.size() && is_ident_start(code[k])) {
      bool annotated = false;
      for (std::size_t j = k; j < code.size() && code[j] != ';'; ++j) {
        if (code[j] == 'Q' && code.compare(j, 4, "QTA_") == 0) {
          annotated = true;
          break;
        }
      }
      if (!annotated) {
        e.emit(RuleId::kMutexAnnotation, line,
               "std::" + std::string(ident) +
                   " member without a thread-safety annotation; use "
                   "qta::Mutex / qta::CondVar (common/mutex.h) or add a "
                   "QTA_GUARDED_BY-family annotation "
                   "(common/annotations.h)");
      }
    }
    prev_ident = std::string(ident);
    prev_ident_line = line;
    --i;  // outer loop ++ lands on the char after the identifier
  }
}

}  // namespace

std::string_view rule_name(RuleId id) { return info(id).name; }
std::string_view rule_scope(RuleId id) { return info(id).scope; }
std::string_view rule_rationale(RuleId id) { return info(id).rationale; }

const std::vector<RuleId>& all_rules() {
  static const std::vector<RuleId> rules = [] {
    std::vector<RuleId> r;
    for (const auto& ri : kRules) {
      if (ri.id != RuleId::kUnknownAllow) r.push_back(ri.id);
    }
    return r;
  }();
  return rules;
}

FileClass classify_path(std::string_view rel_path) {
  std::string p(rel_path);
  std::replace(p.begin(), p.end(), '\\', '/');
  FileClass fc;
  fc.header = ends_with(p, ".h") || ends_with(p, ".hpp");
  fc.in_src = starts_with(p, "src/");
  fc.rng = starts_with(p, "src/rng/");
  fc.runtime = starts_with(p, "src/runtime/");
  fc.driver = starts_with(p, "src/driver/");
  fc.serve = starts_with(p, "src/serve/");
  fc.qtaccel = starts_with(p, "src/qtaccel/");
  fc.hot_path = starts_with(p, "src/hw/") || starts_with(p, "src/fixed/");
  fc.datapath = fc.hot_path;
  // The persistent thread pool schedules the datapath replicas
  // (IndependentPipelines::run_samples_each); floats sneaking in through
  // scheduling code would be as damaging as in the pipeline itself.
  if (starts_with(p, "src/common/thread_pool")) fc.datapath = true;
  if (starts_with(p, "src/qtaccel/")) {
    std::string_view stem = basename_of(p);
    if (const auto dot = stem.find_last_of('.');
        dot != std::string_view::npos) {
      stem = stem.substr(0, dot);
    }
    if (in_set(stem, kPipelineFileStems)) fc.datapath = true;
  }
  // Layering module: "src/runtime/engine.h" -> "runtime";
  // "tools/qtlint/lint.cpp" -> "tools".
  std::string_view rest = p;
  if (fc.in_src) rest = std::string_view(p).substr(4);
  if (const auto slash = rest.find('/'); slash != std::string_view::npos) {
    fc.module = std::string(rest.substr(0, slash));
  }
  return fc;
}

std::vector<IncludeEdge> list_includes(std::string_view content) {
  const LexedFile lexed = lex(content);
  std::vector<IncludeEdge> out;
  for (const auto& [line, pp] : lexed.pp_lines) {
    std::string target = include_target(pp);
    if (!target.empty()) out.push_back({std::move(target), line});
  }
  return out;
}

std::vector<Violation> lint_content(std::string_view rel_path,
                                    std::string_view content) {
  const std::string file(rel_path);
  const FileClass fc = classify_path(rel_path);
  const LexedFile lexed = lex(content);
  const Allows allows = collect_allows(lexed, file);

  std::vector<Violation> out = allows.errors;
  const Emitter e{file, allows, &out};

  if (fc.header) {
    const bool has_once = std::any_of(
        lexed.pp_lines.begin(), lexed.pp_lines.end(),
        [](const auto& kv) { return is_pragma_once(kv.second); });
    if (!has_once) {
      e.emit(RuleId::kPragmaOnce, 1, "header is missing #pragma once");
    }
  }
  check_includes(lexed, fc, e);
  check_tokens(lexed, fc, e);

  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line) < std::tie(b.file, b.line);
            });
  return out;
}

namespace {

// One resolved include edge for the cross-file graph.
struct GraphEdge {
  std::size_t to;
  unsigned line;
};

// Depth-first search for include cycles. A gray-on-gray edge closes a
// cycle; each distinct cycle (as a set of files) is reported once, at
// the include line that closes it.
struct CycleFinder {
  const std::vector<SourceFile>& files;
  const std::vector<std::vector<GraphEdge>>& graph;
  std::vector<int> color;  // 0 white, 1 gray (on stack), 2 black
  std::vector<std::size_t> stack;
  std::set<std::string> reported;
  std::vector<Violation>* out;

  void visit(std::size_t n) {
    color[n] = 1;
    stack.push_back(n);
    for (const GraphEdge& e : graph[n]) {
      if (color[e.to] == 1) {
        report(n, e);
      } else if (color[e.to] == 0) {
        visit(e.to);
      }
    }
    stack.pop_back();
    color[n] = 2;
  }

  void report(std::size_t from, const GraphEdge& back) {
    const auto begin = std::find(stack.begin(), stack.end(), back.to);
    std::vector<std::size_t> cycle(begin, stack.end());
    if (cycle.empty()) return;
    // Canonical form: rotate the lexicographically smallest file to the
    // front so the same cycle found from different entry points dedups.
    const auto min_it = std::min_element(
        cycle.begin(), cycle.end(), [&](std::size_t a, std::size_t b) {
          return files[a].path < files[b].path;
        });
    std::rotate(cycle.begin(), min_it, cycle.end());
    std::string key, msg = "include cycle: ";
    for (const std::size_t n : cycle) {
      key += files[n].path;
      key += '\0';
      msg += files[n].path;
      msg += " -> ";
    }
    msg += files[cycle.front()].path;
    if (!reported.insert(key).second) return;
    out->push_back({files[from].path, back.line, RuleId::kLayering, msg});
  }
};

}  // namespace

std::vector<Violation> lint_repo(const std::vector<SourceFile>& files) {
  std::vector<Violation> out;
  for (const auto& f : files) {
    auto v = lint_content(f.path, f.content);
    out.insert(out.end(), v.begin(), v.end());
  }

  // Cross-file pass: resolve include targets against the scanned set
  // and reject cycles. Resolution mirrors the build's include dirs
  // (src/, tools/) plus same-directory includes; an edge whose include
  // line carries `qtlint: allow(layering)` is invisible.
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < files.size(); ++i) index[files[i].path] = i;

  std::vector<std::vector<GraphEdge>> graph(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    const LexedFile lexed = lex(files[i].content);
    const Allows allows = collect_allows(lexed, files[i].path);
    std::string dir;
    if (const auto slash = files[i].path.find_last_of('/');
        slash != std::string::npos) {
      dir = files[i].path.substr(0, slash + 1);
    }
    for (const auto& [line, pp] : lexed.pp_lines) {
      const std::string target = include_target(pp);
      if (target.empty()) continue;
      if (allows.allowed(RuleId::kLayering, line)) continue;
      for (const std::string& cand :
           {"src/" + target, "tools/" + target, dir + target}) {
        if (const auto it = index.find(cand); it != index.end()) {
          graph[i].push_back({it->second, line});
          break;
        }
      }
    }
  }

  CycleFinder finder{files, graph,
                     std::vector<int>(files.size(), 0),
                     {}, {}, &out};
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (finder.color[i] == 0) finder.visit(i);
  }

  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line) < std::tie(b.file, b.line);
            });
  return out;
}

std::vector<Violation> lint_file(const std::string& root,
                                 const std::string& rel_path) {
  const std::string full = root.empty() ? rel_path : root + "/" + rel_path;
  std::ifstream in(full, std::ios::binary);
  if (!in) {
    return {{rel_path, 0, RuleId::kUnknownAllow,
             "cannot open file for linting"}};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return lint_content(rel_path, ss.str());
}

void print_rules_table(std::ostream& os) {
  TablePrinter t({"Rule", "Scope", "Rationale"});
  for (const RuleId id : all_rules()) {
    t.add_row({std::string(rule_name(id)), std::string(rule_scope(id)),
               std::string(rule_rationale(id))});
  }
  t.print(os);
}

void print_summary_table(std::ostream& os,
                         const std::vector<Violation>& violations,
                         std::size_t files_scanned) {
  std::map<RuleId, std::size_t> counts;
  for (const auto& v : violations) ++counts[v.rule];
  TablePrinter t({"Rule", "Violations"});
  for (const RuleId id : all_rules()) {
    t.add_row({std::string(rule_name(id)),
               std::to_string(counts.count(id) ? counts.at(id) : 0)});
  }
  if (counts.count(RuleId::kUnknownAllow)) {
    t.add_row({std::string(rule_name(RuleId::kUnknownAllow)),
               std::to_string(counts.at(RuleId::kUnknownAllow))});
  }
  t.print(os);
  os << files_scanned << " file(s) scanned, " << violations.size()
     << " violation(s)\n";
}

void write_violations_json(std::ostream& os,
                           const std::vector<Violation>& violations,
                           std::size_t files_scanned) {
  qta::JsonWriter json;
  json.begin_object();
  json.key("violations").begin_array();
  for (const auto& v : violations) {
    json.begin_object()
        .field("file", v.file)
        .field("line", v.line)
        .field("rule", std::string(rule_name(v.rule)))
        .field("message", v.message)
        .end_object();
  }
  json.end_array();
  json.field("files_scanned", static_cast<std::uint64_t>(files_scanned));
  json.field("count", static_cast<std::uint64_t>(violations.size()));
  json.end_object();
  os << json.str() << "\n";
}

}  // namespace qta::lint
