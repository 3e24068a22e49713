// qtlint — domain linter enforcing QTAccel's hardware-derived invariants.
//
// The repo models a synthesizable fixed-point datapath; a handful of C++
// habits silently break the correspondence between the software model and
// the hardware the paper describes. qtlint is a token-level checker (it
// lexes comments, string literals and identifiers — it is not a compiler
// plugin) that fails the build when one of those habits sneaks in:
//
//   datapath-purity   no float/double and no libm in the datapath dirs
//                     (src/hw, src/fixed, the qtaccel pipeline files) —
//                     the paper's 4-DSP fixed-point datapath claim.
//   determinism       no wall-clock / libc / std::random entropy outside
//                     src/rng — cycle-accuracy requires reproducible runs.
//   pragma-once       every header carries #pragma once.
//   no-using-namespace no `using namespace` at header scope.
//   no-iostream       no <iostream>/cout/cerr in hot-path src/hw and
//                     src/fixed code.
//   no-bare-assert    QTA_CHECK / QTA_DCHECK instead of assert().
//   telemetry-boundary datapath files touch telemetry only through the
//                     host-side sink interface (telemetry/sink.h); the
//                     registry/trace/profiler machinery stays host-side.
//   layering          the full include-graph DAG in one data-driven
//                     rule (it subsumed the old runtime-boundary and
//                     serve-boundary scanners): every src/ module may
//                     include only its declared lower layers — e.g.
//                     runtime/ headers are visible only to runtime,
//                     driver and serve; serve/ headers only to serve
//                     itself — and the concrete backend headers
//                     (qtaccel/pipeline.h, qtaccel/lane_engine.h) are
//                     constructible only from src/runtime and
//                     src/qtaccel; everything else goes through the
//                     Engine facade. lint_repo also rejects #include
//                     cycles anywhere in the scanned set. The DAG
//                     itself is the kLayering table in lint.cpp,
//                     documented in docs/static_analysis.md.
//   mutex-annotation  every std::mutex / std::shared_mutex /
//                     std::condition_variable (and friends) MEMBER
//                     declared under src/ must carry a QTA_GUARDED_BY-
//                     family annotation (common/annotations.h) on its
//                     declaration, or use the annotated qta::Mutex /
//                     qta::CondVar wrappers (common/mutex.h) — so the
//                     clang thread-safety analysis sees every lock.
//
// Escape hatches, all comment-driven and rule-scoped:
//   // qtlint: allow(rule[, rule...])        — this line only
//   // qtlint: push-allow(rule)  ... pop-allow(rule)
//   // qtlint: allow-file(rule)              — whole file
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace qta::lint {

enum class RuleId {
  kDatapathPurity,
  kDeterminism,
  kPragmaOnce,
  kNoUsingNamespace,
  kNoIostream,
  kNoBareAssert,
  kTelemetryBoundary,
  kLayering,
  kMutexAnnotation,
  kUnknownAllow,  // meta-rule: allow(...) names a rule that does not exist
};

/// Stable kebab-case name used in diagnostics and allow() annotations.
std::string_view rule_name(RuleId id);

/// One-line scope description ("src/hw, src/fixed, pipeline files", ...).
std::string_view rule_scope(RuleId id);

/// One-line rationale tying the rule to a paper claim.
std::string_view rule_rationale(RuleId id);

/// All real rules (excludes the kUnknownAllow meta-rule).
const std::vector<RuleId>& all_rules();

struct Violation {
  std::string file;  // path as given to the linter (repo-relative)
  unsigned line = 0;
  RuleId rule = RuleId::kDatapathPurity;
  std::string message;
};

/// Which rule families apply to a path. Derived from the repo-relative
/// path, so callers must pass paths rooted at the repo (e.g.
/// "src/hw/bram.cpp"), not absolute paths.
struct FileClass {
  bool datapath = false;  // src/hw, src/fixed, qtaccel pipeline files
  bool rng = false;       // src/rng — the sanctioned entropy module
  bool hot_path = false;  // src/hw, src/fixed (no-iostream scope)
  bool in_src = false;    // under src/
  bool runtime = false;   // src/runtime — the backend/facade layer
  bool driver = false;    // src/driver — sits above runtime, may use it
  bool serve = false;     // src/serve — the serving layer, above runtime
  bool qtaccel = false;   // src/qtaccel — the backends' own module
  bool header = false;    // .h / .hpp
  /// Layering module: the segment after src/ ("common", "runtime", ...)
  /// for src files, the top directory ("tools", "bench", ...) otherwise.
  std::string module;
};

FileClass classify_path(std::string_view rel_path);

/// One repo-relative file handed to lint_repo.
struct SourceFile {
  std::string path;
  std::string content;
};

/// One #include directive: its (unresolved) target and 1-based line.
struct IncludeEdge {
  std::string target;
  unsigned line = 0;
};

/// The #include targets of one file, in line order (comments and string
/// literals are ignored). Exposed for tests and include-graph tooling.
std::vector<IncludeEdge> list_includes(std::string_view content);

/// Lints one file's content: every per-file rule (including the
/// per-edge layering checks). `rel_path` determines rule scoping.
/// Cross-file analyses (include cycles) need lint_repo.
std::vector<Violation> lint_content(std::string_view rel_path,
                                    std::string_view content);

/// Lints a whole repo view: lint_content on every file, plus the
/// cross-file include-graph pass (cycle detection over edges between
/// the given files; an edge whose include line carries
/// `qtlint: allow(layering)` is invisible to it).
std::vector<Violation> lint_repo(const std::vector<SourceFile>& files);

/// Reads and lints a file on disk. `rel_path` is used for both IO (resolved
/// against `root`) and scoping. IO failures produce a synthetic violation.
std::vector<Violation> lint_file(const std::string& root,
                                 const std::string& rel_path);

/// Renders the rule table (Rule | Scope | Rationale) via qta::TablePrinter.
void print_rules_table(std::ostream& os);

/// Renders a per-rule violation-count summary table.
void print_summary_table(std::ostream& os,
                         const std::vector<Violation>& violations,
                         std::size_t files_scanned);

/// Machine-readable report for CI problem matchers:
///   {"violations":[{"file":...,"line":N,"rule":"...","message":...},...],
///    "files_scanned":N,"count":N}
void write_violations_json(std::ostream& os,
                           const std::vector<Violation>& violations,
                           std::size_t files_scanned);

}  // namespace qta::lint
