// Rule-by-rule coverage for tools/qtlint. Each fixture is a known-bad
// snippet fed through lint_content() under a path that puts it in the
// rule's scope; the paired negative case moves the same snippet out of
// scope or adds a qtlint: allow annotation.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "qtlint/lint.h"

namespace qta::lint {
namespace {

std::size_t count_rule(const std::vector<Violation>& vs, RuleId rule) {
  return static_cast<std::size_t>(
      std::count_if(vs.begin(), vs.end(),
                    [rule](const Violation& v) { return v.rule == rule; }));
}

TEST(QtlintClassify, PathsMapToScopes) {
  EXPECT_TRUE(classify_path("src/hw/bram.cpp").datapath);
  EXPECT_TRUE(classify_path("src/fixed/fixed_point.h").datapath);
  EXPECT_TRUE(classify_path("src/qtaccel/pipeline.cpp").datapath);
  EXPECT_TRUE(classify_path("src/qtaccel/boltzmann_pipeline.cpp").datapath);
  EXPECT_TRUE(classify_path("src/qtaccel/lane_engine.cpp").datapath);
  EXPECT_TRUE(classify_path("src/qtaccel/lane_engine.h").datapath);
  EXPECT_TRUE(classify_path("src/common/thread_pool.cpp").datapath);
  EXPECT_TRUE(classify_path("src/common/thread_pool.h").datapath);
  EXPECT_FALSE(classify_path("src/qtaccel/config.cpp").datapath);
  EXPECT_FALSE(classify_path("src/qtaccel/golden_model.cpp").datapath);
  EXPECT_FALSE(classify_path("src/common/stats.cpp").datapath);
  EXPECT_TRUE(classify_path("src/rng/lfsr.cpp").rng);
  EXPECT_TRUE(classify_path("src/hw/dsp.h").header);
  EXPECT_FALSE(classify_path("tools/qtlint/lint.cpp").in_src);
}

TEST(QtlintClassify, RuntimeDriverAndQtaccelScopes) {
  EXPECT_TRUE(classify_path("src/runtime/engine.h").runtime);
  EXPECT_FALSE(classify_path("src/runtime/engine.h").datapath);
  // multi_pipeline moved out of the datapath module into the runtime
  // layer: it orchestrates engines, it is not pipeline hardware.
  EXPECT_TRUE(classify_path("src/runtime/multi_pipeline.cpp").runtime);
  EXPECT_FALSE(classify_path("src/runtime/multi_pipeline.cpp").datapath);
  EXPECT_TRUE(classify_path("src/driver/qtaccel_device.cpp").driver);
  EXPECT_TRUE(classify_path("src/qtaccel/pipeline.cpp").qtaccel);
  EXPECT_FALSE(classify_path("examples/quickstart.cpp").in_src);
}

TEST(QtlintDatapathPurity, LaneEngineScopeFlagsFloatsOutsideAllowBlocks) {
  // The functional engine replays the datapath against flat arrays; a
  // stray double there would silently diverge from the fixed-point
  // pipeline.
  const auto bad = lint_content("src/qtaccel/lane_engine.cpp",
                                "long f() { double x = 1; return long(x); }\n");
  EXPECT_EQ(count_rule(bad, RuleId::kDatapathPurity), 1u);
  // The sanctioned host-init boundary uses push/pop-allow blocks, exactly
  // as the real file does around reward quantization.
  const auto ok = lint_content(
      "src/qtaccel/lane_engine.cpp",
      "// qtlint: push-allow(datapath-purity)\n"
      "long f() { double x = 1; return long(x); }\n"
      "// qtlint: pop-allow(datapath-purity)\n");
  EXPECT_EQ(count_rule(ok, RuleId::kDatapathPurity), 0u);
}

TEST(QtlintDatapathPurity, ThreadPoolScopeFlagsFloats) {
  const auto vs = lint_content(
      "src/common/thread_pool.cpp",
      "double share(double items, double workers) { return items / workers; }\n");
  EXPECT_GT(count_rule(vs, RuleId::kDatapathPurity), 0u);
}

TEST(QtlintDatapathPurity, FlagsFloatAndDoubleInDatapath) {
  const auto vs = lint_content("src/hw/unit.cpp",
                               "int f() { double x = 1; float y = 2; "
                               "return int(x + y); }\n");
  EXPECT_EQ(count_rule(vs, RuleId::kDatapathPurity), 2u);
}

TEST(QtlintDatapathPurity, FlagsLibmCallsAndCmathInclude) {
  const auto vs = lint_content(
      "src/fixed/unit.cpp",
      "#include <cmath>\nlong f(long v) { return std::exp(v) + pow(v, 2); }\n");
  EXPECT_EQ(count_rule(vs, RuleId::kDatapathPurity), 3u);
}

TEST(QtlintDatapathPurity, IgnoresHostSideCode) {
  const auto vs = lint_content("src/common/stats.cpp",
                               "double mean() { return std::sqrt(2.0); }\n");
  EXPECT_EQ(count_rule(vs, RuleId::kDatapathPurity), 0u);
}

TEST(QtlintDatapathPurity, MemberNamesContainingBannedWordsAreLegal) {
  const auto vs = lint_content(
      "src/hw/unit.cpp",
      "long q_as_double(Lut& lut, long x) { return lut.eval_exp(x); }\n");
  EXPECT_EQ(count_rule(vs, RuleId::kDatapathPurity), 0u);
}

TEST(QtlintDatapathPurity, CommentsAndStringsDoNotTrigger) {
  const auto vs = lint_content(
      "src/hw/unit.cpp",
      "// a double-pumped BRAM port\n"
      "/* float would be wrong here */\n"
      "const char* kMsg = \"double trouble: std::exp(x)\";\n");
  EXPECT_EQ(count_rule(vs, RuleId::kDatapathPurity), 0u);
}

TEST(QtlintDeterminism, FlagsEntropySourcesOutsideRng) {
  const auto vs = lint_content(
      "src/algo/unit.cpp",
      "#include <random>\n"
      "int f() { std::random_device rd; srand(42); return rand(); }\n");
  EXPECT_EQ(count_rule(vs, RuleId::kDeterminism), 4u);
}

TEST(QtlintDeterminism, FlagsWallClockSeeding) {
  const auto vs = lint_content(
      "src/env/unit.cpp", "long seed() { return time(nullptr); }\n");
  EXPECT_EQ(count_rule(vs, RuleId::kDeterminism), 1u);
}

TEST(QtlintDeterminism, RngModuleIsExempt) {
  const auto vs = lint_content(
      "src/rng/unit.cpp",
      "int f() { std::random_device rd; return int(rd()); }\n");
  EXPECT_EQ(count_rule(vs, RuleId::kDeterminism), 0u);
}

TEST(QtlintDeterminism, SteadyClockAliasIsLegal) {
  // src/common/stats.h names its chrono alias `clock`; only the libc
  // call form clock() is banned.
  const auto vs = lint_content(
      "src/common/unit.h",
      "#pragma once\nusing clock = std::chrono::steady_clock;\n"
      "auto t() { return clock::now(); }\n");
  EXPECT_EQ(count_rule(vs, RuleId::kDeterminism), 0u);
}

TEST(QtlintPragmaOnce, FlagsHeaderWithoutPragma) {
  const auto vs = lint_content("src/hw/unit.h", "struct S {};\n");
  EXPECT_EQ(count_rule(vs, RuleId::kPragmaOnce), 1u);
}

TEST(QtlintPragmaOnce, AcceptsHeaderWithPragma) {
  const auto vs =
      lint_content("src/hw/unit.h", "// banner\n#pragma once\nstruct S {};\n");
  EXPECT_EQ(count_rule(vs, RuleId::kPragmaOnce), 0u);
}

TEST(QtlintPragmaOnce, DoesNotApplyToSourceFiles) {
  const auto vs = lint_content("src/hw/unit.cpp", "struct S {};\n");
  EXPECT_EQ(count_rule(vs, RuleId::kPragmaOnce), 0u);
}

TEST(QtlintUsingNamespace, FlagsHeaderButNotSource) {
  const std::string snippet = "#pragma once\nusing namespace std;\n";
  EXPECT_EQ(count_rule(lint_content("src/env/unit.h", snippet),
                       RuleId::kNoUsingNamespace),
            1u);
  EXPECT_EQ(count_rule(lint_content("src/env/unit.cpp", snippet),
                       RuleId::kNoUsingNamespace),
            0u);
}

TEST(QtlintIostream, FlagsHotPathStreams) {
  const auto vs = lint_content(
      "src/hw/unit.cpp",
      "#include <iostream>\nvoid f() { std::cout << 1; std::cerr << 2; }\n");
  EXPECT_EQ(count_rule(vs, RuleId::kNoIostream), 3u);
}

TEST(QtlintIostream, PipelineAndHostFilesMayStream) {
  const std::string snippet = "#include <iostream>\nvoid f();\n";
  EXPECT_EQ(count_rule(lint_content("src/qtaccel/pipeline.cpp", snippet),
                       RuleId::kNoIostream),
            0u);
  EXPECT_EQ(count_rule(lint_content("src/common/cli.cpp", snippet),
                       RuleId::kNoIostream),
            0u);
}

TEST(QtlintBareAssert, FlagsAssertButNotStaticAssert) {
  const auto vs = lint_content(
      "src/env/unit.cpp",
      "#include <cassert>\n"
      "static_assert(sizeof(int) == 4);\nvoid f(int x) { assert(x > 0); }\n");
  EXPECT_EQ(count_rule(vs, RuleId::kNoBareAssert), 2u);
}

TEST(QtlintAllow, LineAnnotationSuppressesThatLineOnly) {
  const auto vs = lint_content(
      "src/hw/unit.cpp",
      "double a;  // qtlint: allow(datapath-purity)\ndouble b;\n");
  ASSERT_EQ(count_rule(vs, RuleId::kDatapathPurity), 1u);
  EXPECT_EQ(vs[0].line, 2u);
}

TEST(QtlintAllow, LineAnnotationTakesMultipleRules) {
  const auto vs = lint_content(
      "src/hw/unit.cpp",
      "double a = time(nullptr);"
      "  // qtlint: allow(datapath-purity, determinism)\n");
  EXPECT_TRUE(vs.empty());
}

TEST(QtlintAllow, FileAnnotationSuppressesWholeFile) {
  const auto vs = lint_content(
      "src/fixed/unit.cpp",
      "// qtlint: allow-file(datapath-purity)\n"
      "double a;\ndouble b;\nfloat c;\n");
  EXPECT_EQ(count_rule(vs, RuleId::kDatapathPurity), 0u);
}

TEST(QtlintAllow, PushPopBoundsTheSuppressedRegion) {
  const auto vs = lint_content(
      "src/hw/unit.cpp",
      "// qtlint: push-allow(datapath-purity)\n"
      "double inside;\n"
      "// qtlint: pop-allow(datapath-purity)\n"
      "double outside;\n");
  ASSERT_EQ(count_rule(vs, RuleId::kDatapathPurity), 1u);
  EXPECT_EQ(vs[0].line, 4u);
}

TEST(QtlintAllow, UnknownRuleNameIsItselfAViolation) {
  const auto vs = lint_content(
      "src/hw/unit.cpp", "int a;  // qtlint: allow(no-such-rule)\n");
  EXPECT_EQ(count_rule(vs, RuleId::kUnknownAllow), 1u);
}

TEST(QtlintAllow, AllowDoesNotLeakToOtherRules) {
  const auto vs = lint_content(
      "src/hw/unit.cpp",
      "double a = time(nullptr);  // qtlint: allow(datapath-purity)\n");
  EXPECT_EQ(count_rule(vs, RuleId::kDatapathPurity), 0u);
  EXPECT_EQ(count_rule(vs, RuleId::kDeterminism), 1u);
}

TEST(QtlintTelemetryBoundary, FlagsHostMachineryIncludesInDatapath) {
  const std::string snippet =
      "#include \"telemetry/metrics.h\"\n"
      "#include \"telemetry/trace.h\"\nvoid f();\n";
  EXPECT_EQ(count_rule(lint_content("src/qtaccel/pipeline.cpp", snippet),
                       RuleId::kTelemetryBoundary),
            2u);
  EXPECT_EQ(count_rule(lint_content("src/hw/bram.cpp", snippet),
                       RuleId::kTelemetryBoundary),
            2u);
}

TEST(QtlintTelemetryBoundary, SinkHeaderIsTheSanctionedInclude) {
  const auto vs = lint_content(
      "src/qtaccel/lane_engine.h",
      "#pragma once\n#include \"telemetry/sink.h\"\n"
      "void set_telemetry(telemetry::TelemetrySink* sink);\n");
  EXPECT_EQ(count_rule(vs, RuleId::kTelemetryBoundary), 0u);
}

TEST(QtlintTelemetryBoundary, FlagsHostTypeIdentifiersInDatapath) {
  const auto vs = lint_content(
      "src/qtaccel/forwarding.h",
      "#pragma once\nstruct Wbq { telemetry::MetricsRegistry* reg; "
      "telemetry::TraceSession* trace; };\n");
  EXPECT_EQ(count_rule(vs, RuleId::kTelemetryBoundary), 2u);
}

TEST(QtlintTelemetryBoundary, FlagsFlightRecorderMachineryInDatapath) {
  // The qtscope flight recorder and its event vocabulary are host-side
  // observability machinery — datapath files may not name them, same as
  // MetricsRegistry/TraceSession.
  const auto idents = lint_content(
      "src/qtaccel/qmax_unit.h",
      "#pragma once\nstruct Probe { telemetry::FlightRecorder* fr; "
      "telemetry::ServeEvent last; };\n");
  EXPECT_EQ(count_rule(idents, RuleId::kTelemetryBoundary), 2u);
  const auto include = lint_content(
      "src/qtaccel/pipeline.cpp",
      "#include \"telemetry/flight_recorder.h\"\nvoid f();\n");
  EXPECT_EQ(count_rule(include, RuleId::kTelemetryBoundary), 1u);
  // serve/ is host-side: free to record events.
  const auto host = lint_content(
      "src/serve/server.cpp",
      "#include \"telemetry/flight_recorder.h\"\n"
      "telemetry::FlightRecorder* g_flight;\n");
  EXPECT_EQ(count_rule(host, RuleId::kTelemetryBoundary), 0u);
}

TEST(QtlintTelemetryBoundary, HostSideFilesMayUseTheMachinery) {
  const std::string snippet =
      "#include \"telemetry/metrics.h\"\n"
      "telemetry::MetricsRegistry* g_registry;\n";
  EXPECT_EQ(count_rule(lint_content("src/telemetry/metrics.cpp", snippet),
                       RuleId::kTelemetryBoundary),
            0u);
  EXPECT_EQ(count_rule(lint_content("examples/quickstart.cpp", snippet),
                       RuleId::kTelemetryBoundary),
            0u);
}

// The layering rule subsumed the old runtime-boundary and serve-boundary
// scanners; these fixtures pin that every violation the old rules caught
// still fires (now as `layering`), plus the DAG cases only the
// data-driven table covers.

TEST(QtlintLayering, DatapathAndSupportCodeMayNotIncludeRuntime) {
  const std::string snippet = "#include \"runtime/engine.h\"\nvoid f();\n";
  EXPECT_EQ(count_rule(lint_content("src/qtaccel/pipeline.cpp", snippet),
                       RuleId::kLayering),
            1u);
  EXPECT_EQ(count_rule(lint_content("src/env/grid_world.cpp", snippet),
                       RuleId::kLayering),
            1u);
  EXPECT_EQ(count_rule(lint_content("src/telemetry/metrics.cpp", snippet),
                       RuleId::kLayering),
            1u);
  // The runtime itself, the driver above it, and out-of-tree consumers
  // (examples, benches, tools) are the sanctioned includers.
  EXPECT_EQ(count_rule(lint_content("src/runtime/snapshot.cpp", snippet),
                       RuleId::kLayering),
            0u);
  EXPECT_EQ(
      count_rule(lint_content("src/driver/qtaccel_device.cpp", snippet),
                 RuleId::kLayering),
      0u);
  EXPECT_EQ(
      count_rule(lint_content("bench/bench_checkpoint_smoke.cpp", snippet),
                 RuleId::kLayering),
      0u);
}

TEST(QtlintLayering, OnlyRuntimeAndQtaccelNameConcreteBackends) {
  const std::string snippet =
      "#include \"qtaccel/pipeline.h\"\n"
      "#include \"qtaccel/lane_engine.h\"\nvoid f();\n";
  // Everything above the seam goes through the Engine facade instead.
  EXPECT_EQ(count_rule(lint_content("examples/quickstart.cpp", snippet),
                       RuleId::kLayering),
            2u);
  EXPECT_EQ(count_rule(lint_content("bench/bench_microbench.cpp", snippet),
                       RuleId::kLayering),
            2u);
  EXPECT_EQ(
      count_rule(lint_content("src/driver/qtaccel_device.cpp", snippet),
                 RuleId::kLayering),
      2u);
  // The Engine that owns them and the executors' own module keep direct
  // access.
  EXPECT_EQ(count_rule(lint_content("src/runtime/engine.cpp", snippet),
                       RuleId::kLayering),
            0u);
  EXPECT_EQ(count_rule(lint_content("src/qtaccel/machine_state.h",
                                    "#pragma once\n" + snippet),
                       RuleId::kLayering),
            0u);
  // Other qtaccel headers stay fair game for everyone.
  EXPECT_EQ(count_rule(lint_content("examples/quickstart.cpp",
                                    "#include \"qtaccel/config.h\"\n"),
                       RuleId::kLayering),
            0u);
}

TEST(QtlintLayering, OnlyServeIncludesServeWithinSrc) {
  const std::string snippet =
      "#include \"serve/protocol.h\"\nvoid f();\n";
  // Within src/, only the serving layer itself may depend on serve/.
  EXPECT_EQ(count_rule(lint_content("src/runtime/engine.cpp", snippet),
                       RuleId::kLayering),
            1u);
  EXPECT_EQ(count_rule(lint_content("src/env/grid_world.cpp", snippet),
                       RuleId::kLayering),
            1u);
  EXPECT_EQ(count_rule(lint_content("src/serve/server.cpp", snippet),
                       RuleId::kLayering),
            0u);
  // Tools, examples and benches sit above the seam and may.
  EXPECT_EQ(count_rule(lint_content("tools/qtserved.cpp", snippet),
                       RuleId::kLayering),
            0u);
  EXPECT_EQ(
      count_rule(lint_content("bench/bench_checkpoint_smoke.cpp", snippet),
                 RuleId::kLayering),
      0u);
  EXPECT_EQ(count_rule(lint_content("examples/quickstart.cpp", snippet),
                       RuleId::kLayering),
            0u);
}

TEST(QtlintLayering, ShardSitsAboveServeAndNothingIncludesIt) {
  // shard/ may include serve/ (and transitively everything serve may),
  // but no src module below it may include shard/ — the router is the
  // top of the src DAG.
  EXPECT_EQ(count_rule(lint_content("src/shard/router.cpp",
                                    "#include \"serve/protocol.h\"\n"),
                       RuleId::kLayering),
            0u);
  EXPECT_EQ(count_rule(lint_content("src/shard/router.cpp",
                                    "#include \"runtime/engine.h\"\n"),
                       RuleId::kLayering),
            0u);
  const std::string snippet =
      "#include \"shard/router.h\"\nvoid f();\n";
  EXPECT_EQ(count_rule(lint_content("src/serve/server.cpp", snippet),
                       RuleId::kLayering),
            1u);
  EXPECT_EQ(count_rule(lint_content("src/runtime/engine.cpp", snippet),
                       RuleId::kLayering),
            1u);
  EXPECT_EQ(count_rule(lint_content("src/telemetry/metrics.cpp", snippet),
                       RuleId::kLayering),
            1u);
  // Tools and benches sit above the seam.
  EXPECT_EQ(count_rule(lint_content("tools/qtrouterd.cpp", snippet),
                       RuleId::kLayering),
            0u);
  EXPECT_EQ(
      count_rule(lint_content("bench/bench_checkpoint_smoke.cpp", snippet),
                 RuleId::kLayering),
      0u);
  // And shard stays backend-generic like serve.
  EXPECT_EQ(count_rule(lint_content("src/shard/router.cpp",
                                    "#include \"qtaccel/lane_engine.h\"\n"),
                       RuleId::kLayering),
            1u);
}

TEST(QtlintLayering, ServeStaysBackendGeneric) {
  // The serving layer multiplexes Engines; naming a concrete backend
  // would break the snapshot bridge between backends.
  const std::string snippet =
      "#include \"qtaccel/pipeline.h\"\n"
      "#include \"qtaccel/lane_engine.h\"\nvoid f();\n";
  const auto vs = lint_content("src/serve/session_manager.cpp", snippet);
  EXPECT_EQ(count_rule(vs, RuleId::kLayering), 2u);
  // Each restricted-header include fires exactly one violation (the
  // restricted-header check wins over the generic DAG walk).
  EXPECT_EQ(vs.size(), 2u);
  // The sanctioned dependency direction: serve includes runtime/.
  EXPECT_EQ(count_rule(lint_content("src/serve/session_manager.cpp",
                                    "#include \"runtime/engine.h\"\n"),
                       RuleId::kLayering),
            0u);
  // And config.h (backend-agnostic types) stays fair game for serve.
  EXPECT_EQ(count_rule(lint_content("src/serve/protocol.h",
                                    "#pragma once\n"
                                    "#include \"qtaccel/config.h\"\n"),
                       RuleId::kLayering),
            0u);
}

TEST(QtlintLayering, DagRejectsUndeclaredEdgesAndAllowsDeclaredOnes) {
  // Declared edges from the kLayerSpecs table.
  EXPECT_EQ(count_rule(lint_content("src/env/grid_world.cpp",
                                    "#include \"fixed/fixed_point.h\"\n"),
                       RuleId::kLayering),
            0u);
  EXPECT_EQ(count_rule(lint_content("src/runtime/engine.cpp",
                                    "#include \"telemetry/metrics.h\"\n"),
                       RuleId::kLayering),
            0u);
  // Undeclared edges the old boundary scanners never saw.
  EXPECT_EQ(count_rule(lint_content("src/common/cli.cpp",
                                    "#include \"env/environment.h\"\n"),
                       RuleId::kLayering),
            1u);
  EXPECT_EQ(count_rule(lint_content("src/fixed/fixed_point.cpp",
                                    "#include \"rng/lfsr.h\"\n"),
                       RuleId::kLayering),
            1u);
  EXPECT_EQ(count_rule(lint_content("src/telemetry/trace.cpp",
                                    "#include \"env/environment.h\"\n"),
                       RuleId::kLayering),
            1u);
  // Self-includes within a module are always fine.
  EXPECT_EQ(count_rule(lint_content("src/env/grid_world.cpp",
                                    "#include \"env/environment.h\"\n"),
                       RuleId::kLayering),
            0u);
  // System headers and non-module targets are outside the DAG.
  EXPECT_EQ(count_rule(lint_content("src/common/cli.cpp",
                                    "#include <vector>\n"
                                    "#include \"gtest/gtest.h\"\n"),
                       RuleId::kLayering),
            0u);
  // An allow() annotation silences a deliberate edge.
  EXPECT_EQ(count_rule(
                lint_content("src/common/cli.cpp",
                             "#include \"env/environment.h\"  "
                             "// qtlint: allow(layering)\n"),
                RuleId::kLayering),
            0u);
}

TEST(QtlintLayering, RepoPassDetectsIncludeCycles) {
  const std::vector<SourceFile> files = {
      {"src/env/a.h", "#pragma once\n#include \"env/b.h\"\n"},
      {"src/env/b.h", "#pragma once\n#include \"env/c.h\"\n"},
      {"src/env/c.h", "#pragma once\n#include \"env/a.h\"\n"},
      {"src/env/leaf.h", "#pragma once\n#include \"env/a.h\"\n"},
  };
  const auto vs = lint_repo(files);
  ASSERT_EQ(count_rule(vs, RuleId::kLayering), 1u);
  const auto it =
      std::find_if(vs.begin(), vs.end(), [](const Violation& v) {
        return v.rule == RuleId::kLayering;
      });
  EXPECT_NE(it->message.find("include cycle"), std::string::npos);
  EXPECT_NE(it->message.find("src/env/a.h"), std::string::npos);
  EXPECT_NE(it->message.find("src/env/b.h"), std::string::npos);
  EXPECT_NE(it->message.find("src/env/c.h"), std::string::npos);
}

TEST(QtlintLayering, RepoPassResolvesSameDirectoryIncludes) {
  // tools/ sources include siblings by bare name; a mutual include is
  // still a cycle even though neither path starts with src/.
  const std::vector<SourceFile> files = {
      {"tools/demo/x.h", "#pragma once\n#include \"y.h\"\n"},
      {"tools/demo/y.h", "#pragma once\n#include \"x.h\"\n"},
  };
  EXPECT_EQ(count_rule(lint_repo(files), RuleId::kLayering), 1u);
}

TEST(QtlintLayering, RepoPassReportsEachCycleOnce) {
  // Two files that include each other produce ONE cycle report, not one
  // per entry point.
  const std::vector<SourceFile> files = {
      {"src/hw/p.h", "#pragma once\n#include \"hw/q.h\"\n"},
      {"src/hw/q.h", "#pragma once\n#include \"hw/p.h\"\n"},
      {"src/hw/user1.h", "#pragma once\n#include \"hw/p.h\"\n"},
      {"src/hw/user2.h", "#pragma once\n#include \"hw/q.h\"\n"},
  };
  EXPECT_EQ(count_rule(lint_repo(files), RuleId::kLayering), 1u);
}

TEST(QtlintLayering, AcyclicRepoIsCleanAndAllowBreaksCycleEdge) {
  const std::vector<SourceFile> clean = {
      {"src/hw/top.h", "#pragma once\n#include \"hw/base.h\"\n"},
      {"src/hw/base.h", "#pragma once\n"},
  };
  EXPECT_EQ(count_rule(lint_repo(clean), RuleId::kLayering), 0u);
  // An edge under allow(layering) is invisible to the cycle pass.
  const std::vector<SourceFile> allowed = {
      {"src/hw/p.h",
       "#pragma once\n"
       "#include \"hw/q.h\"  // qtlint: allow(layering)\n"},
      {"src/hw/q.h", "#pragma once\n#include \"hw/p.h\"\n"},
  };
  EXPECT_EQ(count_rule(lint_repo(allowed), RuleId::kLayering), 0u);
}

TEST(QtlintMutexAnnotation, FlagsBareStdMutexMembersInSrc) {
  const std::string snippet =
      "#pragma once\n"
      "class S {\n"
      "  std::mutex mu_;\n"
      "  std::condition_variable cv_;\n"
      "  std::shared_mutex smu_;\n"
      "};\n";
  EXPECT_EQ(count_rule(lint_content("src/serve/unit.h", snippet),
                       RuleId::kMutexAnnotation),
            3u);
  // Out-of-src code (tools, tests fixtures, benches) is not scoped.
  EXPECT_EQ(count_rule(lint_content("tools/demo/unit.h", snippet),
                       RuleId::kMutexAnnotation),
            0u);
}

TEST(QtlintMutexAnnotation, AnnotatedAndWrapperDeclarationsPass) {
  // A QTA_ annotation anywhere in the declaration satisfies the rule …
  EXPECT_EQ(count_rule(lint_content(
                           "src/serve/unit.h",
                           "#pragma once\n"
                           "class S { std::mutex mu_ QTA_GUARDED_BY(x); };\n"),
                       RuleId::kMutexAnnotation),
            0u);
  // … as does the annotated qta::Mutex wrapper (no std:: type at all).
  EXPECT_EQ(count_rule(lint_content("src/serve/unit.h",
                                    "#pragma once\n"
                                    "class S { qta::Mutex mu_; };\n"),
                       RuleId::kMutexAnnotation),
            0u);
  // Uses of std lock TYPES in template args / refs are not declarations.
  EXPECT_EQ(
      count_rule(lint_content(
                     "src/serve/unit.cpp",
                     "void f(std::mutex& mu) {\n"
                     "  std::lock_guard<std::mutex> lock(mu);\n"
                     "  std::unique_lock<std::mutex> u(mu);\n"
                     "}\n"),
                 RuleId::kMutexAnnotation),
      0u);
}

TEST(QtlintMutexAnnotation, AllowAnnotationScopesTheEscapeHatch) {
  // The wrappers themselves hold the raw std types; they carry a
  // line-scoped allow, exactly as src/common/mutex.h does.
  const auto vs = lint_content(
      "src/common/unit.h",
      "#pragma once\n"
      "class M {\n"
      "  std::mutex mu_;  // qtlint: allow(mutex-annotation)\n"
      "  std::mutex other_;\n"
      "};\n");
  ASSERT_EQ(count_rule(vs, RuleId::kMutexAnnotation), 1u);
  EXPECT_EQ(vs[0].line, 4u);
}

TEST(QtlintIncludeGraph, ListIncludesReturnsTargetsInLineOrder) {
  const auto edges = list_includes(
      "// #include \"commented/out.h\"\n"
      "#include <vector>\n"
      "#include \"env/environment.h\"\n"
      "const char* s = \"#include \\\"string/literal.h\\\"\";\n"
      "  #  include   \"hw/bram.h\"\n");
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].target, "vector");
  EXPECT_EQ(edges[0].line, 2u);
  EXPECT_EQ(edges[1].target, "env/environment.h");
  EXPECT_EQ(edges[1].line, 3u);
  EXPECT_EQ(edges[2].target, "hw/bram.h");
  EXPECT_EQ(edges[2].line, 5u);
}

TEST(QtlintJson, ReportShapeCarriesFileLineRuleMessageAndCounts) {
  const std::vector<SourceFile> files = {
      {"src/hw/unit.cpp", "double bad;\n"},
      {"src/env/ok.cpp", "int fine;\n"},
  };
  const auto vs = lint_repo(files);
  ASSERT_EQ(vs.size(), 1u);
  std::ostringstream os;
  write_violations_json(os, vs, files.size());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"violations\":["), std::string::npos);
  EXPECT_NE(json.find("\"file\":\"src/hw/unit.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"datapath-purity\""), std::string::npos);
  EXPECT_NE(json.find("\"message\":"), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\":2"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(QtlintJson, EmptyReportStillWellFormed) {
  std::ostringstream os;
  write_violations_json(os, {}, 3);
  EXPECT_EQ(os.str(),
            "{\"violations\":[],\"files_scanned\":3,\"count\":0}\n");
}

TEST(QtlintReporting, ViolationsCarryFileLineAndSortedOrder) {
  const auto vs = lint_content("src/hw/unit.cpp",
                               "int ok;\ndouble bad1;\ndouble bad2;\n");
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].file, "src/hw/unit.cpp");
  EXPECT_EQ(vs[0].line, 2u);
  EXPECT_EQ(vs[1].line, 3u);
}

TEST(QtlintRules, EveryRuleHasNameScopeRationale) {
  for (const RuleId id : all_rules()) {
    EXPECT_FALSE(rule_name(id).empty());
    EXPECT_FALSE(rule_scope(id).empty());
    EXPECT_FALSE(rule_rationale(id).empty());
  }
}

}  // namespace
}  // namespace qta::lint
