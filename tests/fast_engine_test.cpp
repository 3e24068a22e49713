// Differential verification of the fast functional backend: a
// runtime::Engine with Backend::kFast (a one-lane LaneEngine, so every
// run takes the solo schedule) must retire a bit-identical SampleTrace,
// final Q/Qmax tables, AND a bit-identical PipelineStats against both
// the cycle-accurate Pipeline and the sequential GoldenModel, for every
// algorithm, qmax mode, and hazard mode — the stats are reconstructed
// analytically, so every counter (cycles, stalls, per-path forwarding
// hits, saturations) is a falsifiable claim about the derivation, not
// just the arithmetic. tests/lane_engine_test.cpp checks the group
// schedule against this one.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "env/grid_world.h"
#include "env/random_mdp.h"
#include "qtaccel/golden_model.h"
#include "qtaccel/lane_engine.h"
#include "qtaccel/pipeline.h"
#include "runtime/engine.h"
#include "runtime/lane_coalescer.h"
#include "runtime/snapshot.h"

namespace qta::qtaccel {
namespace {

enum class FastEnvKind {
  kRing2,      // every consecutive update is a distance-1 hazard
  kSelfLoop,   // one Q row hammered until the watchdog fires
  kGrid8x8,    // episodic restarts, bubbles on terminal draws
  kGrid4x4Slippery,  // stochastic transitions (noise LFSR, no prebake)
  kGrid4x4EightActions,
};

const char* env_name(FastEnvKind k) {
  switch (k) {
    case FastEnvKind::kRing2: return "ring2";
    case FastEnvKind::kSelfLoop: return "selfloop";
    case FastEnvKind::kGrid8x8: return "grid8x8";
    case FastEnvKind::kGrid4x4Slippery: return "grid4x4slip";
    case FastEnvKind::kGrid4x4EightActions: return "grid4x4a8";
  }
  return "?";
}

std::unique_ptr<env::Environment> make_env(FastEnvKind kind) {
  switch (kind) {
    case FastEnvKind::kRing2: {
      env::RandomMdpConfig c;
      c.num_states = 2;
      c.num_actions = 4;
      c.ring = true;
      c.reward_lo = -2.0;
      c.reward_hi = 2.0;
      return std::make_unique<env::RandomMdp>(c);
    }
    case FastEnvKind::kSelfLoop: {
      env::RandomMdpConfig c;
      c.num_states = 2;
      c.num_actions = 2;
      c.seed = 7;
      c.self_loop = true;
      return std::make_unique<env::RandomMdp>(c);
    }
    case FastEnvKind::kGrid8x8: {
      env::GridWorldConfig c;
      c.width = 8;
      c.height = 8;
      c.num_actions = 4;
      c.obstacle_density = 0.2;
      c.obstacle_seed = 11;
      return std::make_unique<env::GridWorld>(c);
    }
    case FastEnvKind::kGrid4x4Slippery: {
      env::GridWorldConfig c;
      c.width = 4;
      c.height = 4;
      c.num_actions = 4;
      c.slip_probability = 0.3;
      return std::make_unique<env::GridWorld>(c);
    }
    case FastEnvKind::kGrid4x4EightActions: {
      env::GridWorldConfig c;
      c.width = 4;
      c.height = 4;
      c.num_actions = 8;
      return std::make_unique<env::GridWorld>(c);
    }
  }
  return nullptr;
}

struct FastCase {
  Algorithm algorithm;
  QmaxMode qmax;
  HazardMode hazard;
  FastEnvKind env;
  std::uint64_t seed;
};

std::string case_name(const testing::TestParamInfo<FastCase>& info) {
  const FastCase& c = info.param;
  std::ostringstream os;
  const char* algo_name = "QL";
  switch (c.algorithm) {
    case Algorithm::kQLearning: algo_name = "QL"; break;
    case Algorithm::kSarsa: algo_name = "SARSA"; break;
    case Algorithm::kExpectedSarsa: algo_name = "ESARSA"; break;
    case Algorithm::kDoubleQ: algo_name = "DQ"; break;
  }
  os << algo_name << '_'
     << (c.qmax == QmaxMode::kMonotoneTable ? "mono" : "exact") << '_'
     << (c.hazard == HazardMode::kForward ? "fwd" : "stall") << '_'
     << env_name(c.env) << "_s" << c.seed;
  return os.str();
}

std::vector<FastCase> make_cases() {
  std::vector<FastCase> cases;
  const FastEnvKind envs[] = {
      FastEnvKind::kRing2, FastEnvKind::kSelfLoop, FastEnvKind::kGrid8x8,
      FastEnvKind::kGrid4x4Slippery, FastEnvKind::kGrid4x4EightActions,
  };
  for (auto algorithm : {Algorithm::kQLearning, Algorithm::kSarsa,
                         Algorithm::kExpectedSarsa, Algorithm::kDoubleQ}) {
    for (auto qmax : {QmaxMode::kMonotoneTable, QmaxMode::kExactScan}) {
      for (FastEnvKind e : envs) {
        for (std::uint64_t seed : {1ull, 99ull}) {
          cases.push_back(
              {algorithm, qmax, HazardMode::kForward, e, seed});
        }
      }
      // Stall-mode timing model (4 cycles/iteration, zero fwd_qmax) on
      // the two hazard-densest environments.
      cases.push_back({algorithm, qmax, HazardMode::kStall,
                       FastEnvKind::kRing2, 5});
      cases.push_back({algorithm, qmax, HazardMode::kStall,
                       FastEnvKind::kSelfLoop, 5});
    }
  }
  return cases;
}

PipelineConfig make_config(const FastCase& c) {
  PipelineConfig config;
  config.algorithm = c.algorithm;
  config.qmax = c.qmax;
  config.hazard = c.hazard;
  config.alpha = 0.25;
  config.gamma = 0.9;
  config.epsilon = 0.1;
  config.seed = c.seed;
  config.max_episode_length = 64;  // exercise the watchdog path too
  config.backend = Backend::kFast;  // Pipeline and GoldenModel ignore it
  return config;
}

void expect_same_stats(const PipelineStats& want,
                       const PipelineStats& got) {
  EXPECT_EQ(want.iterations, got.iterations);
  EXPECT_EQ(want.samples, got.samples);
  EXPECT_EQ(want.episodes, got.episodes);
  EXPECT_EQ(want.bubbles, got.bubbles);
  EXPECT_EQ(want.cycles, got.cycles);
  EXPECT_EQ(want.issued, got.issued);
  EXPECT_EQ(want.stall_cycles, got.stall_cycles);
  EXPECT_EQ(want.fwd_q_sa, got.fwd_q_sa);
  EXPECT_EQ(want.fwd_q_next, got.fwd_q_next);
  EXPECT_EQ(want.fwd_qmax, got.fwd_qmax);
  EXPECT_EQ(want.adder_saturations, got.adder_saturations);
}

void expect_same_tables(const env::Environment& env, const FastCase& c,
                        const Pipeline& pipeline,
                        const runtime::Engine& fast) {
  for (StateId s = 0; s < env.num_states(); ++s) {
    for (ActionId a = 0; a < env.num_actions(); ++a) {
      ASSERT_EQ(pipeline.q_raw(s, a), fast.q_raw(s, a))
          << "Q mismatch at s=" << s << " a=" << a;
      if (c.algorithm == Algorithm::kDoubleQ) {
        ASSERT_EQ(pipeline.q2_raw(s, a), fast.q2_raw(s, a))
            << "Q2 mismatch at s=" << s << " a=" << a;
      }
    }
    if (c.qmax == QmaxMode::kMonotoneTable &&
        c.algorithm != Algorithm::kExpectedSarsa &&
        c.algorithm != Algorithm::kDoubleQ) {
      const auto want = pipeline.qmax_entry(s);
      const auto got = fast.qmax_entry(s);
      ASSERT_EQ(want.value, got.value) << "Qmax value, s=" << s;
      if (want.value != 0) {
        ASSERT_EQ(want.action, got.action) << "Qmax action, s=" << s;
      }
    }
  }
}

class FastEngineTest : public testing::TestWithParam<FastCase> {};

// run_iterations across uneven chunk boundaries (each call pays its own
// drain, so per-call cycle accounting is exercised, not just the total).
TEST_P(FastEngineTest, IterationsMatchPipelineAndGolden) {
  const FastCase& c = GetParam();
  auto environment = make_env(c.env);
  const PipelineConfig config = make_config(c);
  constexpr std::uint64_t kChunks[] = {1, 4096, 7903, 1};  // 12001 total

  GoldenModel golden(*environment, config);
  std::vector<SampleTrace> golden_trace;
  golden.set_trace(&golden_trace);

  Pipeline pipeline(*environment, config);
  std::vector<SampleTrace> pipe_trace;
  pipeline.set_trace(&pipe_trace);

  runtime::Engine fast(*environment, config);
  std::vector<SampleTrace> fast_trace;
  fast.set_trace(&fast_trace);

  for (std::uint64_t n : kChunks) {
    golden.run(n);
    pipeline.run_iterations(n);
    fast.run_iterations(n);
  }

  ASSERT_EQ(golden_trace.size(), fast_trace.size());
  for (std::size_t i = 0; i < golden_trace.size(); ++i) {
    ASSERT_EQ(golden_trace[i], fast_trace[i])
        << "golden/fast divergence at " << i;
  }
  ASSERT_EQ(pipe_trace.size(), fast_trace.size());
  for (std::size_t i = 0; i < pipe_trace.size(); ++i) {
    ASSERT_EQ(pipe_trace[i], fast_trace[i])
        << "pipeline/fast divergence at " << i;
  }

  expect_same_tables(*environment, c, pipeline, fast);
  // Golden's tables too (same addresses; catches shared wrong-by-the-
  // same-bug failures between the two replay implementations).
  for (StateId s = 0; s < environment->num_states(); ++s) {
    for (ActionId a = 0; a < environment->num_actions(); ++a) {
      ASSERT_EQ(golden.q_raw(s, a), fast.q_raw(s, a));
    }
  }

  expect_same_stats(pipeline.stats(), fast.stats());
  EXPECT_EQ(pipeline.dsp_saturations(), fast.dsp_saturations());
}

// run_samples must reproduce the pipeline's drain overshoot exactly:
// in forward mode the final tables include 3 extra retired iterations.
TEST_P(FastEngineTest, SamplesMatchPipeline) {
  const FastCase& c = GetParam();
  auto environment = make_env(c.env);
  const PipelineConfig config = make_config(c);

  Pipeline pipeline(*environment, config);
  std::vector<SampleTrace> pipe_trace;
  pipeline.set_trace(&pipe_trace);

  runtime::Engine fast(*environment, config);
  std::vector<SampleTrace> fast_trace;
  fast.set_trace(&fast_trace);

  // Successive targets, including a no-op (already past 1500 after 3000).
  for (std::uint64_t target : {3000ull, 1500ull, 5000ull}) {
    pipeline.run_samples(target);
    fast.run_samples(target);
  }

  ASSERT_EQ(pipe_trace.size(), fast_trace.size());
  for (std::size_t i = 0; i < pipe_trace.size(); ++i) {
    ASSERT_EQ(pipe_trace[i], fast_trace[i]) << "divergence at " << i;
  }
  expect_same_tables(*environment, c, pipeline, fast);
  expect_same_stats(pipeline.stats(), fast.stats());
  EXPECT_EQ(pipeline.dsp_saturations(), fast.dsp_saturations());
}

INSTANTIATE_TEST_SUITE_P(Sweep, FastEngineTest,
                         testing::ValuesIn(make_cases()), case_name);

// Table I's largest case, 512x512 states x 8 actions, through both
// executors. The sweep above tops out at 8x8 (StreamPin at 16x16), so
// this is the only fast-engine differential whose grid states need more
// than 16 bits; 150k iterations in two uneven calls.
class FastEngineTableOne : public testing::TestWithParam<Algorithm> {};

TEST_P(FastEngineTableOne, LargestCaseMatchesPipeline) {
  env::GridWorldConfig gc;
  gc.width = 512;
  gc.height = 512;
  gc.num_actions = 8;
  const env::GridWorld world(gc);
  PipelineConfig config;
  config.algorithm = GetParam();
  config.seed = 12345;
  config.max_episode_length = 4096;
  config.backend = Backend::kFast;  // Pipeline ignores it

  Pipeline pipeline(world, config);
  std::vector<SampleTrace> pipe_trace;
  pipeline.set_trace(&pipe_trace);

  runtime::Engine fast(world, config);
  std::vector<SampleTrace> fast_trace;
  fast.set_trace(&fast_trace);

  for (const std::uint64_t n : {50000ull, 100000ull}) {
    pipeline.run_iterations(n);
    fast.run_iterations(n);
  }

  ASSERT_EQ(pipe_trace.size(), fast_trace.size());
  for (std::size_t i = 0; i < pipe_trace.size(); ++i) {
    ASSERT_EQ(pipe_trace[i], fast_trace[i]) << "divergence at " << i;
  }
  for (StateId s = 0; s < world.num_states(); ++s) {
    for (ActionId a = 0; a < world.num_actions(); ++a) {
      ASSERT_EQ(pipeline.q_raw(s, a), fast.q_raw(s, a))
          << "Q mismatch at s=" << s << " a=" << a;
    }
    ASSERT_EQ(pipeline.qmax_entry(s).value, fast.qmax_entry(s).value)
        << "Qmax value, s=" << s;
  }
  expect_same_stats(pipeline.stats(), fast.stats());
  EXPECT_EQ(pipeline.dsp_saturations(), fast.dsp_saturations());
}

std::string algorithm_name(const testing::TestParamInfo<Algorithm>& info) {
  return info.param == Algorithm::kQLearning ? "QL" : "SARSA";
}

INSTANTIATE_TEST_SUITE_P(Grid512x512, FastEngineTableOne,
                         testing::Values(Algorithm::kQLearning,
                                         Algorithm::kSarsa),
                         algorithm_name);

// Warm-start path: preset_q + rebuild_qmax must leave both backends in
// the same state, and stay bit-identical when training resumes.
TEST(FastEngineWarmStart, PresetAndRebuildMatchPipeline) {
  auto environment = make_env(FastEnvKind::kGrid8x8);
  PipelineConfig config;
  config.algorithm = Algorithm::kQLearning;
  config.seed = 21;
  config.backend = Backend::kFast;

  Pipeline pipeline(*environment, config);
  runtime::Engine fast(*environment, config);
  for (StateId s = 0; s < environment->num_states(); ++s) {
    const fixed::raw_t v =
        fixed::from_double(0.01 * static_cast<double>(s % 17) - 0.05,
                           config.q_fmt);
    pipeline.preset_q(s, s % environment->num_actions(), v);
    fast.preset_q(s, s % environment->num_actions(), v);
  }
  pipeline.rebuild_qmax();
  fast.rebuild_qmax();
  pipeline.run_iterations(4000);
  fast.run_iterations(4000);
  for (StateId s = 0; s < environment->num_states(); ++s) {
    for (ActionId a = 0; a < environment->num_actions(); ++a) {
      ASSERT_EQ(pipeline.q_raw(s, a), fast.q_raw(s, a));
    }
    ASSERT_EQ(pipeline.qmax_entry(s).value, fast.qmax_entry(s).value);
  }
}

// The Engine facade dispatches per config.backend and both choices agree.
TEST(EngineFacade, BackendsProduceIdenticalResults) {
  auto environment = make_env(FastEnvKind::kGrid8x8);
  PipelineConfig config;
  config.algorithm = Algorithm::kSarsa;
  config.seed = 3;

  config.backend = Backend::kCycleAccurate;
  runtime::Engine cycle(*environment, config);
  config.backend = Backend::kFast;
  runtime::Engine fast(*environment, config);

  EXPECT_EQ(cycle.config().backend, Backend::kCycleAccurate);
  EXPECT_EQ(fast.config().backend, Backend::kFast);

  cycle.run_samples(8000);
  fast.run_samples(8000);
  EXPECT_EQ(cycle.stats().samples, fast.stats().samples);
  EXPECT_EQ(cycle.stats().cycles, fast.stats().cycles);
  const auto want = cycle.q_as_double();
  const auto got = fast.q_as_double();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << "q_as_double divergence at " << i;
  }
  for (StateId s = 0; s < environment->num_states(); ++s) {
    for (ActionId a = 0; a < environment->num_actions(); ++a) {
      ASSERT_EQ(cycle.q_value(s, a), fast.q_value(s, a))
          << "q_value divergence at s=" << s << " a=" << a;
    }
  }
  EXPECT_EQ(cycle.greedy_policy(), fast.greedy_policy());
}

// Each kind builds exactly one executor, and callers probe for it:
// cycle_pipeline() is the cycle-only surface (waveforms, CycleEvents,
// Bram port audit, tick-level stepping), lane_engine() the functional
// one, and only a kLanes engine may join a lane group.
TEST(EngineFacade, CapabilityFlagsAndNullableCyclePipeline) {
  auto environment = make_env(FastEnvKind::kRing2);
  PipelineConfig config;

  config.backend = Backend::kCycleAccurate;
  runtime::Engine cycle(*environment, config);
  EXPECT_EQ(cycle.config().backend, Backend::kCycleAccurate);
  ASSERT_NE(cycle.cycle_pipeline(), nullptr);
  EXPECT_EQ(cycle.lane_engine(), nullptr);
  EXPECT_FALSE(runtime::is_lane_backend(cycle));

  config.backend = Backend::kFast;
  runtime::Engine fast(*environment, config);
  EXPECT_EQ(fast.config().backend, Backend::kFast);
  EXPECT_EQ(fast.cycle_pipeline(), nullptr);
  ASSERT_NE(fast.lane_engine(), nullptr);
  EXPECT_EQ(fast.lane_engine()->num_lanes(), 1u);
  EXPECT_FALSE(runtime::is_lane_backend(fast));

  config.backend = Backend::kLanes;
  runtime::Engine lanes(*environment, config);
  EXPECT_EQ(lanes.config().backend, Backend::kLanes);
  EXPECT_EQ(lanes.cycle_pipeline(), nullptr);
  ASSERT_NE(lanes.lane_engine(), nullptr);
  EXPECT_EQ(lanes.lane_engine()->num_lanes(), 1u);
  EXPECT_TRUE(runtime::is_lane_backend(lanes));
  EXPECT_TRUE(runtime::can_coalesce(lanes, lanes));
  EXPECT_FALSE(runtime::can_coalesce(lanes, fast));
}

// Once an episode ends, the executors leave different values in the dead
// walk registers (the Pipeline the next state, the LaneEngine the last
// one), which the next iteration redraws anyway. Engine::save_state
// reports them canonically, so a snapshot taken at an episode boundary
// is byte-identical across the three kinds.
TEST(EngineFacade, EpisodeBoundarySnapshotsMatchAcrossKinds) {
  auto environment = make_env(FastEnvKind::kGrid8x8);
  for (auto algorithm : {Algorithm::kQLearning, Algorithm::kSarsa,
                         Algorithm::kExpectedSarsa, Algorithm::kDoubleQ}) {
    PipelineConfig config;
    config.algorithm = algorithm;
    config.max_episode_length = 16;
    config.seed = 5;
    const auto run = [&](Backend backend, std::uint64_t samples) {
      PipelineConfig c = config;
      c.backend = backend;
      auto engine = std::make_unique<runtime::Engine>(*environment, c);
      engine->run_samples(samples);
      return engine;
    };
    const auto snapshot = [](const runtime::Engine& engine) {
      std::ostringstream os;
      runtime::save_snapshot(engine, os);
      return std::move(os).str();
    };
    unsigned boundaries = 0;
    for (std::uint64_t n = 1; n <= 200 && boundaries < 3; ++n) {
      const auto fast = run(Backend::kFast, n);
      if (!fast->save_state().episode_start) continue;
      ++boundaries;
      SCOPED_TRACE(std::string(algorithm_name(algorithm)) + " after " +
                   std::to_string(n) + " samples");
      const std::string want = snapshot(*fast);
      EXPECT_EQ(snapshot(*run(Backend::kLanes, n)), want);
      EXPECT_EQ(snapshot(*run(Backend::kCycleAccurate, n)), want);
    }
    EXPECT_EQ(boundaries, 3u) << algorithm_name(algorithm);
  }
}

TEST(BackendParsing, RoundTripsAndRejectsJunk) {
  EXPECT_EQ(parse_backend("cycle"), Backend::kCycleAccurate);
  EXPECT_EQ(parse_backend("cycle-accurate"), Backend::kCycleAccurate);
  EXPECT_EQ(parse_backend("fast"), Backend::kFast);
  EXPECT_EQ(parse_backend("lanes"), Backend::kLanes);
  EXPECT_STREQ(backend_name(Backend::kCycleAccurate), "cycle");
  EXPECT_STREQ(backend_name(Backend::kFast), "fast");
  EXPECT_STREQ(backend_name(Backend::kLanes), "lanes");
  EXPECT_DEATH(parse_backend("warp"), "--backend");
}

}  // namespace
}  // namespace qta::qtaccel
