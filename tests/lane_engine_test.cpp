// Differential verification of LaneEngine's group schedule: a lane of a
// multi-lane group must retire a bit-identical SampleTrace, Q/Qmax
// tables, RNG registers, AND PipelineStats against a solo engine with
// the same config — a one-lane LaneEngine built as the kFast backend
// builds it, whose runs take the solo schedule (tests/fast_engine_test.cpp
// checks that one against Pipeline and GoldenModel). Covered: every
// (algorithm, qmax mode, hazard mode) shape, obstacle grids, the
// slippery grid's LFSR transition noise, the hazard-dense ring and
// self-loop MDPs, a RandomMdp past the kFast bake bound, mixed-shape
// lane groups, mid-run save/load, and the take_state/put_state donation
// protocol the runtime's lane coalescer uses. The runtime-level
// coalescing itself (Engine fleets and LaneGroupRunner round trips) is
// covered at the bottom.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "env/grid_world.h"
#include "env/random_mdp.h"
#include "qtaccel/lane_engine.h"
#include "qtaccel/machine_state.h"
#include "runtime/engine.h"
#include "runtime/lane_coalescer.h"
#include "runtime/multi_pipeline.h"

namespace qta::qtaccel {
namespace {

env::GridWorldConfig grid_cfg(unsigned w, unsigned h, unsigned acts) {
  env::GridWorldConfig g;
  g.width = w;
  g.height = h;
  g.num_actions = acts;
  g.obstacle_density = 0.15;
  g.obstacle_seed = 77;
  return g;
}

bool stats_eq(const PipelineStats& a, const PipelineStats& b) {
  return a.iterations == b.iterations && a.samples == b.samples &&
         a.bubbles == b.bubbles && a.episodes == b.episodes &&
         a.cycles == b.cycles && a.stall_cycles == b.stall_cycles &&
         a.issued == b.issued && a.fwd_q_sa == b.fwd_q_sa &&
         a.fwd_q_next == b.fwd_q_next && a.fwd_qmax == b.fwd_qmax &&
         a.adder_saturations == b.adder_saturations;
}

// The whole machine: tables, Qmax, RNG registers, walk state, write-back
// ring, counters. Anything diverging here would poison snapshots.
void expect_state_eq(const MachineState& a, const MachineState& b,
                     const std::string& tag) {
  EXPECT_EQ(a.q, b.q) << tag;
  EXPECT_EQ(a.q2, b.q2) << tag;
  EXPECT_EQ(a.qmax_value, b.qmax_value) << tag;
  EXPECT_EQ(a.qmax_action, b.qmax_action) << tag;
  EXPECT_EQ(a.rng, b.rng) << tag;
  EXPECT_EQ(a.episode_start, b.episode_start) << tag;
  EXPECT_EQ(a.state, b.state) << tag;
  EXPECT_EQ(a.pending_action, b.pending_action) << tag;
  EXPECT_EQ(a.episode_steps, b.episode_steps) << tag;
  EXPECT_EQ(a.wb_addrs, b.wb_addrs) << tag;
  EXPECT_EQ(a.dsp_saturations, b.dsp_saturations) << tag;
  EXPECT_TRUE(stats_eq(a.stats, b.stats)) << tag;
}

struct ConfigShape {
  Algorithm algo;
  QmaxMode qmax;
  HazardMode hazard;
  const char* name;
};

constexpr ConfigShape kShapes[] = {
    {Algorithm::kQLearning, QmaxMode::kMonotoneTable, HazardMode::kForward,
     "q_mono_fwd"},
    {Algorithm::kQLearning, QmaxMode::kExactScan, HazardMode::kStall,
     "q_exact_stall"},
    {Algorithm::kSarsa, QmaxMode::kMonotoneTable, HazardMode::kForward,
     "sarsa_mono_fwd"},
    {Algorithm::kSarsa, QmaxMode::kExactScan, HazardMode::kForward,
     "sarsa_exact_fwd"},
    {Algorithm::kExpectedSarsa, QmaxMode::kExactScan, HazardMode::kForward,
     "esarsa_fwd"},
    {Algorithm::kExpectedSarsa, QmaxMode::kExactScan, HazardMode::kStall,
     "esarsa_stall"},
    {Algorithm::kDoubleQ, QmaxMode::kExactScan, HazardMode::kForward,
     "dq_fwd"},
    {Algorithm::kDoubleQ, QmaxMode::kExactScan, HazardMode::kStall,
     "dq_stall"},
};

// The solo reference's config: a one-lane engine of the kFast kind.
PipelineConfig as_fast(PipelineConfig cfg) {
  cfg.backend = Backend::kFast;
  return cfg;
}

// Mixed run shapes (samples target, iteration count, samples again) so
// per-call drain/refill accounting is exercised, not just one long run.
// The lane under test is lane 0 of a two-lane group whose other lane
// (the next seed) always has the larger target, so lane 0 runs on the
// group schedule from entry until it finishes. Both lanes must match
// their solo engines.
void check_group_vs_solo(const env::Environment& env, PipelineConfig cfg,
                         const std::string& tag) {
  std::vector<LaneEngine::LaneSpec> specs(2);
  for (std::size_t i = 0; i < 2; ++i) {
    specs[i].env = &env;
    specs[i].config = cfg;
    specs[i].config.seed = cfg.seed + i;
  }
  LaneEngine group(specs);
  std::vector<std::unique_ptr<LaneEngine>> solos;
  std::vector<std::vector<SampleTrace>> solo_traces(2), lane_traces(2);
  for (std::size_t i = 0; i < 2; ++i) {
    solos.push_back(
        std::make_unique<LaneEngine>(env, as_fast(specs[i].config)));
    solos[i]->set_trace(0, &solo_traces[i]);
    group.set_trace(i, &lane_traces[i]);
  }

  group.run_samples_all({5000, 6000});
  group.run_iterations_all({777, 1777});
  group.run_samples_all({group.stats(0).samples + 3000,
                         group.stats(1).samples + 4000});
  const std::uint64_t first[] = {5000, 6000};
  const std::uint64_t iterations[] = {777, 1777};
  const std::uint64_t last[] = {3000, 4000};
  for (std::size_t i = 0; i < 2; ++i) {
    LaneEngine& solo = *solos[i];
    solo.run_samples(0, first[i]);
    solo.run_iterations(0, iterations[i]);
    solo.run_samples(0, solo.stats(0).samples + last[i]);

    const std::string lane_tag = tag + " lane " + std::to_string(i);
    ASSERT_EQ(solo_traces[i].size(), lane_traces[i].size()) << lane_tag;
    for (std::size_t k = 0; k < solo_traces[i].size(); ++k) {
      ASSERT_TRUE(solo_traces[i][k] == lane_traces[i][k])
          << lane_tag << ": trace diverges at sample " << k;
    }
    EXPECT_TRUE(stats_eq(solo.stats(0), group.stats(i))) << lane_tag;
    expect_state_eq(solo.save_state(0), group.save_state(i), lane_tag);
  }
}

TEST(LaneEngineDifferential, MatchesFastEngineForEveryConfigShape) {
  env::GridWorld small(grid_cfg(32, 32, 4));
  env::GridWorld med(grid_cfg(64, 64, 8));
  // Stochastic transitions: pass_next draws the slip noise from the
  // lane's own LFSR, between the behavior and epsilon draws.
  env::GridWorldConfig slip_cfg;
  slip_cfg.width = 4;
  slip_cfg.height = 4;
  slip_cfg.num_actions = 4;
  slip_cfg.slip_probability = 0.3;
  env::GridWorld slip(slip_cfg);
  for (const ConfigShape& shape : kShapes) {
    PipelineConfig cfg;
    cfg.algorithm = shape.algo;
    cfg.qmax = shape.qmax;
    cfg.hazard = shape.hazard;
    cfg.backend = Backend::kLanes;
    cfg.seed = 42;
    check_group_vs_solo(small, cfg, shape.name);

    PipelineConfig cfg2 = cfg;
    cfg2.seed = 99;
    cfg2.alpha = 0.5;
    check_group_vs_solo(med, cfg2, std::string(shape.name) + "_med");
    check_group_vs_solo(slip, cfg, std::string(shape.name) + "_slip");
  }
}

// Hazard-heavy environments: the ring MDP makes every consecutive update
// a distance-1 dependency; the self-loop MDP hammers one Q row.
TEST(LaneEngineDifferential, MatchesFastEngineUnderForwardingPressure) {
  env::RandomMdpConfig ring;
  ring.num_states = 2;
  ring.num_actions = 4;
  ring.ring = true;
  env::RandomMdp ring_env(ring);

  env::RandomMdpConfig loop;
  loop.num_states = 2;
  loop.num_actions = 2;
  loop.seed = 7;
  loop.self_loop = true;
  env::RandomMdp loop_env(loop);

  for (const ConfigShape& shape : kShapes) {
    PipelineConfig cfg;
    cfg.algorithm = shape.algo;
    cfg.qmax = shape.qmax;
    cfg.hazard = shape.hazard;
    cfg.backend = Backend::kLanes;
    cfg.seed = 5;
    cfg.max_episode_length = 64;
    check_group_vs_solo(ring_env, cfg, std::string(shape.name) + "_ring");
    check_group_vs_solo(loop_env, cfg,
                        std::string(shape.name) + "_selfloop");
  }
}

// Past 2^16 {s,a} pairs the bake rule splits: a kLanes image carries the
// interleaved record table (transition, reward and next-terminal in one
// line), a kFast image calls the environment. Groups, solo kLanes
// engines and solo kFast engines must still agree bit for bit.
TEST(LaneEngineDifferential, RecordTableMatchesEnvironmentCalls) {
  env::RandomMdpConfig mdp;
  mdp.num_states = StateId{1} << 15;  // 2^17 pairs
  mdp.num_actions = 4;
  mdp.seed = 5;
  mdp.terminal_fraction = 0.05;
  env::RandomMdp mdp_env(mdp);

  for (const ConfigShape& shape : kShapes) {
    std::vector<LaneEngine::LaneSpec> specs(3);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].env = &mdp_env;
      specs[i].config.algorithm = shape.algo;
      specs[i].config.qmax = shape.qmax;
      specs[i].config.hazard = shape.hazard;
      specs[i].config.backend = Backend::kLanes;
      specs[i].config.seed = 70 + i;
      specs[i].config.max_episode_length = 256;
    }
    LaneEngine group(specs);
    ASSERT_FALSE(group.env_image(0)->sa.empty()) << shape.name;
    const std::vector<std::uint64_t> targets = {3000, 5000, 4000};
    group.run_samples_all(targets);

    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::string tag =
          std::string(shape.name) + " lane " + std::to_string(i);
      LaneEngine solo_fast(mdp_env, as_fast(specs[i].config));
      ASSERT_TRUE(solo_fast.env_image(0)->sa.empty()) << tag;
      solo_fast.run_samples(0, targets[i]);
      expect_state_eq(solo_fast.save_state(0), group.save_state(i), tag);

      LaneEngine solo_lanes(mdp_env, specs[i].config);
      solo_lanes.run_samples(0, targets[i]);
      expect_state_eq(solo_fast.save_state(0), solo_lanes.save_state(0),
                      tag + " (solo records)");
    }
  }
}

// One group, six lanes, two environments, per-lane seeds/rates, uneven
// targets: every lane must land exactly where its solo double does.
TEST(LaneEngineDifferential, MixedLaneGroupMatchesSoloFastEngines) {
  env::GridWorld small(grid_cfg(32, 32, 4));
  env::GridWorld med(grid_cfg(64, 64, 8));

  std::vector<LaneEngine::LaneSpec> specs;
  for (int i = 0; i < 6; ++i) {
    PipelineConfig cfg;
    cfg.algorithm = Algorithm::kQLearning;
    cfg.backend = Backend::kLanes;
    cfg.seed = 1000 + static_cast<std::uint64_t>(i) * 17;
    cfg.alpha = 0.05 + 0.1 * i;
    LaneEngine::LaneSpec spec;
    spec.env = (i % 2 == 0) ? static_cast<const env::Environment*>(&small)
                            : &med;
    spec.config = cfg;
    specs.push_back(spec);
  }
  LaneEngine group(specs);
  const std::vector<std::uint64_t> targets = {4000, 5500, 1000,
                                              7000, 4000, 2500};
  group.run_samples_all(targets);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    LaneEngine ref(*specs[i].env, as_fast(specs[i].config));
    ref.run_samples(0, targets[i]);
    expect_state_eq(ref.save_state(0), group.save_state(i),
                    "lane " + std::to_string(i));
  }
}

// Lanes at their target must not tick while the group drives laggards.
TEST(LaneEngineDifferential, StaggeredTargetsFreezeFinishedLanes) {
  env::GridWorld small(grid_cfg(32, 32, 4));
  std::vector<LaneEngine::LaneSpec> specs(3);
  for (std::size_t i = 0; i < 3; ++i) {
    specs[i].env = &small;
    specs[i].config.algorithm = Algorithm::kSarsa;
    specs[i].config.backend = Backend::kLanes;
    specs[i].config.seed = 11 + i;
  }
  LaneEngine group(specs);
  group.run_samples_all({2000, 100, 900});
  const MachineState lane0_mid = group.save_state(0);
  // Lane 0 is already at target: only lanes 1 and 2 may advance.
  group.run_samples_all({2000, 1800, 1600});
  expect_state_eq(group.save_state(0), lane0_mid, "frozen lane 0");
  // References replay the group's two-chunk partitioning: analytic
  // cycle accounting carries one drain/refill per run_*() call.
  const std::uint64_t first_chunk[] = {2000, 100, 900};
  const std::uint64_t second_chunk[] = {2000, 1800, 1600};
  for (std::size_t i = 0; i < 3; ++i) {
    LaneEngine ref(small, as_fast(specs[i].config));
    ref.run_samples(0, first_chunk[i]);
    ref.run_samples(0, second_chunk[i]);
    expect_state_eq(ref.save_state(0), group.save_state(i),
                    "staggered lane " + std::to_string(i));
  }
}

// save_state mid-run, reload into a FRESH single-lane engine, continue
// both: the fork and the original must stay bit-identical.
TEST(LaneEngineState, MidRunSaveLoadRoundTripsPerLane) {
  env::GridWorld small(grid_cfg(32, 32, 4));
  std::vector<LaneEngine::LaneSpec> specs(3);
  for (std::size_t i = 0; i < 3; ++i) {
    specs[i].env = &small;
    specs[i].config.algorithm = Algorithm::kDoubleQ;
    specs[i].config.backend = Backend::kLanes;
    specs[i].config.seed = 500 + i;
  }
  LaneEngine group(specs);
  group.run_samples_all({1500, 2500, 3500});

  for (std::size_t i = 0; i < 3; ++i) {
    LaneEngine fork(small, specs[i].config);
    fork.load_state(0, group.save_state(i));
    const std::uint64_t target = group.stats(i).samples + 2000;
    fork.run_samples(0, target);
    group.run_samples(i, target);
    expect_state_eq(group.save_state(i), fork.save_state(0),
                    "fork lane " + std::to_string(i));
  }
}

// The donation protocol behind runtime lane coalescing: take_state out
// of single-lane engines, put_state into a deferred-table group, run,
// donate back, continue solo — against an uninterrupted solo run.
TEST(LaneEngineState, TakeAndPutStateDonationIsBitInvisible) {
  env::GridWorld small(grid_cfg(32, 32, 4));
  PipelineConfig base;
  base.algorithm = Algorithm::kExpectedSarsa;
  base.backend = Backend::kLanes;

  std::vector<std::unique_ptr<LaneEngine>> singles;
  std::vector<PipelineConfig> cfgs;
  for (std::uint64_t i = 0; i < 4; ++i) {
    PipelineConfig cfg = base;
    cfg.seed = 300 + i * 7;
    cfgs.push_back(cfg);
    singles.push_back(std::make_unique<LaneEngine>(small, cfg));
    singles.back()->run_samples(0, 1000 + 250 * i);
  }

  {
    std::vector<LaneEngine::LaneSpec> specs;
    std::vector<MachineState> states;
    for (std::size_t i = 0; i < singles.size(); ++i) {
      LaneEngine::LaneSpec spec;
      spec.env = &small;
      spec.config = cfgs[i];
      spec.image = singles[i]->env_image(0);
      spec.defer_tables = true;
      specs.push_back(spec);
      states.push_back(singles[i]->take_state(0));
    }
    LaneEngine group(specs);
    for (std::size_t i = 0; i < states.size(); ++i) {
      group.put_state(i, std::move(states[i]));
    }
    std::vector<std::uint64_t> targets;
    for (std::size_t i = 0; i < singles.size(); ++i) {
      targets.push_back(group.stats(i).samples + 3000);
    }
    group.run_samples_all(targets);
    for (std::size_t i = 0; i < singles.size(); ++i) {
      singles[i]->put_state(0, group.take_state(i));
    }
  }

  for (std::size_t i = 0; i < singles.size(); ++i) {
    singles[i]->run_samples(0, singles[i]->stats(0).samples + 500);
    LaneEngine solo(small, as_fast(cfgs[i]));
    solo.run_samples(0, 1000 + 250 * i);
    solo.run_samples(0, solo.stats(0).samples + 3000);
    solo.run_samples(0, solo.stats(0).samples + 500);
    expect_state_eq(solo.save_state(0), singles[i]->save_state(0),
                    "donated lane " + std::to_string(i));
  }
}

// Runtime layer: a kLanes Engine fleet coalesced by run_samples_each
// must be bit-identical to the same fleet on the fast backend.
TEST(LaneCoalescer, FleetRunsBitExactVsFastBackend) {
  auto make_envs = [] {
    std::vector<std::unique_ptr<env::Environment>> envs;
    for (int i = 0; i < 6; ++i) {
      envs.push_back(std::make_unique<env::GridWorld>(
          grid_cfg(i % 2 == 0 ? 16 : 32, 16, 4)));
    }
    return envs;
  };
  PipelineConfig lanes_cfg;
  lanes_cfg.algorithm = Algorithm::kQLearning;
  lanes_cfg.backend = Backend::kLanes;
  lanes_cfg.seed = 77;
  PipelineConfig fast_cfg = lanes_cfg;
  fast_cfg.backend = Backend::kFast;

  runtime::IndependentPipelines lanes_fleet(make_envs(), lanes_cfg);
  runtime::IndependentPipelines fast_fleet(make_envs(), fast_cfg);
  // Two calls: the second's targets are absolute, so lanes that
  // overshot on drain must not re-run the overshoot.
  for (const std::uint64_t target : {4000u, 9000u}) {
    lanes_fleet.run_samples_each(target, 1);
    fast_fleet.run_samples_each(target, 1);
  }

  ASSERT_EQ(lanes_fleet.num_pipelines(), fast_fleet.num_pipelines());
  for (unsigned p = 0; p < lanes_fleet.num_pipelines(); ++p) {
    const auto& le = lanes_fleet.engine(p);
    const auto& fe = fast_fleet.engine(p);
    EXPECT_TRUE(stats_eq(le.stats(), fe.stats())) << "pipeline " << p;
    const auto& env = lanes_fleet.environment(p);
    for (StateId s = 0; s < env.num_states(); ++s) {
      for (ActionId a = 0; a < env.num_actions(); ++a) {
        ASSERT_EQ(le.q_raw(s, a), fe.q_raw(s, a))
            << "pipeline " << p << " Q(" << s << "," << a << ")";
      }
    }
  }
}

// LaneGroupRunner scoped twice over the same engines: state migrates
// out and back each time, and the detour must be bit-invisible vs solo
// fast-backend engines partitioned the same way.
TEST(LaneCoalescer, GroupRunnerRoundTripIsBitInvisible) {
  env::GridWorld small(grid_cfg(16, 16, 4));
  env::GridWorld med(grid_cfg(64, 32, 8));

  std::vector<std::unique_ptr<runtime::Engine>> engines;
  std::vector<std::unique_ptr<runtime::Engine>> solos;
  std::vector<runtime::Engine*> members;
  for (int i = 0; i < 4; ++i) {
    PipelineConfig cfg;
    cfg.algorithm = Algorithm::kSarsa;
    cfg.backend = Backend::kLanes;
    cfg.seed = 40 + static_cast<std::uint64_t>(i);
    cfg.alpha = 0.1 + 0.05 * i;
    const env::Environment& env =
        (i < 2) ? static_cast<const env::Environment&>(small) : med;
    engines.push_back(std::make_unique<runtime::Engine>(env, cfg));
    members.push_back(engines.back().get());
    PipelineConfig solo_cfg = cfg;
    solo_cfg.backend = Backend::kFast;
    solos.push_back(std::make_unique<runtime::Engine>(env, solo_cfg));
  }

  ASSERT_TRUE(runtime::is_lane_backend(*members[0]));
  ASSERT_TRUE(runtime::can_coalesce(*members[0], *members[3]));
  // A kFast engine runs the same engine but never joins a group.
  ASSERT_FALSE(runtime::is_lane_backend(*solos[0]));
  ASSERT_FALSE(runtime::can_coalesce(*members[0], *solos[0]));

  const std::vector<std::uint64_t> steps = {1000, 2000, 1500, 3000};
  {
    runtime::LaneGroupRunner runner(members);
    runner.run_steps(steps);
  }
  for (std::size_t i = 0; i < solos.size(); ++i) {
    solos[i]->run_samples(solos[i]->stats().samples + steps[i]);
  }
  // Second detour through a fresh group: run_steps is relative to the
  // retired totals, matching the serve Step contract.
  {
    runtime::LaneGroupRunner runner(members);
    runner.run_steps(steps);
  }
  for (std::size_t i = 0; i < solos.size(); ++i) {
    solos[i]->run_samples(solos[i]->stats().samples + steps[i]);
  }

  for (std::size_t i = 0; i < engines.size(); ++i) {
    EXPECT_TRUE(stats_eq(engines[i]->stats(), solos[i]->stats()))
        << "engine " << i;
    const env::Environment& env = engines[i]->environment();
    for (StateId s = 0; s < env.num_states(); ++s) {
      for (ActionId a = 0; a < env.num_actions(); ++a) {
        ASSERT_EQ(engines[i]->q_raw(s, a), solos[i]->q_raw(s, a))
            << "engine " << i << " Q(" << s << "," << a << ")";
      }
    }
  }
}

}  // namespace
}  // namespace qta::qtaccel
