#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "env/grid_world.h"
#include "env/partition.h"
#include "env/value_iteration.h"
#include "runtime/multi_pipeline.h"

namespace qta::qtaccel {
namespace {

using runtime::IndependentPipelines;
using runtime::SharedTablePipelines;

env::GridWorldConfig grid(unsigned w, unsigned h, unsigned a = 4) {
  env::GridWorldConfig c;
  c.width = w;
  c.height = h;
  c.num_actions = a;
  return c;
}

TEST(SharedPipelines, DoublesSamplesPerCycle) {
  env::GridWorld g(grid(8, 8));
  PipelineConfig c;
  c.seed = 1;
  SharedTablePipelines dual(g, c, 2);
  dual.run_cycles(5000);
  // Each pipeline issues every cycle; minus fill and rare bubbles the
  // combined rate approaches 2 samples/cycle.
  EXPECT_GT(dual.samples_per_cycle(), 1.95);
}

TEST(SharedPipelines, SinglePipelineVariantMatchesPlainRate) {
  env::GridWorld g(grid(8, 8));
  PipelineConfig c;
  c.seed = 1;
  SharedTablePipelines solo(g, c, 1);
  solo.run_cycles(5000);
  EXPECT_GT(solo.samples_per_cycle(), 0.97);
  EXPECT_LE(solo.samples_per_cycle(), 1.0);
}

TEST(SharedPipelines, CollisionsHappenAndAreCounted) {
  // Tiny world: two agents constantly trample the same cells.
  env::GridWorld g(grid(4, 4));
  PipelineConfig c;
  c.seed = 2;
  SharedTablePipelines dual(g, c, 2);
  dual.run_cycles(20000);
  EXPECT_GT(dual.q_write_collisions(), 0u);
}

TEST(SharedPipelines, CollisionRateDropsWithWorldSize) {
  PipelineConfig c;
  c.seed = 3;
  env::GridWorld small(grid(4, 4));
  env::GridWorld large(grid(32, 32));
  SharedTablePipelines dual_small(small, c, 2);
  SharedTablePipelines dual_large(large, c, 2);
  dual_small.run_cycles(20000);
  dual_large.run_cycles(20000);
  const double rate_small =
      static_cast<double>(dual_small.q_write_collisions()) / 20000.0;
  const double rate_large =
      static_cast<double>(dual_large.q_write_collisions()) / 20000.0;
  EXPECT_GT(rate_small, rate_large);
}

TEST(SharedPipelines, SharedTableStillLearnsGoal) {
  env::GridWorld g(grid(8, 8));
  PipelineConfig c;
  c.alpha = 0.2;
  c.seed = 4;
  SharedTablePipelines dual(g, c, 2);
  dual.run_samples_total(300000);
  // Greedy policy from the shared table reaches the goal.
  std::vector<ActionId> policy(g.num_states(), 0);
  for (StateId s = 0; s < g.num_states(); ++s) {
    double best = -1e300;
    for (ActionId a = 0; a < g.num_actions(); ++a) {
      if (dual.q_value(s, a) > best) {
        best = dual.q_value(s, a);
        policy[s] = a;
      }
    }
  }
  EXPECT_GE(env::rollout_steps(g, policy, g.state_of(0, 0), 200), 0);
}

TEST(SharedPipelines, ConvergesFasterInWallClockCycles) {
  // The paper's claim: two agents sharing a Q table reach a trained table
  // in fewer cycles than one agent. Compare cycles needed for the start
  // state's Qmax path to form (proxy: total samples at fixed cycles, and
  // policy quality at equal cycle budgets).
  env::GridWorld g(grid(8, 8));
  PipelineConfig c;
  c.alpha = 0.2;
  c.seed = 5;
  SharedTablePipelines solo(g, c, 1);
  SharedTablePipelines dual(g, c, 2);
  const std::uint64_t budget = 60000;
  solo.run_cycles(budget);
  dual.run_cycles(budget);
  EXPECT_GT(dual.total_samples(), solo.total_samples() * 3 / 2);
}

TEST(SharedPipelines, SarsaAgentsShareATableToo) {
  env::GridWorld g(grid(8, 8));
  PipelineConfig c;
  c.algorithm = Algorithm::kSarsa;
  c.epsilon = 0.3;
  c.alpha = 0.2;
  c.seed = 9;
  c.max_episode_length = 256;
  SharedTablePipelines dual(g, c, 2);
  dual.run_cycles(120000);
  EXPECT_GT(dual.samples_per_cycle(), 1.9);
  std::vector<ActionId> policy(g.num_states(), 0);
  for (StateId s = 0; s < g.num_states(); ++s) {
    double best = -1e300;
    for (ActionId a = 0; a < g.num_actions(); ++a) {
      if (dual.q_value(s, a) > best) {
        best = dual.q_value(s, a);
        policy[s] = a;
      }
    }
  }
  int reached = 0, total = 0;
  for (StateId s = 0; s < g.num_states(); ++s) {
    if (g.is_terminal(s)) continue;
    ++total;
    reached += env::rollout_steps(g, policy, s, 500) >= 0 ? 1 : 0;
  }
  EXPECT_GE(reached, total * 8 / 10);
}

TEST(IndependentPipelines, EachBandLearnsItsOwnGoal) {
  auto bands = env::partition_grid(grid(8, 16), 4);
  std::vector<std::unique_ptr<env::Environment>> envs;
  for (const auto& b : bands) {
    envs.push_back(std::make_unique<env::GridWorld>(b));
  }
  PipelineConfig c;
  c.alpha = 0.2;
  c.seed = 6;
  IndependentPipelines rovers(std::move(envs), c);
  rovers.run_samples_each(60000, 2);

  ASSERT_EQ(rovers.num_pipelines(), 4u);
  for (unsigned i = 0; i < 4; ++i) {
    const auto& band_env =
        static_cast<const env::GridWorld&>(rovers.environment(i));
    const runtime::Engine& p = rovers.engine(i);
    std::vector<ActionId> policy(band_env.num_states(), 0);
    for (StateId s = 0; s < band_env.num_states(); ++s) {
      double best = -1e300;
      for (ActionId a = 0; a < band_env.num_actions(); ++a) {
        if (p.q_value(s, a) > best) {
          best = p.q_value(s, a);
          policy[s] = a;
        }
      }
    }
    EXPECT_GE(env::rollout_steps(band_env, policy, band_env.state_of(0, 0),
                                 200),
              0)
        << "band " << i;
  }
}

TEST(IndependentPipelines, ThroughputScalesWithN) {
  auto bands = env::partition_grid(grid(8, 16), 4);
  std::vector<std::unique_ptr<env::Environment>> envs;
  for (const auto& b : bands) {
    envs.push_back(std::make_unique<env::GridWorld>(b));
  }
  PipelineConfig c;
  c.seed = 7;
  IndependentPipelines rovers(std::move(envs), c);
  rovers.run_samples_each(10000, 1);
  // 4 pipelines, each ~1 sample/cycle concurrently.
  EXPECT_GT(rovers.samples_per_cycle(), 3.8);
  EXPECT_GE(rovers.total_samples(), 4u * 10000u);
}

TEST(IndependentPipelines, ResourceLedgerScales) {
  auto bands = env::partition_grid(grid(8, 16), 4);
  std::vector<std::unique_ptr<env::Environment>> envs;
  for (const auto& b : bands) {
    envs.push_back(std::make_unique<env::GridWorld>(b));
  }
  PipelineConfig c;
  IndependentPipelines rovers(std::move(envs), c);
  EXPECT_EQ(rovers.resources().dsp(), 16u);  // 4 pipelines x 4 DSP
}

TEST(IndependentPipelines, ThreadedAndSerialAgree) {
  // Determinism: running the same pipelines on 1 thread or 2 threads
  // must produce identical tables (no shared state), on both backends
  // the pool schedules (kLanes coalesces into one lane group instead).
  for (const Backend backend : {Backend::kCycleAccurate, Backend::kFast}) {
    SCOPED_TRACE(backend_name(backend));
    auto make = [backend] {
      auto bands = env::partition_grid(grid(8, 16), 2);
      std::vector<std::unique_ptr<env::Environment>> envs;
      for (const auto& b : bands) {
        envs.push_back(std::make_unique<env::GridWorld>(b));
      }
      PipelineConfig c;
      c.seed = 8;
      c.backend = backend;
      return std::make_unique<IndependentPipelines>(std::move(envs), c);
    };
    auto serial = make();
    auto threaded = make();
    serial->run_samples_each(20000, 1);
    threaded->run_samples_each(20000, 2);
    for (unsigned i = 0; i < 2; ++i) {
      const auto& es = serial->environment(i);
      for (StateId s = 0; s < es.num_states(); ++s) {
        for (ActionId a = 0; a < es.num_actions(); ++a) {
          ASSERT_EQ(serial->engine(i).q_raw(s, a),
                    threaded->engine(i).q_raw(s, a));
        }
      }
      EXPECT_EQ(serial->engine(i).stats().samples,
                threaded->engine(i).stats().samples);
    }
  }
}

TEST(SharedPipelinesDeath, RejectsFastBackendConfig) {
  // The satellite bugfix: a fast-backend config reaching shared-table
  // mode must be a loud config error, not a silent misconfig (the fast
  // engine has no port-level sharing or collision model).
  env::GridWorld g(grid(8, 8));
  PipelineConfig c;
  c.backend = Backend::kFast;
  EXPECT_DEATH(SharedTablePipelines(g, c, 2),
               "shared-table mode requires the cycle-accurate backend");
}

TEST(SharedPipelines, CheckpointRoundTripResumesTransparently) {
  env::GridWorld g(grid(8, 8));
  PipelineConfig c;
  c.seed = 12;
  c.max_episode_length = 256;

  // Reference: run to the barrier, checkpoint, keep running.
  SharedTablePipelines pool(g, c, 2);
  pool.run_cycles(6000);
  std::stringstream ckpt;
  pool.save_checkpoint(ckpt);
  pool.run_cycles(4000);

  // Restored pool continues exactly as the saved pool did.
  SharedTablePipelines restored(g, c, 2);
  restored.load_checkpoint(ckpt);
  EXPECT_LT(restored.total_samples(), pool.total_samples());
  restored.run_cycles(4000);

  EXPECT_EQ(restored.cycles(), pool.cycles());
  EXPECT_EQ(restored.total_samples(), pool.total_samples());
  for (StateId s = 0; s < g.num_states(); ++s) {
    for (ActionId a = 0; a < g.num_actions(); ++a) {
      ASSERT_EQ(restored.pipeline(0).q_raw(s, a),
                pool.pipeline(0).q_raw(s, a))
          << "shared Q divergence at s=" << s << " a=" << a;
    }
  }
}

TEST(SharedPipelinesDeath, CheckpointRejectsForeignAndMisshapenFiles) {
  env::GridWorld g(grid(4, 4));
  PipelineConfig c;
  SharedTablePipelines pool(g, c, 2);
  std::stringstream junk("definitely not a checkpoint");
  EXPECT_DEATH(pool.load_checkpoint(junk), "pool checkpoint");

  // A 1-pipe checkpoint must not restore into a 2-pipe pool.
  SharedTablePipelines solo(g, c, 1);
  solo.run_cycles(200);
  std::stringstream one;
  solo.save_checkpoint(one);
  EXPECT_DEATH(pool.load_checkpoint(one),
               "checkpoint shape does not match this pool");
}

TEST(SharedPipelinesDeath, CheckpointErrorsNameTheFileAndPipe) {
  env::GridWorld g(grid(4, 4));
  PipelineConfig c;
  SharedTablePipelines pool(g, c, 2);
  pool.run_cycles(400);

  // Cut the checkpoint inside the SECOND pipe's snapshot: the
  // diagnostic must name both the offending file and pipe 1, not leave
  // the user to bisect a multi-snapshot stream by hand.
  std::stringstream full;
  pool.save_checkpoint(full);
  std::string text = full.str();
  const std::size_t second_magic =
      text.find("QTACCEL-SNAPSHOT", text.find("QTACCEL-SNAPSHOT") + 1);
  ASSERT_NE(second_magic, std::string::npos);
  text.resize(second_magic + 64);

  const std::string path =
      testing::TempDir() + "qta_pool_ckpt_truncated.txt";
  {
    std::ofstream os(path);
    os << text;
  }
  SharedTablePipelines target(g, c, 2);
  EXPECT_DEATH(target.load_checkpoint_file(path),
               "truncated.*qta_pool_ckpt_truncated.*pipe 1");

  EXPECT_DEATH(
      target.load_checkpoint_file("/nonexistent/qta_pool_nope.txt"),
      "cannot open pool checkpoint file for reading.*qta_pool_nope");
}

TEST(IndependentPipelines, FleetCheckpointResumesBitExactly) {
  auto make = [] {
    auto bands = env::partition_grid(grid(8, 16), 2);
    std::vector<std::unique_ptr<env::Environment>> envs;
    for (const auto& b : bands) {
      envs.push_back(std::make_unique<env::GridWorld>(b));
    }
    PipelineConfig c;
    c.seed = 13;
    c.backend = Backend::kFast;
    return std::make_unique<IndependentPipelines>(std::move(envs), c);
  };
  auto fleet = make();
  fleet->run_samples_each(8000, 2);
  std::stringstream ckpt;
  fleet->save_checkpoint(ckpt);
  fleet->run_samples_each(16000, 2);

  auto restored = make();
  restored->load_checkpoint(ckpt);
  restored->run_samples_each(16000, 2);

  for (unsigned i = 0; i < 2; ++i) {
    const auto& es = fleet->environment(i);
    EXPECT_EQ(restored->engine(i).stats().samples,
              fleet->engine(i).stats().samples);
    for (StateId s = 0; s < es.num_states(); ++s) {
      for (ActionId a = 0; a < es.num_actions(); ++a) {
        ASSERT_EQ(restored->engine(i).q_raw(s, a),
                  fleet->engine(i).q_raw(s, a))
            << "fleet divergence: engine " << i << " s=" << s << " a="
            << a;
      }
    }
  }
}

TEST(IndependentPipelines, FleetCheckpointFileRoundTrips) {
  auto make = [] {
    auto bands = env::partition_grid(grid(8, 16), 2);
    std::vector<std::unique_ptr<env::Environment>> envs;
    for (const auto& b : bands) {
      envs.push_back(std::make_unique<env::GridWorld>(b));
    }
    PipelineConfig c;
    c.seed = 21;
    c.backend = Backend::kFast;
    return std::make_unique<IndependentPipelines>(std::move(envs), c);
  };
  const std::string path = testing::TempDir() + "qta_fleet_ckpt.txt";
  auto fleet = make();
  fleet->run_samples_each(4000, 2);
  fleet->save_checkpoint_file(path);

  auto restored = make();
  restored->load_checkpoint_file(path);
  for (unsigned i = 0; i < 2; ++i) {
    EXPECT_EQ(restored->engine(i).stats().samples,
              fleet->engine(i).stats().samples);
  }
}

TEST(SharedPipelines, V3CheckpointRestoresIdenticallyToV2) {
  env::GridWorld g(grid(8, 8));
  PipelineConfig c;
  c.seed = 12;
  c.max_episode_length = 256;
  SharedTablePipelines pool(g, c, 2);
  pool.run_cycles(6000);

  // Same drained pool, both wire forms. The pool writes v2 only, so the
  // v3 stream is built by hand: the pool header plus one v3 image per
  // pipe, which the reader must accept just the same.
  std::stringstream v2, v3;
  pool.save_checkpoint(v2);  // drains, so every pipe's state is committed
  v3 << "QTACCEL-POOL-CHECKPOINT v1\npipes 2\ncycles " << pool.cycles()
     << '\n';
  for (unsigned i = 0; i < pool.num_pipelines(); ++i) {
    runtime::write_snapshot_v3(v3, pool.pipeline(i).config(), g,
                               pool.pipeline(i).save_state());
  }
  EXPECT_NE(v3.str().find("QTACCEL-SNAPSHOT v3\n"), std::string::npos);
  EXPECT_NE(v2.str(), v3.str());

  // Re-serializing both restored pools as text is a full-state
  // comparison in one byte-equality.
  SharedTablePipelines from_v2(g, c, 2), from_v3(g, c, 2);
  from_v2.load_checkpoint(v2);
  from_v3.load_checkpoint(v3);
  std::stringstream text_v2, text_v3;
  from_v2.save_checkpoint(text_v2);
  from_v3.save_checkpoint(text_v3);
  EXPECT_EQ(text_v2.str(), text_v3.str());
  EXPECT_EQ(text_v2.str(), v2.str());
}

TEST(IndependentPipelines, V3FleetCheckpointAndMixedFormatStreamsRestore) {
  auto make = [] {
    auto bands = env::partition_grid(grid(8, 16), 2);
    std::vector<std::unique_ptr<env::Environment>> envs;
    for (const auto& b : bands) {
      envs.push_back(std::make_unique<env::GridWorld>(b));
    }
    PipelineConfig c;
    c.seed = 29;
    c.backend = Backend::kFast;
    return std::make_unique<IndependentPipelines>(std::move(envs), c);
  };
  auto fleet = make();
  fleet->run_samples_each(6000, 2);
  // The fleet writes v2 only; build its v3 twin by hand from the fleet
  // header and one v3 image per engine.
  std::stringstream v2, v3;
  fleet->save_checkpoint(v2);
  v3 << "QTACCEL-FLEET-CHECKPOINT v1\nengines 2\n";
  for (unsigned i = 0; i < fleet->num_pipelines(); ++i) {
    runtime::save_snapshot_v3(fleet->engine(i), v3);
  }

  // Splice a MIXED stream — the v2 header + first engine section, then
  // the v3 second engine section. The loader sniffs each pipe's version
  // independently, so the formats may mix within one checkpoint.
  const std::string v2s = v2.str(), v3s = v3.str();
  const auto second_magic = [](const std::string& s) {
    return s.find("QTACCEL-SNAPSHOT", s.find("QTACCEL-SNAPSHOT") + 1);
  };
  ASSERT_NE(second_magic(v2s), std::string::npos);
  ASSERT_NE(second_magic(v3s), std::string::npos);
  std::stringstream mixed(v2s.substr(0, second_magic(v2s)) +
                          v3s.substr(second_magic(v3s)));

  auto from_v3 = make();
  from_v3->load_checkpoint(v3);
  auto from_mixed = make();
  from_mixed->load_checkpoint(mixed);

  std::stringstream text_v3, text_mixed;
  from_v3->save_checkpoint(text_v3);
  from_mixed->save_checkpoint(text_mixed);
  EXPECT_EQ(text_v3.str(), v2s);
  EXPECT_EQ(text_mixed.str(), v2s);
}

TEST(IndependentPipelinesDeath, CheckpointErrorsNameTheFileAndPipe) {
  auto make = [] {
    auto bands = env::partition_grid(grid(8, 16), 2);
    std::vector<std::unique_ptr<env::Environment>> envs;
    for (const auto& b : bands) {
      envs.push_back(std::make_unique<env::GridWorld>(b));
    }
    PipelineConfig c;
    c.backend = Backend::kFast;
    return std::make_unique<IndependentPipelines>(std::move(envs), c);
  };
  auto fleet = make();
  fleet->run_samples_each(1000, 2);
  std::stringstream full;
  fleet->save_checkpoint(full);
  std::string text = full.str();
  // Cut inside the SECOND engine's snapshot: the diagnostic must name
  // the file and pipe 1.
  const std::size_t second_magic =
      text.find("QTACCEL-SNAPSHOT", text.find("QTACCEL-SNAPSHOT") + 1);
  ASSERT_NE(second_magic, std::string::npos);
  text.resize(second_magic + 64);

  const std::string path =
      testing::TempDir() + "qta_fleet_ckpt_truncated.txt";
  {
    std::ofstream os(path);
    os << text;
  }
  auto target = make();
  EXPECT_DEATH(target->load_checkpoint_file(path),
               "truncated.*qta_fleet_ckpt_truncated.*pipe 1");
  EXPECT_DEATH(
      target->load_checkpoint_file("/nonexistent/qta_fleet_nope.txt"),
      "cannot open fleet checkpoint file for reading.*qta_fleet_nope");
}

TEST(IndependentPipelines, CyclePipelineIsNullableByBackend) {
  auto bands = env::partition_grid(grid(8, 16), 2);
  std::vector<std::unique_ptr<env::Environment>> envs;
  for (const auto& b : bands) {
    envs.push_back(std::make_unique<env::GridWorld>(b));
  }
  PipelineConfig c;
  c.backend = Backend::kFast;
  IndependentPipelines fleet(std::move(envs), c);
  EXPECT_EQ(fleet.cycle_pipeline(0), nullptr);
  EXPECT_EQ(fleet.engine(0).config().backend, Backend::kFast);
}

}  // namespace
}  // namespace qta::qtaccel
