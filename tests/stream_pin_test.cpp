// End-to-end pins of every LFSR stream: the learned tables each
// executor retires after a fixed sample count, hashed.
//
// The differential suites compare executors against each other, and all
// of them share rng::Lfsr, so a change to the random streams would pass
// them all. These digests were recorded from the bit-serial LFSR and
// must never be edited to make a change pass: a mismatch means a
// table, trace, snapshot or wire byte would change. Each digest is the
// 64-bit FNV-1a hash of the QTACCEL-SNAPSHOT v2 text (save_snapshot's
// writer), which holds the tables, the LFSR registers, the walk state
// and the counters.
//
// Covered: the four algorithms x three environments (a 16x16 obstacle
// grid; a slippery grid, whose moves draw the noise stream; a small
// RandomMdp with terminal states, so start-state draws recur) x three
// executors (kFast, a 4-lane kLanes group, the cycle-accurate Pipeline),
// plus the output of MabAccelerator (NormalClt rewards, epsilon-greedy
// and EXP3 selection) and of the Boltzmann pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "env/bandit.h"
#include "env/grid_world.h"
#include "env/random_mdp.h"
#include "qtaccel/boltzmann_pipeline.h"
#include "qtaccel/lane_engine.h"
#include "qtaccel/mab_accelerator.h"
#include "runtime/engine.h"
#include "runtime/snapshot.h"

namespace qta::qtaccel {
namespace {

constexpr std::uint64_t kSamples = 20000;
constexpr std::size_t kGroupLanes = 4;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t double_bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

env::GridWorldConfig obstacle_grid() {
  env::GridWorldConfig g;
  g.width = 16;
  g.height = 16;
  g.num_actions = 4;
  g.obstacle_density = 0.1;
  g.obstacle_seed = 5;
  return g;
}

env::GridWorldConfig slippery_grid() {
  env::GridWorldConfig g;
  g.width = 8;
  g.height = 8;
  g.num_actions = 4;
  g.slip_probability = 0.25;
  return g;
}

env::RandomMdpConfig small_mdp() {
  env::RandomMdpConfig m;
  m.num_states = 64;
  m.num_actions = 4;
  m.seed = 3;
  m.terminal_fraction = 0.1;
  return m;
}

PipelineConfig config_for(Algorithm algo, Backend backend) {
  PipelineConfig cfg;
  cfg.algorithm = algo;
  // Q-Learning and SARSA read the monotone Qmax table; the other two
  // scan rows exactly, so both Qmax paths stay pinned.
  cfg.qmax = algo == Algorithm::kQLearning || algo == Algorithm::kSarsa
                 ? QmaxMode::kMonotoneTable
                 : QmaxMode::kExactScan;
  cfg.backend = backend;
  cfg.seed = 1234;
  cfg.max_episode_length = 256;
  return cfg;
}

std::uint64_t engine_digest(const env::Environment& env,
                            const PipelineConfig& cfg) {
  runtime::Engine engine(env, cfg);
  engine.run_samples(kSamples);
  std::ostringstream os;
  runtime::save_snapshot(engine, os);
  return fnv1a(os.str());
}

// Lane i of the group runs seed + i; the digest covers every lane's
// snapshot, in lane order.
std::uint64_t group_digest(const env::Environment& env,
                           const PipelineConfig& cfg) {
  std::vector<LaneEngine::LaneSpec> specs(kGroupLanes);
  for (std::size_t i = 0; i < kGroupLanes; ++i) {
    specs[i].env = &env;
    specs[i].config = cfg;
    specs[i].config.seed = cfg.seed + i;
  }
  LaneEngine group(specs);
  group.run_samples_all(std::vector<std::uint64_t>(kGroupLanes, kSamples));
  std::ostringstream os;
  for (std::size_t i = 0; i < kGroupLanes; ++i) {
    runtime::write_snapshot(os, specs[i].config, env, group.save_state(i));
  }
  return fnv1a(os.str());
}

constexpr Algorithm kAlgos[] = {Algorithm::kQLearning, Algorithm::kSarsa,
                                Algorithm::kExpectedSarsa,
                                Algorithm::kDoubleQ};

// Digests per algorithm, in kAlgos order: {solo, group}. The solo digest
// pins kFast and Pipeline alike: the executors retire identical machine
// states, and snapshots carry no backend. The group digest covers all
// four lanes of a kLanes group.
struct EnvPins {
  const char* name;
  std::uint64_t solo[4];
  std::uint64_t group[4];
};

constexpr EnvPins kGridPins = {
    "grid16",
    {0x5677f148847a9e65, 0x516f7c0f5b41dadb, 0xed413a7d4387d61c,
     0xe7f099db7a2d15d0},
    {0xff4341e99ec7f328, 0x41bb0e6f42ea797d, 0xc67b1b33a2839c90,
     0x84220d69ad43bb54}};
constexpr EnvPins kSlipPins = {
    "slip8",
    {0x51e3f837ba046c4d, 0x43f0160acff7127e, 0xf04a9006879554cf,
     0x5fa3ed109487b724},
    {0xcbfef3f9862dc140, 0xc351798c3c794a76, 0x1ef77d60e1be035f,
     0x5206e2a58221e69c}};
constexpr EnvPins kMdpPins = {
    "mdp64",
    {0x1a441237843312d4, 0x242c97031a5fefee, 0x949b0fd41076ff75,
     0x385ff2c32e26d6f3},
    {0x91858f106ed79a82, 0xc8dd7361de14c996, 0x618e47b01c711c63,
     0x501c8aa65460a46e}};

void check_env(const env::Environment& env, const EnvPins& pins) {
  for (std::size_t a = 0; a < 4; ++a) {
    const std::string tag =
        std::string(pins.name) + " " + algorithm_name(kAlgos[a]);
    EXPECT_EQ(hex(engine_digest(env, config_for(kAlgos[a], Backend::kFast))),
              hex(pins.solo[a]))
        << tag << " kFast";
    EXPECT_EQ(hex(engine_digest(
                  env, config_for(kAlgos[a], Backend::kCycleAccurate))),
              hex(pins.solo[a]))
        << tag << " Pipeline";
    EXPECT_EQ(hex(group_digest(env, config_for(kAlgos[a], Backend::kLanes))),
              hex(pins.group[a]))
        << tag << " kLanes x" << kGroupLanes;
  }
}

TEST(StreamPin, ObstacleGridTables) {
  env::GridWorld env(obstacle_grid());
  check_env(env, kGridPins);
}

TEST(StreamPin, SlipperyGridTables) {
  env::GridWorld env(slippery_grid());
  check_env(env, kSlipPins);
}

TEST(StreamPin, RandomMdpTables) {
  env::RandomMdp env(small_mdp());
  check_env(env, kMdpPins);
}

// Epsilon-greedy and EXP3 pulls on NormalClt rewards: pull counts,
// estimated values and cycle counts of both runs.
TEST(StreamPin, MabAcceleratorOutput) {
  std::ostringstream os;
  for (const MabConfig::Policy policy :
       {MabConfig::Policy::kEpsilonGreedy, MabConfig::Policy::kExp3}) {
    env::MultiArmedBandit bandit(
        {{0.1, 0.3}, {0.6, 0.3}, {0.3, 0.3}, {0.5, 0.3}, {0.2, 0.3}}, 21);
    MabConfig c;
    c.policy = policy;
    c.seed = 17;
    MabAccelerator acc(bandit, c);
    acc.run(kSamples);
    for (unsigned m = 0; m < bandit.num_arms(); ++m) {
      os << acc.pull_counts()[m] << ' ' << double_bits(acc.q_value(m))
         << '\n';
    }
    os << acc.stats().cycles << ' ' << acc.stats().selection_stall_cycles
       << '\n';
  }
  EXPECT_EQ(hex(fnv1a(os.str())), hex(0x81111e96ff8dbb4c));
}

// Boltzmann selection on a 8x8 grid: every Q value and stored weight,
// and the run counters.
TEST(StreamPin, BoltzmannPipelineOutput) {
  env::GridWorldConfig g;
  g.width = 8;
  g.height = 8;
  g.num_actions = 4;
  env::GridWorld env(g);
  BoltzmannConfig c;
  c.seed = 9;
  c.max_episode_length = 256;
  BoltzmannPipeline p(env, c);
  p.run_samples(kSamples);
  std::ostringstream os;
  for (StateId s = 0; s < env.num_states(); ++s) {
    for (ActionId a = 0; a < env.num_actions(); ++a) {
      os << double_bits(p.q_value(s, a)) << ' '
         << double_bits(p.weight(s, a)) << '\n';
    }
  }
  const BoltzmannPipeline::Stats& st = p.stats();
  os << st.samples << ' ' << st.episodes << ' ' << st.bubbles << ' '
     << st.cycles << ' ' << st.selection_stall_cycles << '\n';
  EXPECT_EQ(hex(fnv1a(os.str())), hex(0x6a1b949877ca564d));
}

}  // namespace
}  // namespace qta::qtaccel
