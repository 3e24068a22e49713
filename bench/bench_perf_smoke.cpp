// Perf-regression smoke for the functional backends (CI: perf-smoke).
//
// Four claims, one artifact (BENCH_fast_engine.json at the CWD, which CI
// runs from the repo root):
//   1. Bit-exactness (an exit-code gate): on the paper's largest
//      Table I workload (262144 states x 8 actions), a fast-backend
//      engine (one lane on the solo schedule) retires a trace, Q table,
//      Qmax table, and PipelineStats bit-identical to the cycle-accurate
//      Pipeline; and the work-stealing vs static schedules produce
//      bit-identical per-pipeline tables (results must not depend on
//      host scheduling).
//   2. Host throughput (report-only): fast backend >= 20x the
//      cycle-accurate backend in samples/s, single- and multi-pipeline.
//   3. Skew rebalancing (report-only): 16 pipelines (1 large + 15 small)
//      on 4 threads finish measurably faster under the work-stealing pool
//      than under the legacy static round-robin partition.
//   4. Lane batching: a 1/4/8/16-lane sweep of the lanes backend on a
//      latency-bound random MDP whose Q table dwarfs the LLC (one lane
//      runs the solo schedule, more run the group schedule). At 4 lanes,
//      every group lane bit-identical to a solo fast engine is a gate;
//      the lane_speedup_vs_fast numbers are report-only, and bounded by the
//      host's memory-level parallelism — a core that overlaps few cache
//      misses gains little from batching independent miss streams, so
//      low speedups on small hosts are expected and honest.
// Timing claims are REPORTED, never asserted via exit code — CI machines
// are noisy; only correctness may fail the job.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "common/cli.h"
#include "common/stats.h"
#include "env/grid_world.h"
#include "env/random_mdp.h"
#include "runtime/engine.h"
#include "runtime/lane_coalescer.h"
#include "runtime/multi_pipeline.h"

using namespace qta;

namespace {

std::vector<std::string> g_divergences;

void check_exact(bool ok, const std::string& what) {
  if (!ok) {
    g_divergences.push_back(what);
    std::cout << "DIVERGENCE: " << what << "\n";
  }
}

const char* algo_label(qtaccel::Algorithm a) {
  switch (a) {
    case qtaccel::Algorithm::kQLearning: return "q_learning";
    case qtaccel::Algorithm::kSarsa: return "sarsa";
    case qtaccel::Algorithm::kExpectedSarsa: return "expected_sarsa";
    case qtaccel::Algorithm::kDoubleQ: return "double_q";
  }
  return "?";
}

// Part 1: trace/table/stats equality on the Table I workload.
void verify_bit_exact(const env::Environment& env,
                      qtaccel::Algorithm algorithm,
                      std::uint64_t iterations, bench::JsonWriter& json) {
  qtaccel::PipelineConfig config;
  config.algorithm = algorithm;
  config.seed = 12345;
  config.max_episode_length = 4096;

  qtaccel::PipelineConfig fast_config = config;
  fast_config.backend = qtaccel::Backend::kFast;

  runtime::Engine pipeline(env, config);
  std::vector<qtaccel::SampleTrace> pipe_trace;
  pipeline.set_trace(&pipe_trace);

  runtime::Engine fast(env, fast_config);
  std::vector<qtaccel::SampleTrace> fast_trace;
  fast.set_trace(&fast_trace);

  // Two chunks so per-call drain accounting is covered here too.
  for (const std::uint64_t n : {iterations / 3, iterations - iterations / 3}) {
    pipeline.run_iterations(n);
    fast.run_iterations(n);
  }

  const std::string tag = algo_label(algorithm);
  bool traces_equal = pipe_trace.size() == fast_trace.size();
  std::uint64_t first_divergence = 0;
  if (traces_equal) {
    for (std::size_t i = 0; i < pipe_trace.size(); ++i) {
      if (!(pipe_trace[i] == fast_trace[i])) {
        traces_equal = false;
        first_divergence = i;
        break;
      }
    }
  }
  check_exact(traces_equal, tag + ": trace divergence at iteration " +
                                std::to_string(first_divergence));

  bool tables_equal = true;
  for (StateId s = 0; s < env.num_states() && tables_equal; ++s) {
    for (ActionId a = 0; a < env.num_actions(); ++a) {
      if (pipeline.q_raw(s, a) != fast.q_raw(s, a)) {
        tables_equal = false;
        break;
      }
    }
    if (pipeline.qmax_entry(s).value != fast.qmax_entry(s).value) {
      tables_equal = false;
    }
  }
  check_exact(tables_equal, tag + ": final Q/Qmax table mismatch");

  const auto& ps = pipeline.stats();
  const auto& fs = fast.stats();
  const bool stats_equal =
      ps.iterations == fs.iterations && ps.samples == fs.samples &&
      ps.episodes == fs.episodes && ps.bubbles == fs.bubbles &&
      ps.cycles == fs.cycles && ps.issued == fs.issued &&
      ps.stall_cycles == fs.stall_cycles && ps.fwd_q_sa == fs.fwd_q_sa &&
      ps.fwd_q_next == fs.fwd_q_next && ps.fwd_qmax == fs.fwd_qmax &&
      ps.adder_saturations == fs.adder_saturations &&
      pipeline.dsp_saturations() == fast.dsp_saturations();
  check_exact(stats_equal, tag + ": reconstructed PipelineStats mismatch");

  json.begin_object()
      .field("algorithm", tag)
      .field("iterations", iterations)
      .field("samples", fs.samples)
      .field("fwd_q_sa", fs.fwd_q_sa)
      .field("fwd_qmax", fs.fwd_qmax)
      .field("traces_equal", traces_equal)
      .field("tables_equal", tables_equal)
      .field("stats_equal", stats_equal)
      .end_object();
}

// The 16 skewed environments: index 0 is the full Table I grid, the other
// 15 are small worlds. Equal per-pipeline sample targets, very unequal
// per-sample cost (the big table misses cache), so the static round-robin
// serializes its bucket 0 behind the big pipeline.
std::vector<std::unique_ptr<env::Environment>> make_skewed_envs() {
  std::vector<std::unique_ptr<env::Environment>> envs;
  envs.push_back(std::make_unique<env::GridWorld>(
      bench::grid_for_states(262144, 8)));
  for (int i = 0; i < 15; ++i) {
    envs.push_back(std::make_unique<env::GridWorld>(
        bench::grid_for_states(1024, 4)));
  }
  return envs;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  const std::uint64_t scale = quick ? 10 : 1;
  const std::uint64_t verify_iters =
      static_cast<std::uint64_t>(
          flags.get_int("verify-iters", 150000)) / scale;
  const std::uint64_t cycle_samples =
      static_cast<std::uint64_t>(
          flags.get_int("cycle-samples", 200000)) / scale;
  const std::uint64_t fast_samples =
      static_cast<std::uint64_t>(
          flags.get_int("fast-samples", 4000000)) / scale;
  const std::uint64_t multi_each_cycle =
      static_cast<std::uint64_t>(
          flags.get_int("multi-each-cycle", 20000)) / scale;
  const std::uint64_t multi_each_fast =
      static_cast<std::uint64_t>(
          flags.get_int("multi-each-fast", 400000)) / scale;
  const unsigned skew_threads =
      static_cast<unsigned>(flags.get_int("threads", 4));
  const std::uint64_t lane_samples =
      static_cast<std::uint64_t>(
          flags.get_int("lane-samples", 2000000)) / scale;
  const std::uint64_t lane_states =
      static_cast<std::uint64_t>(flags.get_int("lane-states", 1 << 21));
  const std::string out_path =
      flags.get_string("out", "BENCH_fast_engine.json");
  for (const auto& f : flags.unused()) {
    std::cerr << "unknown flag: --" << f << "\n";
    return 2;
  }

  std::cout << "=== Fast-engine perf smoke (Table I: 262144 states x 8 "
               "actions) ===\n\n";
  env::GridWorld big(bench::grid_for_states(262144, 8));

  bench::JsonWriter json;
  json.begin_object();
  bench::write_bench_meta(json);
  json.field("workload", "grid512x512_a8");
  json.field("quick", quick);

  // --- 1. bit-exactness (the exit-code gate) ---
  std::cout << "[1/4] bit-exactness vs cycle-accurate pipeline ("
            << verify_iters << " iterations per algorithm)\n";
  json.key("bit_exactness").begin_array();
  verify_bit_exact(big, qtaccel::Algorithm::kQLearning, verify_iters, json);
  verify_bit_exact(big, qtaccel::Algorithm::kSarsa, verify_iters, json);
  json.end_array();

  // --- 2. single-pipeline host throughput ---
  std::cout << "[2/4] single-pipeline throughput, cycle vs fast backend\n";
  qtaccel::PipelineConfig config;
  config.seed = 7;
  config.max_episode_length = 4096;
  double cycle_sps = 0.0, fast_sps = 0.0;
  {
    runtime::Engine pipeline(big, config);
    Stopwatch sw;
    pipeline.run_samples(cycle_samples);
    const double secs = sw.seconds();
    cycle_sps = static_cast<double>(pipeline.stats().samples) / secs;
    std::cout << "  cycle-accurate: " << pipeline.stats().samples
              << " samples in " << secs << " s = " << cycle_sps
              << " samples/s\n";
  }
  {
    qtaccel::PipelineConfig fc = config;
    fc.backend = qtaccel::Backend::kFast;
    runtime::Engine fast(big, fc);
    Stopwatch sw;
    fast.run_samples(fast_samples);
    const double secs = sw.seconds();
    fast_sps = static_cast<double>(fast.stats().samples) / secs;
    std::cout << "  fast (turbo):   " << fast.stats().samples
              << " samples in " << secs << " s = " << fast_sps
              << " samples/s\n";
  }
  const double speedup = cycle_sps > 0.0 ? fast_sps / cycle_sps : 0.0;
  const bool target_met = speedup >= 20.0;
  std::cout << "  speedup: " << speedup << "x (target >= 20x: "
            << (target_met ? "MET" : "NOT MET — report-only") << ")\n";
  json.key("single_pipeline")
      .begin_object()
      .field("cycle_samples_per_sec", cycle_sps)
      .field("fast_samples_per_sec", fast_sps)
      .field("speedup", speedup)
      .field("speedup_target", 20.0)
      .field("speedup_target_met", target_met)
      .end_object();

  // --- 3. multi-pipeline: backends + schedules on the skewed fleet ---
  std::cout << "[3/4] 16 skewed pipelines (1 large + 15 small), "
            << skew_threads << " threads\n";
  double multi_cycle_sps = 0.0;
  {
    qtaccel::PipelineConfig mc = config;
    mc.backend = qtaccel::Backend::kCycleAccurate;
    runtime::IndependentPipelines fleet(make_skewed_envs(), mc);
    Stopwatch sw;
    fleet.run_samples_each(multi_each_cycle, skew_threads);
    multi_cycle_sps =
        static_cast<double>(fleet.total_samples()) / sw.seconds();
    std::cout << "  cycle backend (pool):  " << multi_cycle_sps
              << " samples/s\n";
  }
  qtaccel::PipelineConfig mf = config;
  mf.backend = qtaccel::Backend::kFast;
  double static_secs = 0.0, pool_secs = 0.0;
  std::uint64_t pool_steals = 0;
  runtime::IndependentPipelines static_fleet(make_skewed_envs(), mf);
  {
    Stopwatch sw;
    static_fleet.run_samples_each(multi_each_fast, skew_threads,
                                  runtime::Schedule::kStaticRoundRobin);
    static_secs = sw.seconds();
  }
  runtime::IndependentPipelines pool_fleet(make_skewed_envs(), mf);
  {
    Stopwatch sw;
    pool_fleet.run_samples_each(multi_each_fast, skew_threads,
                                runtime::Schedule::kWorkStealing);
    pool_secs = sw.seconds();
    pool_steals = pool_fleet.pool_steals();
  }
  const double multi_fast_sps =
      static_cast<double>(pool_fleet.total_samples()) / pool_secs;
  const double schedule_speedup =
      pool_secs > 0.0 ? static_secs / pool_secs : 0.0;
  std::cout << "  fast backend (static round-robin): " << static_secs
            << " s\n";
  std::cout << "  fast backend (work-stealing pool): " << pool_secs
            << " s = " << multi_fast_sps << " samples/s, " << pool_steals
            << " steals\n";
  std::cout << "  schedule speedup (static/pool): " << schedule_speedup
            << "x (report-only)\n";

  // Exactness gate: scheduling must not change results — every pipeline's
  // final Q table bit-identical across the two schedules.
  bool schedule_deterministic = true;
  for (unsigned p = 0;
       p < pool_fleet.num_pipelines() && schedule_deterministic; ++p) {
    const auto& env = pool_fleet.environment(p);
    for (StateId s = 0; s < env.num_states() && schedule_deterministic;
         ++s) {
      for (ActionId a = 0; a < env.num_actions(); ++a) {
        if (pool_fleet.engine(p).q_raw(s, a) !=
            static_fleet.engine(p).q_raw(s, a)) {
          schedule_deterministic = false;
          break;
        }
      }
    }
  }
  check_exact(schedule_deterministic,
              "work-stealing vs static schedules disagree on Q tables");

  json.key("multi_pipeline")
      .begin_object()
      .field("pipelines", pool_fleet.num_pipelines())
      .field("threads", skew_threads)
      .field("samples_each", multi_each_fast)
      .field("cycle_samples_per_sec", multi_cycle_sps)
      .field("fast_samples_per_sec", multi_fast_sps)
      .field("static_round_robin_secs", static_secs)
      .field("work_stealing_secs", pool_secs)
      .field("schedule_speedup", schedule_speedup)
      .field("pool_steals", pool_steals)
      .field("pool_faster", pool_secs < static_secs)
      .field("schedule_deterministic", schedule_deterministic)
      .end_object();

  // --- 4. lane-batched backend: throughput sweep + bit-exactness ---
  // A random MDP this size defeats both the cache (the Q table alone is
  // ~8x any LLC) and the hardware prefetcher (transitions are random),
  // so per-sample cost is dominated by memory latency — the regime the
  // lane backend's batched miss streams target.
  std::cout << "[4/4] lane-batched backend sweep (random MDP, "
            << lane_states << " states x 4 actions)\n";
  env::RandomMdpConfig rmc;
  rmc.num_states = static_cast<StateId>(lane_states);
  rmc.num_actions = 4;
  rmc.seed = 99;
  env::RandomMdp mdp(rmc);
  qtaccel::PipelineConfig lane_cfg = config;  // seed 7, episode cap 4096
  lane_cfg.backend = qtaccel::Backend::kFast;

  double lane_fast_sps = 0.0;
  {
    runtime::Engine fast(mdp, lane_cfg);
    Stopwatch sw;
    fast.run_samples(lane_samples);
    lane_fast_sps = static_cast<double>(fast.stats().samples) / sw.seconds();
    std::cout << "  fast baseline: " << lane_fast_sps << " samples/s\n";
  }

  json.key("lane_backend")
      .begin_object()
      .field("workload",
             "random_mdp_" + std::to_string(lane_states) + "x4")
      .field("samples_total", lane_samples)
      .field("fast_samples_per_sec", lane_fast_sps);
  json.key("sweep").begin_array();
  bool lanes_exact = true;
  for (const int lanes : {1, 4, 8, 16}) {
    // The shipped coalescing path: per-session kLanes engines migrated
    // into one lane group for the run, states donated back after —
    // exactly what MultiPipeline and qtserved do for a lane fleet.
    std::vector<std::unique_ptr<runtime::Engine>> engines;
    std::vector<runtime::Engine*> members;
    for (int i = 0; i < lanes; ++i) {
      qtaccel::PipelineConfig cfg = lane_cfg;
      cfg.backend = qtaccel::Backend::kLanes;
      cfg.seed = lane_cfg.seed + static_cast<std::uint64_t>(i);
      engines.push_back(std::make_unique<runtime::Engine>(mdp, cfg));
      members.push_back(engines.back().get());
    }
    // Constant total work per sweep point so wall times are comparable.
    const std::uint64_t per_lane =
        lane_samples / static_cast<std::uint64_t>(lanes);
    Stopwatch sw;
    {
      runtime::LaneGroupRunner runner(members);
      runner.run_to_targets(
          std::vector<std::uint64_t>(static_cast<std::size_t>(lanes),
                                     per_lane));
    }
    const double secs = sw.seconds();
    std::uint64_t total = 0;
    for (int i = 0; i < lanes; ++i) {
      total += engines[static_cast<std::size_t>(i)]->stats().samples;
    }
    const double lane_sps = static_cast<double>(total) / secs;
    const double lane_speedup =
        lane_fast_sps > 0.0 ? lane_sps / lane_fast_sps : 0.0;
    std::cout << "  lanes=" << lanes << ": " << lane_sps
              << " samples/s, " << lane_speedup
              << "x vs fast (report-only)\n";
    json.begin_object()
        .field("lanes", static_cast<std::uint64_t>(lanes))
        .field("lane_samples_per_sec", lane_sps)
        .field("lane_speedup_vs_fast", lane_speedup)
        .end_object();

    // Gate (lanes=4 point): every lane of the group bit-identical to a
    // solo fast engine with the same seed — stats fingerprint plus a
    // strided Q/Qmax sweep over the whole table. The group reads the
    // pre-baked record table, the solo engine calls the environment.
    if (lanes == 4) {
      for (int i = 0; i < lanes && lanes_exact; ++i) {
        const runtime::Engine& lane =
            *engines[static_cast<std::size_t>(i)];
        qtaccel::PipelineConfig solo_cfg = lane_cfg;
        solo_cfg.seed = lane_cfg.seed + static_cast<std::uint64_t>(i);
        runtime::Engine solo(mdp, solo_cfg);
        solo.run_samples(per_lane);
        const auto& ls = lane.stats();
        const auto& ss = solo.stats();
        lanes_exact =
            ls.samples == ss.samples && ls.episodes == ss.episodes &&
            ls.cycles == ss.cycles && ls.issued == ss.issued &&
            ls.fwd_q_sa == ss.fwd_q_sa && ls.fwd_q_next == ss.fwd_q_next &&
            ls.fwd_qmax == ss.fwd_qmax &&
            ls.adder_saturations == ss.adder_saturations;
        for (StateId s = 0; s < mdp.num_states() && lanes_exact; s += 97) {
          for (ActionId a = 0; a < mdp.num_actions(); ++a) {
            if (lane.q_raw(s, a) != solo.q_raw(s, a)) {
              lanes_exact = false;
              break;
            }
          }
          if (lanes_exact &&
              lane.qmax_entry(s).value != solo.qmax_entry(s).value) {
            lanes_exact = false;
          }
        }
      }
      check_exact(lanes_exact,
                  "lane backend diverges from solo fast engines");
      std::cout << "  lanes=4 vs solo fast engines: "
                << (lanes_exact ? "bit-exact" : "DIVERGED") << "\n";
    }
  }
  json.end_array();
  json.field("bit_exact_vs_fast", lanes_exact);
  json.end_object();

  json.field("divergences", static_cast<std::uint64_t>(
                                g_divergences.size()));
  json.end_object();
  if (!json.write_file(out_path)) {
    std::cerr << "failed to write " << out_path << "\n";
    return 2;
  }
  std::cout << "\nwrote " << out_path << "\n";

  if (!g_divergences.empty()) {
    std::cout << "\nBIT-EXACTNESS: DIVERGED (" << g_divergences.size()
              << " failure(s))\n";
    return 1;
  }
  std::cout << "\nBIT-EXACTNESS: REPRODUCED (timing is report-only)\n";
  return 0;
}
