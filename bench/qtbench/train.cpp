// The train workloads, and the datapath rows (qtaccel.*, runtime.*)
// every traced run reports at its workload's geometry.
//
// train-grid and train-mdp run the same four learners, one per
// algorithm, on the fast backend, advanced round-robin in 2^20-sample
// Engine::run_samples calls on one thread. They differ only in the
// working set: a 64x64x4 grid keeps each learner's tables in L2, a
// 2^21-state RandomMdp puts hundreds of MB behind every sample.
#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "env/grid_world.h"
#include "env/random_mdp.h"
#include "qtbench.h"
#include "runtime/lane_coalescer.h"
#include "runtime/snapshot.h"

namespace qta::qtbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
// Each untraced run sets up this many times, measures each set-up for
// an equal share of --seconds, and reports the median set-up time.
constexpr unsigned kSetups = 3;
// Samples per engine in the backend-equivalence slices.
constexpr std::uint64_t kCheckSamples = std::uint64_t{1} << 14;
// Samples per config in the timed cycle-backend slice.
constexpr std::uint64_t kCycleSamples = std::uint64_t{1} << 16;
constexpr std::size_t kLaneWidth = 8;
constexpr unsigned kSnapshotReps = 3;

std::unique_ptr<env::Environment> make_env(Kind kind, std::uint64_t seed) {
  if (kind == Kind::kTrainGrid) {
    env::GridWorldConfig c;
    c.width = 64;
    c.height = 64;
    c.num_actions = 4;
    return std::make_unique<env::GridWorld>(c);
  }
  env::RandomMdpConfig c;
  c.num_states = StateId{1} << 21;
  c.num_actions = 4;
  c.seed = derive_seed(seed, 1, 0);
  return std::make_unique<env::RandomMdp>(c);
}

qtaccel::PipelineConfig learner_config(std::size_t i, std::uint64_t seed) {
  qtaccel::PipelineConfig c;
  c.algorithm = kAlgorithms[i];
  c.backend = qtaccel::Backend::kFast;
  c.seed = derive_seed(seed, 2, i);
  c.max_episode_length = 4096;
  return c;
}

/// Advances `engine` by `n` samples (one Engine::run_samples call) and
/// returns the samples it retired.
std::uint64_t advance(runtime::Engine& engine, std::uint64_t n, Spans& spans) {
  Spans::Scope span(spans, "engine.run_samples", 0);
  const std::uint64_t before = engine.stats().samples;
  engine.run_samples(before + n);
  return engine.stats().samples - before;
}

std::vector<runtime::Engine*> pointers(
    const std::vector<std::unique_ptr<runtime::Engine>>& engines) {
  std::vector<runtime::Engine*> out;
  for (const auto& e : engines) out.push_back(e.get());
  return out;
}

std::vector<std::unique_ptr<runtime::Engine>> build(
    const env::Environment& env,
    const std::vector<qtaccel::PipelineConfig>& configs,
    qtaccel::Backend backend) {
  std::vector<std::unique_ptr<runtime::Engine>> out;
  for (qtaccel::PipelineConfig c : configs) {
    c.backend = backend;
    out.push_back(std::make_unique<runtime::Engine>(env, c));
  }
  return out;
}

struct Timing {
  double seconds = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t samples = 0;
  double ns_per_sample() const {
    return samples == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(samples);
  }
};

/// Round-robin `chunk`-sample calls over `engines` until `budget_s`
/// passed, finishing the round it is in.
Timing round_robin(const std::vector<runtime::Engine*>& engines,
                   std::uint64_t chunk, double budget_s, Spans& spans) {
  Timing t;
  const Clock::time_point t0 = Clock::now();
  do {
    for (runtime::Engine* e : engines) {
      t.samples += advance(*e, chunk, spans);
      ++t.calls;
    }
  } while (seconds_since(t0) < budget_s);
  t.seconds = seconds_since(t0);
  return t;
}

std::string snapshot_text(const runtime::Engine& engine) {
  std::ostringstream os;
  runtime::save_snapshot(engine, os);
  return std::move(os).str();
}

/// Fast and cycle engines per config, plus (with `lanes`) a width-1
/// lane engine per config and one 8-lane q_learning group against solo
/// fast engines, all at equal seeds and targets: their save_snapshot
/// text must match.
void check_equivalence(const env::Environment& env,
                       const std::vector<qtaccel::PipelineConfig>& configs,
                       bool lanes, Spans& spans, Outcome& outcome) {
  std::vector<qtaccel::Backend> backends = {qtaccel::Backend::kFast};
  if (lanes) backends.push_back(qtaccel::Backend::kLanes);
  backends.push_back(qtaccel::Backend::kCycleAccurate);
  for (const qtaccel::PipelineConfig& base : configs) {
    std::string reference;
    for (const qtaccel::Backend backend : backends) {
      qtaccel::PipelineConfig c = base;
      c.backend = backend;
      runtime::Engine engine(env, c);
      advance(engine, kCheckSamples, spans);
      std::string text = snapshot_text(engine);
      if (reference.empty()) {
        reference = std::move(text);
      } else if (text != reference) {
        outcome.divergences.push_back(
            std::string(qtaccel::algorithm_name(c.algorithm)) + ": " +
            qtaccel::backend_name(backend) +
            " snapshot differs from the fast backend's");
      }
    }
  }
  if (!lanes) return;

  std::vector<qtaccel::PipelineConfig> lane_configs;
  for (std::size_t i = 0; i < kLaneWidth; ++i) {
    qtaccel::PipelineConfig c = configs.front();
    c.algorithm = qtaccel::Algorithm::kQLearning;
    c.seed = derive_seed(configs.front().seed, 3, i);
    lane_configs.push_back(c);
  }
  auto group = build(env, lane_configs, qtaccel::Backend::kLanes);
  {
    Spans::Scope span(spans, "engine.lane_group", 0);
    runtime::LaneGroupRunner runner(pointers(group));
    runner.run_to_targets(
        std::vector<std::uint64_t>(kLaneWidth, kCheckSamples));
  }
  for (std::size_t i = 0; i < kLaneWidth; ++i) {
    const std::string lane_text = snapshot_text(*group[i]);
    group[i].reset();  // at most one extra engine alive at a time
    runtime::Engine solo(env, lane_configs[i]);
    advance(solo, kCheckSamples, spans);
    if (snapshot_text(solo) != lane_text) {
      outcome.divergences.push_back("lanes8: lane " + std::to_string(i) +
                                    " differs from its solo fast engine");
    }
  }
}

/// v3 full and dirty-row delta snapshot costs on `twin`, whose delta
/// covers one `step`-sample request.
void report_snapshot_layers(runtime::Engine& twin, std::uint64_t step,
                            Spans& spans, Report& report) {
  std::vector<double> full_encode, full_decode, delta_encode, delta_apply;
  std::string full, delta;
  const auto time_us = [](Clock::time_point t0) {
    return seconds_since(t0) * 1e6;
  };
  for (unsigned rep = 0; rep < kSnapshotReps; ++rep) {
    Clock::time_point t0 = Clock::now();
    {
      Spans::Scope span(spans, "snapshot.full_encode", 0);
      std::ostringstream os;
      runtime::save_snapshot_v3(twin, os);
      full = std::move(os).str();
    }
    full_encode.push_back(time_us(t0));
    t0 = Clock::now();
    auto base = [&] {
      Spans::Scope span(spans, "snapshot.full_decode", 0);
      std::istringstream in(full);
      return runtime::read_snapshot(in, twin.config(), twin.environment());
    }();
    full_decode.push_back(time_us(t0));

    twin.reset_dirty_rows();
    advance(twin, step, spans);
    t0 = Clock::now();
    {
      Spans::Scope span(spans, "snapshot.delta_encode", 0);
      std::ostringstream os;
      runtime::write_snapshot_delta(os, twin.config(), twin.environment(),
                                    twin.save_state());
      delta = std::move(os).str();
    }
    delta_encode.push_back(time_us(t0));
    t0 = Clock::now();
    {
      Spans::Scope span(spans, "snapshot.delta_apply", 0);
      std::istringstream delta_in(delta);
      runtime::apply_snapshot_delta(delta_in, twin.config(),
                                    twin.environment(), base);
    }
    delta_apply.push_back(time_us(t0));
  }
  report.add("runtime.snapshot.full_encode_us", median(full_encode), "us",
             kSnapshotReps);
  report.add("runtime.snapshot.full_decode_us", median(full_decode), "us",
             kSnapshotReps);
  report.add("runtime.snapshot.delta_encode_us", median(delta_encode), "us",
             kSnapshotReps);
  report.add("runtime.snapshot.delta_apply_us", median(delta_apply), "us",
             kSnapshotReps);
  report.add("runtime.snapshot.full_bytes",
             static_cast<double>(full.size()), "bytes", kSnapshotReps);
  report.add("runtime.snapshot.delta_bytes",
             static_cast<double>(delta.size()), "bytes", kSnapshotReps);
}

struct Trainer {
  std::unique_ptr<env::Environment> env;
  std::vector<qtaccel::PipelineConfig> configs;
  std::vector<std::unique_ptr<runtime::Engine>> learners;
  std::uint64_t warm = 0;
  double setup_s = 0.0;
  double warmup_s = 0.0;
};

/// Builds the environment and learners, then runs the untimed warm-up:
/// one chunk per learner on the grid, 2^21 samples per learner on the
/// MDP so its first-touch page faults are paid here, not while timed.
Trainer set_up(Kind kind, std::uint64_t seed, Spans& spans) {
  const Clock::time_point t0 = Clock::now();
  Trainer t;
  t.env = make_env(kind, seed);
  for (std::size_t i = 0; i < 4; ++i) {
    t.configs.push_back(learner_config(i, seed));
  }
  t.learners = build(*t.env, t.configs, qtaccel::Backend::kFast);
  t.warm = kind == Kind::kTrainMdp ? std::uint64_t{1} << 21 : kChunk;
  const Clock::time_point t1 = Clock::now();
  for (const auto& learner : t.learners) advance(*learner, t.warm, spans);
  t.warmup_s = seconds_since(t1);
  t.setup_s = seconds_since(t0);
  return t;
}

}  // namespace

void report_datapath_layers(Geometry g, double budget_s, Spans& spans,
                            Report& report, Outcome& outcome) {
  const env::Environment& env = *g.env;
  // Fresh lane engines only need their pages touched before timing.
  const std::uint64_t lane_warm =
      std::min<std::uint64_t>(g.warm, std::uint64_t{1} << 18);
  if (g.fast.empty()) {
    g.fast = build(env, g.configs, qtaccel::Backend::kFast);
    for (const auto& e : g.fast) advance(*e, g.warm, spans);
  }
  const auto forwards = [&g] {
    std::uint64_t n = 0;
    for (const auto& e : g.fast) {
      n += e->stats().fwd_q_sa + e->stats().fwd_q_next + e->stats().fwd_qmax;
    }
    return n;
  };
  const std::uint64_t fwd_before = forwards();
  const Timing fast = round_robin(pointers(g.fast), g.chunk, budget_s, spans);
  report.add("qtaccel.fast.ns_per_sample", fast.ns_per_sample(), "ns",
             fast.calls);
  outcome.attempted += fast.calls;
  report.add("qtaccel.fwd_per_sample",
             static_cast<double>(forwards() - fwd_before) /
                 static_cast<double>(fast.samples),
             "fwd/sample", fast.samples);
  report_snapshot_layers(*g.fast.front(), g.chunk, spans, report);
  g.fast.clear();  // one working set at a time

  {
    // One config at a time: a width-1 lane engine on the MDP holds
    // ~290 MB, and the tables exceed the caches either way.
    Timing total;
    for (qtaccel::PipelineConfig c : g.configs) {
      c.backend = qtaccel::Backend::kLanes;
      runtime::Engine lane(env, c);
      advance(lane, lane_warm, spans);
      const Timing t = round_robin({&lane}, g.chunk,
                                   budget_s / static_cast<double>(
                                                  g.configs.size()),
                                   spans);
      total.seconds += t.seconds;
      total.samples += t.samples;
      total.calls += t.calls;
    }
    report.add("qtaccel.lanes1.ns_per_sample", total.ns_per_sample(), "ns",
               total.calls);
    outcome.attempted += total.calls;
  }
  {
    std::vector<qtaccel::PipelineConfig> lane_configs;
    for (std::size_t i = 0; i < kLaneWidth; ++i) {
      qtaccel::PipelineConfig c = g.configs.front();
      c.algorithm = qtaccel::Algorithm::kQLearning;
      c.seed = derive_seed(g.configs.front().seed, 4, i);
      lane_configs.push_back(c);
    }
    auto lanes = build(env, lane_configs, qtaccel::Backend::kLanes);
    runtime::LaneGroupRunner runner(pointers(lanes));
    runner.run_steps(std::vector<std::uint64_t>(kLaneWidth, lane_warm));
    Timing t;
    const Clock::time_point t0 = Clock::now();
    do {
      Spans::Scope span(spans, "engine.lane_group", 0);
      runner.run_steps(std::vector<std::uint64_t>(kLaneWidth, g.chunk));
      t.samples += kLaneWidth * g.chunk;
      ++t.calls;
    } while (seconds_since(t0) < budget_s);
    t.seconds = seconds_since(t0);
    report.add("qtaccel.lanes8.ns_per_sample", t.ns_per_sample(), "ns",
               t.calls);
    outcome.attempted += t.calls;
  }
  {
    Timing t;
    for (const auto& e : build(env, g.configs,
                               qtaccel::Backend::kCycleAccurate)) {
      const Clock::time_point t0 = Clock::now();
      t.samples += advance(*e, kCycleSamples, spans);
      t.seconds += seconds_since(t0);
      ++t.calls;
    }
    report.add("qtaccel.cycle.ns_per_sample", t.ns_per_sample(), "ns",
               t.calls);
    outcome.attempted += t.calls;
  }
  check_equivalence(env, g.configs, /*lanes=*/true, spans, outcome);
}

void run_train(const Workload& workload, const RunOptions& options,
               Report& report, Outcome& outcome) {
  Spans spans(options.traced);
  std::vector<double> setup_s, warmup_s;
  // One step of the trainer advances every learner by one chunk. Every
  // set-up is measured for an equal share of --seconds, so the measured
  // time is spread over the whole run, which averages over the host's
  // bursts of neighbour load.
  std::vector<double> step_us;
  std::uint64_t calls = 0, samples = 0;
  double measured_s = 0.0;
  const unsigned setups = options.traced ? 1 : kSetups;
  Trainer trainer;
  for (unsigned i = 0; i < setups; ++i) {
    // Free the previous working set first, learners before their env.
    trainer.learners.clear();
    trainer.env.reset();
    trainer = set_up(workload.kind, options.seed, spans);
    setup_s.push_back(trainer.setup_s);
    warmup_s.push_back(trainer.warmup_s);
    if (options.traced) break;
    const Clock::time_point t0 = Clock::now();
    do {
      const Clock::time_point step0 = Clock::now();
      for (const auto& learner : trainer.learners) {
        samples += advance(*learner, kChunk, spans);
        ++calls;
      }
      step_us.push_back(seconds_since(step0) * 1e6);
    } while (seconds_since(t0) < options.seconds / setups);
    measured_s += seconds_since(t0);
  }

  if (options.traced) {
    report.add("runtime.warmup_s", median(warmup_s), "s", warmup_s.size());
    report_datapath_layers(
        Geometry{trainer.env.get(), trainer.configs, kChunk, trainer.warm,
                 std::move(trainer.learners)},
        options.seconds / 3.0, spans, report, outcome);
    report_serve_layers({}, report);
    if (!spans.write_perfetto(options.trace_file)) {
      outcome.error = "cannot write " + options.trace_file;
    }
    return;
  }

  outcome.attempted = calls;
  report.add("samples_per_s", static_cast<double>(samples) / measured_s,
             "samples/s", calls);
  report.add("req_per_s", static_cast<double>(calls) / measured_s, "req/s",
             calls);
  report.add("step_p50_us", percentile(step_us, 0.50), "us", step_us.size());
  report.add("setup_s", median(setup_s), "s", setup_s.size());
  report.add("peak_rss_mb", static_cast<double>(vm_hwm_kib(0)) / 1024.0,
             "MiB", 1);

  trainer.learners.clear();
  check_equivalence(*trainer.env, trainer.configs, /*lanes=*/false, spans,
                    outcome);
}

}  // namespace qta::qtbench
