#include "runtime/multi_pipeline.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <thread>

#include "common/check.h"
#include "qtaccel/machine_state.h"
#include "qtaccel/resources.h"
#include "runtime/lane_coalescer.h"
#include "runtime/snapshot.h"

namespace qta::runtime {

namespace {
constexpr const char* kPoolMagic = "QTACCEL-POOL-CHECKPOINT";
constexpr const char* kFleetMagic = "QTACCEL-FLEET-CHECKPOINT";
constexpr const char* kPoolVersion = "v1";

/// QTA_CHECK_MSG with the checkpoint's source context appended — the
/// leading message text is unchanged so existing death-test regexes
/// keep matching; the suffix names the file (and pipe, when set).
void require(bool ok, const char* msg, const SnapshotSource& src) {
  if (ok) return;
  const std::string full = msg + src.describe();
  QTA_CHECK_MSG(false, full.c_str());
}

void expect_pool_header(std::istream& is, const char* magic,
                        const char* key, std::uint64_t expected_count,
                        std::uint64_t* out_cycles,
                        const SnapshotSource& src) {
  std::string tok;
  is >> tok;
  require(static_cast<bool>(is) && tok == magic,
          "not a QTACCEL pool checkpoint file", src);
  is >> tok;
  require(static_cast<bool>(is) && tok == kPoolVersion,
          "unsupported pool checkpoint version", src);
  std::uint64_t count = 0;
  is >> tok >> count;
  require(static_cast<bool>(is) && tok == key && count == expected_count,
          "pool checkpoint shape does not match this pool", src);
  if (out_cycles != nullptr) {
    is >> tok >> *out_cycles;
    require(static_cast<bool>(is) && tok == "cycles",
            "truncated pool checkpoint header", src);
  }
}

SnapshotSource pipe_source(const SnapshotSource& base, std::size_t pipe) {
  SnapshotSource src = base;
  src.pipe = static_cast<int>(pipe);
  return src;
}
}  // namespace

SharedTablePipelines::SharedTablePipelines(const env::Environment& env,
                                           const qtaccel::PipelineConfig&
                                               config,
                                           unsigned num_pipelines)
    : env_(env),
      config_(config),
      map_(qtaccel::make_address_map(env)),
      q_("shared_q_table", map_.depth(), config.q_fmt.width,
         2 * num_pipelines),
      r_("shared_reward_table", map_.depth(), config.q_fmt.width,
         std::max(2u, num_pipelines)),
      qmax_(env.num_states(), config.q_fmt.width, map_.action_bits,
            2 * num_pipelines) {
  QTA_CHECK_MSG(num_pipelines >= 1 && num_pipelines <= 2,
                "shared-table mode supports one or two pipelines");
  QTA_CHECK_MSG(
      config.backend == qtaccel::Backend::kCycleAccurate,
      "shared-table mode requires the cycle-accurate backend: the fast "
      "engine has no port-level table sharing or collision model (set "
      "config.backend = Backend::kCycleAccurate, or use "
      "IndependentPipelines for fast fleets)");
  for (StateId s = 0; s < env.num_states(); ++s) {
    for (ActionId a = 0; a < env.num_actions(); ++a) {
      r_.preset(map_.q_addr(s, a),
                fixed::from_double(env.reward(s, a), config.q_fmt));
    }
  }
  for (unsigned p = 0; p < num_pipelines; ++p) {
    qtaccel::PipelineConfig pc = config;
    pc.seed = config.seed + p;
    pipes_.push_back(std::make_unique<qtaccel::Pipeline>(env, pc, &q_, &r_,
                                                         &qmax_, 2 * p));
  }
}

void SharedTablePipelines::tick_all(bool allow_issue) {
  q_.begin_cycle();
  r_.begin_cycle();
  qmax_.bram().begin_cycle();
  for (auto& p : pipes_) p->tick(allow_issue);
  q_.clock_edge();
  r_.clock_edge();
  qmax_.bram().clock_edge();
  ++cycles_;
}

bool SharedTablePipelines::any_in_flight() const {
  for (const auto& p : pipes_) {
    if (p->in_flight()) return true;
  }
  return false;
}

void SharedTablePipelines::drain() {
  while (any_in_flight()) tick_all(false);
}

void SharedTablePipelines::run_cycles(std::uint64_t cycles) {
  for (std::uint64_t c = 0; c < cycles; ++c) tick_all(true);
}

void SharedTablePipelines::run_samples_total(std::uint64_t total) {
  while (total_samples() < total) tick_all(true);
}

void SharedTablePipelines::save_checkpoint(std::ostream& os) {
  drain();  // the lockstep barrier: every pipe's state is now committed
  os << kPoolMagic << ' ' << kPoolVersion << '\n'
     << "pipes " << pipes_.size() << '\n'
     << "cycles " << cycles_ << '\n';
  // Each pipe snapshots the shared tables through its own pointers; the
  // duplication buys per-pipe files that are individually complete.
  for (const auto& p : pipes_) {
    write_snapshot(os, p->config(), env_, p->save_state());
  }
}

void SharedTablePipelines::load_checkpoint(std::istream& is,
                                           const SnapshotSource& source) {
  std::uint64_t cycles = 0;
  expect_pool_header(is, kPoolMagic, "pipes", pipes_.size(), &cycles,
                     source);
  // Per-pipe restore re-presets the shared tables once per pipe — they
  // were saved post-drain, so every copy is identical and the repeated
  // preset is idempotent.
  for (std::size_t i = 0; i < pipes_.size(); ++i) {
    pipes_[i]->load_state(read_snapshot(is, pipes_[i]->config(), env_,
                                        pipe_source(source, i)));
  }
  cycles_ = cycles;
}

void SharedTablePipelines::save_checkpoint_file(const std::string& path) {
  std::ofstream os(path);
  require(os.is_open(), "cannot open pool checkpoint file for writing",
          SnapshotSource{path});
  save_checkpoint(os);
  os.flush();
  require(os.good(), "failed writing pool checkpoint file",
          SnapshotSource{path});
}

void SharedTablePipelines::load_checkpoint_file(const std::string& path) {
  std::ifstream is(path);
  require(is.is_open(), "cannot open pool checkpoint file for reading",
          SnapshotSource{path});
  load_checkpoint(is, SnapshotSource{path});
}

std::uint64_t SharedTablePipelines::total_samples() const {
  std::uint64_t sum = 0;
  for (const auto& p : pipes_) sum += p->stats().samples;
  return sum;
}

// Host-side metrics and table readback (see pipeline.cpp for rationale).
// qtlint: push-allow(datapath-purity)
double SharedTablePipelines::samples_per_cycle() const {
  return cycles_ == 0 ? 0.0
                      : static_cast<double>(total_samples()) /
                            static_cast<double>(cycles_);
}

double SharedTablePipelines::q_value(StateId s, ActionId a) const {
  return fixed::to_double(q_.peek(map_.q_addr(s, a)), config_.q_fmt);
}

std::vector<double> SharedTablePipelines::q_as_double() const {
  std::vector<double> out;
  out.reserve(env_.table_size());
  for (StateId s = 0; s < env_.num_states(); ++s) {
    for (ActionId a = 0; a < env_.num_actions(); ++a) {
      out.push_back(q_value(s, a));
    }
  }
  return out;
}
// qtlint: pop-allow(datapath-purity)

IndependentPipelines::IndependentPipelines(
    std::vector<std::unique_ptr<env::Environment>> environments,
    const qtaccel::PipelineConfig& config)
    : envs_(std::move(environments)), config_(config) {
  QTA_CHECK(!envs_.empty());
  for (std::size_t i = 0; i < envs_.size(); ++i) {
    qtaccel::PipelineConfig pc = config;
    pc.seed = config.seed * 1000003ULL + i;
    engines_.push_back(std::make_unique<Engine>(*envs_[i], pc));
  }
}

unsigned IndependentPipelines::pool_workers(unsigned max_threads) const {
  // Matches run_samples_each's work-stealing resolution, including the
  // hardware clamp, so observer tracks line up with actual workers.
  const unsigned hardware = std::thread::hardware_concurrency();
  unsigned threads =
      resolve_thread_count(max_threads, hardware, engines_.size());
  if (hardware != 0 && threads > hardware) threads = hardware;
  return threads;
}

void IndependentPipelines::run_samples_each(std::uint64_t samples,
                                            unsigned max_threads,
                                            Schedule schedule) {
  if (config_.backend == qtaccel::Backend::kLanes) {
    // The lanes backend IS the batching mechanism: coalesce the whole
    // fleet into one lane group (same config everywhere, so always
    // compatible) and advance every pipeline in the round loop instead
    // of spreading single-lane engines over threads. The runner's
    // destructor hands each engine its state back.
    std::vector<Engine*> members;
    members.reserve(engines_.size());
    for (auto& e : engines_) members.push_back(e.get());
    LaneGroupRunner runner(std::move(members));
    runner.run_to_targets(
        std::vector<std::uint64_t>(engines_.size(), samples));
    return;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  unsigned threads =
      resolve_thread_count(max_threads, hardware, engines_.size());
  if (schedule == Schedule::kWorkStealing && hardware != 0 &&
      threads > hardware) {
    // Over-subscribing compute-bound engines only buys context-switch
    // overhead: with more workers than cores the pool's dynamic
    // claiming degenerates to the OS scheduler time-slicing them. Clamp
    // to the hardware (the static schedule keeps the caller's count —
    // it is the legacy-ablation baseline and must not silently change).
    threads = hardware;
  }
  if (threads == 1) {
    for (auto& e : engines_) e->run_samples(samples);
    return;
  }
  if (schedule == Schedule::kStaticRoundRobin) {
    // Legacy schedule (pre-pool): fresh threads per call, pipeline i
    // pinned to thread i % threads. Kept as the bench ablation baseline.
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([this, t, threads, samples] {
        for (std::size_t i = t; i < engines_.size(); i += threads) {
          engines_[i]->run_samples(samples);
        }
      });
    }
    for (auto& th : pool) th.join();
    return;
  }
  if (!pool_ || pool_->size() != threads) {
    pool_ = std::make_unique<ThreadPool>(threads);
    pool_->set_observer(pool_observer_);
  }
  pool_->parallel_for(engines_.size(), [this, samples](std::size_t i) {
    engines_[i]->run_samples(samples);
  });
}

void IndependentPipelines::save_checkpoint(std::ostream& os) const {
  os << kFleetMagic << ' ' << kPoolVersion << '\n'
     << "engines " << engines_.size() << '\n';
  for (const auto& e : engines_) save_snapshot(*e, os);
}

void IndependentPipelines::load_checkpoint(std::istream& is,
                                           const SnapshotSource& source) {
  expect_pool_header(is, kFleetMagic, "engines", engines_.size(),
                     /*out_cycles=*/nullptr, source);
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    load_snapshot(*engines_[i], is, pipe_source(source, i));
  }
}

void IndependentPipelines::save_checkpoint_file(
    const std::string& path) const {
  std::ofstream os(path);
  require(os.is_open(), "cannot open fleet checkpoint file for writing",
          SnapshotSource{path});
  save_checkpoint(os);
  os.flush();
  require(os.good(), "failed writing fleet checkpoint file",
          SnapshotSource{path});
}

void IndependentPipelines::load_checkpoint_file(const std::string& path) {
  std::ifstream is(path);
  require(is.is_open(), "cannot open fleet checkpoint file for reading",
          SnapshotSource{path});
  load_checkpoint(is, SnapshotSource{path});
}

std::uint64_t IndependentPipelines::total_samples() const {
  std::uint64_t sum = 0;
  for (const auto& e : engines_) sum += e->stats().samples;
  return sum;
}

// Host-side aggregate metric.
// qtlint: push-allow(datapath-purity)
double IndependentPipelines::samples_per_cycle() const {
  Cycle slowest = 0;
  for (const auto& e : engines_) {
    slowest = std::max(slowest, e->stats().cycles);
  }
  return slowest == 0 ? 0.0
                      : static_cast<double>(total_samples()) /
                            static_cast<double>(slowest);
}
// qtlint: pop-allow(datapath-purity)

hw::ResourceLedger IndependentPipelines::resources() const {
  return qtaccel::build_resources(*envs_[0], config_,
                                  static_cast<unsigned>(engines_.size()),
                                  /*share_tables=*/false);
}

}  // namespace qta::runtime
