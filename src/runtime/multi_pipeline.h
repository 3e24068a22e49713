// Multi-agent extensions (Section VII-A, Figures 8 and 9).
//
// SharedTablePipelines — "State Sharing Learners": two pipelines train in
// the SAME environment against ONE set of Q/R/Qmax tables. The tables are
// modeled as double-pumped dual-port BRAM (4 logical ports); when both
// pipelines write the same address in one cycle, one arbitrarily
// overwrites the other (counted as a collision, exactly the behaviour the
// paper describes). There is no cross-pipeline forwarding: each agent's
// hazard network only covers its own in-flight updates. Shared-table mode
// REQUIRES the cycle-accurate backend — the fast engine has no port-level
// table sharing — and the constructor rejects a fast-backend config with
// a clear error instead of silently running the wrong model.
//
// IndependentPipelines — "Independent Learners": N engines, each with its
// own environment partition and its own BRAM bank; embarrassingly
// parallel, simulated with host threads. Every backend works; a kLanes
// fleet advances as one lane group instead.
//
// Both pools checkpoint through the snapshot layer: per-pipe machine
// snapshots concatenated under a pool header, written at a lockstep
// barrier (shared mode drains all pipes first; independent mode saves
// after run_samples_each's join). Restoring is save/load-transparent: a
// restored pool continues exactly as the saved pool would have. For the
// shared pool the checkpoint seam is additionally a forwarding boundary
// (like any drain); cross-pipe write visibility at the seam differs from
// an uninterrupted run, so shared-mode checkpoints are transparent but
// not bit-identical to a run that never paused — docs/runtime.md spells
// this out.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "env/environment.h"
#include "hw/bram.h"
#include "hw/resource_ledger.h"
#include "qtaccel/pipeline.h"
#include "qtaccel/qmax_unit.h"
#include "runtime/engine.h"
#include "runtime/snapshot.h"

namespace qta::runtime {

class SharedTablePipelines {
 public:
  /// `num_pipelines` is 1 or 2 (1 exists so single/dual comparisons run
  /// through identical code). Pipeline p gets seed config.seed + p.
  /// Aborts when config.backend is not the cycle-accurate backend.
  SharedTablePipelines(const env::Environment& env,
                       const qtaccel::PipelineConfig& config,
                       unsigned num_pipelines = 2);

  /// Runs `cycles` lockstep cycles (all pipelines issue every cycle).
  void run_cycles(std::uint64_t cycles);

  /// Runs until the pipelines have retired `total` samples combined.
  void run_samples_total(std::uint64_t total);

  /// Lockstep drain: issue is suppressed on every pipe until nothing is
  /// in flight anywhere. The checkpoint barrier; also usable on its own.
  void drain();

  /// Pool-wide atomic checkpoint: drains, then writes the pool header
  /// and one v2 text machine snapshot per pipe (shared tables appear in
  /// each — restore is idempotent). Non-const because of the drain.
  void save_checkpoint(std::ostream& os);
  /// Restores a pool checkpoint (the per-pipe version token is sniffed,
  /// so v2 and v3 images may even mix within one stream); aborts with a
  /// diagnostic on a foreign
  /// file or a pool-shape mismatch. The diagnostic names `source` plus
  /// the offending pipe index, so a bad snapshot inside a multi-pipe
  /// stream is attributable.
  void load_checkpoint(std::istream& is, const SnapshotSource& source = {});
  /// File helpers; abort with a diagnostic (naming the path) when the
  /// file cannot be opened/written or fails to parse.
  void save_checkpoint_file(const std::string& path);
  void load_checkpoint_file(const std::string& path);

  unsigned num_pipelines() const {
    return static_cast<unsigned>(pipes_.size());
  }
  const qtaccel::Pipeline& pipeline(unsigned i) const { return *pipes_[i]; }
  Cycle cycles() const { return cycles_; }

  /// Attaches a telemetry sink to pipeline `i` (nullptr detaches). The
  /// lockstep tick then emits one CycleEvent per pipeline per cycle.
  void set_telemetry(unsigned i, telemetry::TelemetrySink* sink) {
    pipes_[i]->set_telemetry(sink);
  }

  /// Combined retired samples across pipelines.
  std::uint64_t total_samples() const;
  /// Same-cycle same-address write collisions on the shared Q table.
  std::uint64_t q_write_collisions() const {
    return q_.stats().write_collisions;
  }
  // Host-side metrics and table readback.
  // qtlint: push-allow(datapath-purity)
  /// Combined throughput in samples per cycle (≈ num_pipelines).
  double samples_per_cycle() const;

  double q_value(StateId s, ActionId a) const;
  std::vector<double> q_as_double() const;
  // qtlint: pop-allow(datapath-purity)

 private:
  void tick_all(bool allow_issue);
  bool any_in_flight() const;

  const env::Environment& env_;
  qtaccel::PipelineConfig config_;
  qtaccel::AddressMap map_;
  hw::Bram q_;
  hw::Bram r_;
  qtaccel::QmaxUnit qmax_;
  std::vector<std::unique_ptr<qtaccel::Pipeline>> pipes_;
  Cycle cycles_ = 0;
};

/// Lock discipline: this class owns no mutex. Parallelism happens only
/// inside ThreadPool::parallel_for (annotated and checked by clang's
/// thread-safety analysis; common/annotations.h), each worker item
/// touching exactly one self-contained engine — so the fleet itself
/// needs confinement, not locking. The qtlint mutex-annotation rule
/// ensures any future lock here arrives with QTA_* annotations; the
/// TSan preset runs the MultiPipeline/Independent/Stress suites against
/// the same claim dynamically.
class IndependentPipelines {
 public:
  /// One engine per environment (cycle-accurate or fast per
  /// config.backend); environment i uses seed config.seed * 1000003 + i.
  IndependentPipelines(
      std::vector<std::unique_ptr<env::Environment>> environments,
      const qtaccel::PipelineConfig& config);

  /// Runs every pipeline for `samples` samples on
  /// pool_workers(max_threads) host threads, through one persistent
  /// work-stealing pool reused across calls. With the lanes backend the
  /// fleet is coalesced into one LaneEngine group instead
  /// (runtime/lane_coalescer.h): all pipelines advance in one
  /// lane-batched round loop, and `max_threads` is moot. Results are
  /// thread-count-independent: every engine is fully self-contained, so
  /// only wall-clock time changes.
  void run_samples_each(std::uint64_t samples, unsigned max_threads = 0);

  /// Fleet checkpoint: one v2 text machine snapshot per engine (loads
  /// sniff the version per engine). Valid at any point between
  /// run_samples_each calls (the parallel_for join is the barrier);
  /// restoring resumes every engine bit-exactly. Load diagnostics name
  /// `source` plus the offending engine's pipe index.
  void save_checkpoint(std::ostream& os) const;
  void load_checkpoint(std::istream& is, const SnapshotSource& source = {});
  /// File helpers; abort with a diagnostic (naming the path) when the
  /// file cannot be opened/written or fails to parse.
  void save_checkpoint_file(const std::string& path) const;
  void load_checkpoint_file(const std::string& path);

  unsigned num_pipelines() const {
    return static_cast<unsigned>(engines_.size());
  }
  /// The cycle-accurate pipeline behind engine i, or nullptr when the
  /// backend has none (fast backend) — probe, don't assume.
  const qtaccel::Pipeline* cycle_pipeline(unsigned i) const {
    return engines_[i]->cycle_pipeline();
  }
  Engine& engine(unsigned i) { return *engines_[i]; }
  const Engine& engine(unsigned i) const { return *engines_[i]; }
  const env::Environment& environment(unsigned i) const {
    return *envs_[i];
  }

  std::uint64_t total_samples() const;
  /// Aggregate throughput in samples per cycle, where a "cycle" is the
  /// slowest pipeline's cycle count (all pipelines run concurrently in
  /// hardware).
  double samples_per_cycle() const;  // qtlint: allow(datapath-purity)

  /// Combined resource ledger (N banks + N pipelines of logic).
  hw::ResourceLedger resources() const;

  /// Observer attached to the persistent pool's next run (see
  /// telemetry/pool_observer.h; nullptr detaches). Stored here because
  /// the pool is built lazily; applied at run_samples_each time.
  void set_pool_observer(TaskObserver* observer) {
    pool_observer_ = observer;
    if (pool_) pool_->set_observer(observer);
  }
  /// Host threads run_samples_each uses for `max_threads` (0 = hardware
  /// concurrency; a platform that cannot report its concurrency runs
  /// single-threaded), clamped to the hardware concurrency: more
  /// workers than cores only adds context switches. Callers size
  /// PoolTraceObserver tracks with this.
  unsigned pool_workers(unsigned max_threads = 0) const;

 private:
  std::vector<std::unique_ptr<env::Environment>> envs_;
  qtaccel::PipelineConfig config_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::unique_ptr<ThreadPool> pool_;  // lazily built, reused across calls
  TaskObserver* pool_observer_ = nullptr;
};

}  // namespace qta::runtime
