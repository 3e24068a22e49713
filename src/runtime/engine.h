// runtime::Engine — the value-typed front door of the runtime layer.
//
// One Engine is one accelerator instance — the paper's machine — run by
// the executor its config's Backend field names: the cycle-accurate
// qtaccel::Pipeline (kCycleAccurate), or a one-lane functional
// qtaccel::LaneEngine (kFast and kLanes). Both retire bit-identical
// traces, tables and snapshots; they differ in what the host pays per
// sample and in the observation surfaces only the Pipeline has
// (waveforms, per-cycle telemetry CycleEvents, Bram port auditing,
// tick-level stepping). Everything above this layer — driver, trainer,
// table IO, serving, examples, benches — programs against this class.
//
//   runtime::Engine engine(env, cfg);      // cfg.backend picks the executor
//   engine.run_samples(1'000'000);
//   if (qtaccel::Pipeline* p = engine.cycle_pipeline()) { ... waveforms }
//
// cycle_pipeline() and lane_engine() are nullable, not aborting: callers
// that need a cycle-only surface null-test cycle_pipeline() and degrade
// gracefully on the functional kinds.
//
// Layering rule (enforced by qtlint's layering DAG): only src/runtime
// and src/qtaccel include the executors' headers. This header includes
// qtaccel/pipeline.h so callers of cycle_pipeline() see the Pipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "env/environment.h"
#include "qtaccel/config.h"
#include "qtaccel/machine_state.h"
#include "qtaccel/pipeline.h"
#include "qtaccel/qmax_unit.h"
#include "telemetry/sink.h"

namespace qta::qtaccel {
class LaneEngine;  // runtime/lane_coalescer.h migrates state through it
}  // namespace qta::qtaccel

namespace qta::runtime {

class Engine {
 public:
  /// `env` must outlive the engine. Builds the executor `config.backend`
  /// selects.
  Engine(const env::Environment& env, const qtaccel::PipelineConfig& config);
  ~Engine();

  void run_iterations(std::uint64_t n);
  void run_samples(std::uint64_t n);

  const qtaccel::PipelineStats& stats() const;
  void set_trace(std::vector<qtaccel::SampleTrace>* trace);
  void set_telemetry(telemetry::TelemetrySink* sink);

  fixed::raw_t q_raw(StateId s, ActionId a) const;
  // qtlint: allow(datapath-purity)
  double q_value(StateId s, ActionId a) const;
  fixed::raw_t q2_raw(StateId s, ActionId a) const;
  // qtlint: allow(datapath-purity)
  std::vector<double> q_as_double() const;
  std::vector<ActionId> greedy_policy() const;
  qtaccel::QmaxUnit::Entry qmax_entry(StateId s) const;

  void preset_q(StateId s, ActionId a, fixed::raw_t value);
  void rebuild_qmax();
  std::uint64_t dsp_saturations() const;

  /// Complete machine state (qtaccel/machine_state.h); serialize it with
  /// runtime/snapshot.h. A state saved here restores on any kind of the
  /// same config. Once an episode has ended (episode_start), the walk
  /// registers are dead — the next iteration redraws both — and the
  /// executors leave different values in them, so they are reported in
  /// one canonical form: state 0, pending_action kInvalidAction.
  qtaccel::MachineState save_state() const;
  void load_state(const qtaccel::MachineState& ms);

  /// Dirty-row epoch control for delta checkpoints (qtaccel/
  /// machine_state.h DirtyRows). reset_dirty_rows() starts a fresh epoch
  /// after a full checkpoint; dirty_row_count() is the rows a delta
  /// since that epoch would carry, collapsing to num_states while
  /// tracking is conservative (fresh engine, adopted unknown state,
  /// rebuild_qmax) — callers use it to decide delta vs full without
  /// serializing anything.
  void reset_dirty_rows();
  std::uint64_t dirty_row_count() const;

  const env::Environment& environment() const;
  const qtaccel::PipelineConfig& config() const;
  const qtaccel::AddressMap& address_map() const;

  /// The cycle-accurate pipeline (kCycleAccurate), else nullptr.
  qtaccel::Pipeline* cycle_pipeline() { return pipe_.get(); }
  const qtaccel::Pipeline* cycle_pipeline() const { return pipe_.get(); }

  /// The one-lane lane engine (kFast and kLanes), else nullptr.
  /// runtime/lane_coalescer.h donates a kLanes engine's state through it
  /// into a lane group (take_state/put_state) without copying tables.
  qtaccel::LaneEngine* lane_engine() { return lanes_.get(); }
  const qtaccel::LaneEngine* lane_engine() const { return lanes_.get(); }

 private:
  // Exactly one is non-null.
  std::unique_ptr<qtaccel::Pipeline> pipe_;
  std::unique_ptr<qtaccel::LaneEngine> lanes_;
};

}  // namespace qta::runtime
