// The runtime's backend abstraction: one QRL machine, interchangeable
// observation surfaces.
//
// A QrlBackend is one accelerator instance — the paper's machine —
// executed by either the cycle-accurate pipeline (qtaccel/pipeline.h) or
// a one-lane functional replay engine (qtaccel/lane_engine.h; the kFast
// and kLanes kinds). Both retire bit-identical traces and tables; they
// differ in what the host pays per sample and in which observation
// surfaces exist (waveforms, per-cycle telemetry, port auditing, lane
// groups). Capability flags expose that difference so callers probe
// instead of assuming a backend.
//
// Layering rule (enforced by qtlint's layering DAG): runtime/
// includes qtaccel/, never the reverse. Everything above the datapath —
// driver, tools, examples, benches — talks to QrlBackend or the Engine
// facade (runtime/engine.h), not to Pipeline/LaneEngine directly.
#pragma once

#include <cstdint>
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

/// What a backend can observe beyond the retired trace and stats. The
/// trace/table semantics themselves are identical across backends — these
/// flags only gate observation surfaces.
struct BackendCaps {
  bool waveforms = false;     // textual per-cycle waveform (set_waveform)
  bool cycle_events = false;  // telemetry CycleEvents (the functional
                              // kinds emit StepEvents/RunEvents instead)
  bool port_audit = false;    // per-cycle Bram port/conflict accounting
  bool single_cycle_step = false;  // tick()-level stepping (driver CSR run)
  bool lane_batched = false;  // state can migrate into a lane group
                              // (runtime/lane_coalescer.h) and back, O(1);
                              // kLanes only — kFast engines run alone
  bool dirty_rows = false;    // tracks rows written since the last
                              // reset_dirty_rows() epoch
                              // (qtaccel/machine_state.h DirtyRows), so
                              // delta checkpoints serialize only touched
                              // rows (runtime/snapshot.h)
};

class QrlBackend {
 public:
  virtual ~QrlBackend() = default;

  QrlBackend() = default;
  QrlBackend(const QrlBackend&) = delete;
  QrlBackend& operator=(const QrlBackend&) = delete;

  virtual qtaccel::Backend kind() const = 0;
  virtual BackendCaps caps() const = 0;

  // Capability queries, for call sites that read better as a question.
  bool has_waveforms() const { return caps().waveforms; }
  bool has_cycle_events() const { return caps().cycle_events; }
  bool has_port_audit() const { return caps().port_audit; }
  bool has_single_cycle_step() const { return caps().single_cycle_step; }

  virtual void run_iterations(std::uint64_t n) = 0;
  virtual void run_samples(std::uint64_t n) = 0;

  virtual const qtaccel::PipelineStats& stats() const = 0;
  virtual void set_trace(std::vector<qtaccel::SampleTrace>* trace) = 0;
  virtual void set_telemetry(telemetry::TelemetrySink* sink) = 0;

  virtual fixed::raw_t q_raw(StateId s, ActionId a) const = 0;
  // qtlint: allow(datapath-purity)
  virtual double q_value(StateId s, ActionId a) const = 0;
  virtual fixed::raw_t q2_raw(StateId s, ActionId a) const = 0;
  // qtlint: allow(datapath-purity)
  virtual std::vector<double> q_as_double() const = 0;
  virtual std::vector<ActionId> greedy_policy() const = 0;
  virtual qtaccel::QmaxUnit::Entry qmax_entry(StateId s) const = 0;

  virtual void preset_q(StateId s, ActionId a, fixed::raw_t value) = 0;
  virtual void rebuild_qmax() = 0;
  virtual std::uint64_t dsp_saturations() const = 0;

  /// Complete machine state (qtaccel/machine_state.h). Backend-generic:
  /// a state saved here restores on any backend of the same config.
  virtual qtaccel::MachineState save_state() const = 0;
  virtual void load_state(const qtaccel::MachineState& ms) = 0;

  /// Dirty-row epoch control (qtaccel/machine_state.h DirtyRows),
  /// meaningful only when caps().dirty_rows. reset_dirty_rows() starts a
  /// fresh epoch after a full checkpoint; dirty_row_count() is the rows
  /// a delta since that epoch would carry, collapsing to num_states
  /// while tracking is conservative (fresh engine, adopted unknown
  /// state, rebuild_qmax) — callers use it to decide delta vs full
  /// without serializing anything.
  virtual void reset_dirty_rows() {}
  virtual std::uint64_t dirty_row_count() const {
    return environment().num_states();
  }

  virtual const env::Environment& environment() const = 0;
  virtual const qtaccel::PipelineConfig& config() const = 0;
  virtual const qtaccel::AddressMap& address_map() const = 0;

  /// The cycle-accurate pipeline when this backend wraps one, else
  /// nullptr — the nullable replacement for the old aborting accessor.
  /// Check has_waveforms()/has_port_audit() (or null-test the result)
  /// instead of assuming the cycle backend.
  virtual qtaccel::Pipeline* cycle_pipeline() { return nullptr; }
  const qtaccel::Pipeline* cycle_pipeline() const {
    return const_cast<QrlBackend*>(this)->cycle_pipeline();
  }

  /// The (single-lane) lane engine when this backend wraps one, else
  /// nullptr. Non-null for both functional kinds; only
  /// caps().lane_batched says whether it may join a group — the
  /// coalescer uses this to donate state into a lane group
  /// (take_state/put_state) without copying tables.
  virtual qtaccel::LaneEngine* lane_engine() { return nullptr; }
  const qtaccel::LaneEngine* lane_engine() const {
    return const_cast<QrlBackend*>(this)->lane_engine();
  }
};

}  // namespace qta::runtime
