// runtime::Engine — the value-typed front door of the runtime layer.
//
// One construction surface over every registered backend: the config's
// Backend field picks the implementation through the registry
// (runtime/backend_registry.h), and everything above this layer — driver,
// trainer, table IO, examples, benches — programs against this class or
// the QrlBackend interface it owns.
//
//   runtime::Engine engine(env, cfg);      // cfg.backend picks the impl
//   engine.run_samples(1'000'000);
//   if (qtaccel::Pipeline* p = engine.cycle_pipeline()) { ... waveforms }
//
// cycle_pipeline() is nullable, not aborting: callers that need a
// cycle-only surface (waveforms, Bram port stats, tick-level stepping)
// probe backend().has_waveforms() / has_port_audit() or null-test the
// pointer, and degrade gracefully on the fast backend.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/backend.h"

namespace qta::runtime {

class Engine {
 public:
  /// `env` must outlive the engine. Builds the backend `config.backend`
  /// selects via the registry.
  Engine(const env::Environment& env, const qtaccel::PipelineConfig& config);

  /// The backend behind this engine — capability queries live here
  /// (backend().has_waveforms() and friends).
  QrlBackend& backend() { return *backend_; }
  const QrlBackend& backend() const { return *backend_; }
  qtaccel::Backend backend_kind() const { return backend_->kind(); }
  BackendCaps caps() const { return backend_->caps(); }

  void run_iterations(std::uint64_t n) { backend_->run_iterations(n); }
  void run_samples(std::uint64_t n) { backend_->run_samples(n); }

  const qtaccel::PipelineStats& stats() const { return backend_->stats(); }
  void set_trace(std::vector<qtaccel::SampleTrace>* trace) {
    backend_->set_trace(trace);
  }
  void set_telemetry(telemetry::TelemetrySink* sink) {
    backend_->set_telemetry(sink);
  }

  fixed::raw_t q_raw(StateId s, ActionId a) const {
    return backend_->q_raw(s, a);
  }
  // qtlint: allow(datapath-purity)
  double q_value(StateId s, ActionId a) const {
    return backend_->q_value(s, a);
  }
  fixed::raw_t q2_raw(StateId s, ActionId a) const {
    return backend_->q2_raw(s, a);
  }
  // qtlint: allow(datapath-purity)
  std::vector<double> q_as_double() const { return backend_->q_as_double(); }
  std::vector<ActionId> greedy_policy() const {
    return backend_->greedy_policy();
  }
  qtaccel::QmaxUnit::Entry qmax_entry(StateId s) const {
    return backend_->qmax_entry(s);
  }

  void preset_q(StateId s, ActionId a, fixed::raw_t value) {
    backend_->preset_q(s, a, value);
  }
  void rebuild_qmax() { backend_->rebuild_qmax(); }
  std::uint64_t dsp_saturations() const {
    return backend_->dsp_saturations();
  }

  /// Complete machine state; serialize it with runtime/snapshot.h.
  qtaccel::MachineState save_state() const { return backend_->save_state(); }
  void load_state(const qtaccel::MachineState& ms) {
    backend_->load_state(ms);
  }

  /// Dirty-row epoch control for delta checkpoints (see
  /// QrlBackend::reset_dirty_rows/dirty_row_count in runtime/backend.h).
  void reset_dirty_rows() { backend_->reset_dirty_rows(); }
  std::uint64_t dirty_row_count() const {
    return backend_->dirty_row_count();
  }

  const env::Environment& environment() const {
    return backend_->environment();
  }
  const qtaccel::PipelineConfig& config() const {
    return backend_->config();
  }
  const qtaccel::AddressMap& address_map() const {
    return backend_->address_map();
  }

  /// The cycle-accurate pipeline, or nullptr on backends without one.
  qtaccel::Pipeline* cycle_pipeline() { return backend_->cycle_pipeline(); }
  const qtaccel::Pipeline* cycle_pipeline() const {
    return backend_->cycle_pipeline();
  }

  /// The lane engine, or nullptr on backends without one (see
  /// runtime/lane_coalescer.h for the only intended caller; whether it
  /// may join a group is caps().lane_batched).
  qtaccel::LaneEngine* lane_engine() { return backend_->lane_engine(); }
  const qtaccel::LaneEngine* lane_engine() const {
    return backend_->lane_engine();
  }

 private:
  std::unique_ptr<QrlBackend> backend_;
};

}  // namespace qta::runtime
