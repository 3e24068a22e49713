#include "runtime/backend_registry.h"

#include <array>
#include <mutex>

#include "common/annotations.h"
#include "common/check.h"
#include "common/mutex.h"
#include "qtaccel/lane_engine.h"
#include "qtaccel/pipeline.h"

namespace qta::runtime {

namespace {

// The two in-tree adapters. These are the ONLY places outside unit
// tests where Pipeline/LaneEngine are constructed (the qtlint layering
// rule keeps it that way).

class PipelineBackend final : public QrlBackend {
 public:
  PipelineBackend(const env::Environment& env,
                  const qtaccel::PipelineConfig& config)
      : pipe_(env, config) {}

  qtaccel::Backend kind() const override {
    return qtaccel::Backend::kCycleAccurate;
  }
  BackendCaps caps() const override {
    BackendCaps c;
    c.waveforms = true;
    c.cycle_events = true;
    c.port_audit = true;
    c.single_cycle_step = true;
    c.dirty_rows = true;
    return c;
  }

  void run_iterations(std::uint64_t n) override { pipe_.run_iterations(n); }
  void run_samples(std::uint64_t n) override { pipe_.run_samples(n); }

  const qtaccel::PipelineStats& stats() const override {
    return pipe_.stats();
  }
  void set_trace(std::vector<qtaccel::SampleTrace>* trace) override {
    pipe_.set_trace(trace);
  }
  void set_telemetry(telemetry::TelemetrySink* sink) override {
    pipe_.set_telemetry(sink);
  }

  fixed::raw_t q_raw(StateId s, ActionId a) const override {
    return pipe_.q_raw(s, a);
  }
  double q_value(StateId s, ActionId a) const override {
    return pipe_.q_value(s, a);
  }
  fixed::raw_t q2_raw(StateId s, ActionId a) const override {
    return pipe_.q2_raw(s, a);
  }
  std::vector<double> q_as_double() const override {
    return pipe_.q_as_double();
  }
  std::vector<ActionId> greedy_policy() const override {
    return pipe_.greedy_policy();
  }
  qtaccel::QmaxUnit::Entry qmax_entry(StateId s) const override {
    return pipe_.qmax_entry(s);
  }

  void preset_q(StateId s, ActionId a, fixed::raw_t value) override {
    pipe_.preset_q(s, a, value);
  }
  void rebuild_qmax() override { pipe_.rebuild_qmax(); }
  std::uint64_t dsp_saturations() const override {
    return pipe_.dsp_saturations();
  }

  qtaccel::MachineState save_state() const override {
    return pipe_.save_state();
  }
  void load_state(const qtaccel::MachineState& ms) override {
    pipe_.load_state(ms);
  }
  void reset_dirty_rows() override { pipe_.reset_dirty_rows(); }
  std::uint64_t dirty_row_count() const override {
    return pipe_.dirty_row_count();
  }

  const env::Environment& environment() const override {
    return pipe_.environment();
  }
  const qtaccel::PipelineConfig& config() const override {
    return pipe_.config();
  }
  const qtaccel::AddressMap& address_map() const override {
    return pipe_.address_map();
  }

  qtaccel::Pipeline* cycle_pipeline() override { return &pipe_; }

 private:
  qtaccel::Pipeline pipe_;
};

// A one-lane LaneEngine behind the standard backend surface, for both
// functional kinds (config.backend is kFast or kLanes). Alone, the
// engine always runs the solo schedule. The kinds differ in two ways
// only: what the environment image bakes (LaneEngine::EnvImage), and
// the lane_batched capability — a kLanes engine's state can move into
// a multi-lane group and back in O(1) (runtime/lane_coalescer.h), so
// batches of same-shape sessions advance together; a kFast engine
// never joins a group.
class LaneEngineBackend final : public QrlBackend {
 public:
  LaneEngineBackend(const env::Environment& env,
                    const qtaccel::PipelineConfig& config)
      : lanes_(env, config) {}

  qtaccel::Backend kind() const override { return lanes_.config(0).backend; }
  BackendCaps caps() const override {
    BackendCaps c;
    c.lane_batched = kind() == qtaccel::Backend::kLanes;
    c.dirty_rows = true;
    return c;
  }

  void run_iterations(std::uint64_t n) override {
    lanes_.run_iterations(0, n);
  }
  void run_samples(std::uint64_t n) override { lanes_.run_samples(0, n); }

  const qtaccel::PipelineStats& stats() const override {
    return lanes_.stats(0);
  }
  void set_trace(std::vector<qtaccel::SampleTrace>* trace) override {
    lanes_.set_trace(0, trace);
  }
  void set_telemetry(telemetry::TelemetrySink* sink) override {
    lanes_.set_telemetry(0, sink);
  }

  fixed::raw_t q_raw(StateId s, ActionId a) const override {
    return lanes_.q_raw(0, s, a);
  }
  double q_value(StateId s, ActionId a) const override {
    return lanes_.q_value(0, s, a);
  }
  fixed::raw_t q2_raw(StateId s, ActionId a) const override {
    return lanes_.q2_raw(0, s, a);
  }
  std::vector<double> q_as_double() const override {
    return lanes_.q_as_double(0);
  }
  std::vector<ActionId> greedy_policy() const override {
    return lanes_.greedy_policy(0);
  }
  qtaccel::QmaxUnit::Entry qmax_entry(StateId s) const override {
    return lanes_.qmax_entry(0, s);
  }

  void preset_q(StateId s, ActionId a, fixed::raw_t value) override {
    lanes_.preset_q(0, s, a, value);
  }
  void rebuild_qmax() override { lanes_.rebuild_qmax(0); }
  std::uint64_t dsp_saturations() const override {
    return lanes_.dsp_saturations(0);
  }

  qtaccel::MachineState save_state() const override {
    return lanes_.save_state(0);
  }
  void load_state(const qtaccel::MachineState& ms) override {
    lanes_.load_state(0, ms);
  }
  void reset_dirty_rows() override { lanes_.reset_dirty_rows(0); }
  std::uint64_t dirty_row_count() const override {
    return lanes_.dirty_row_count(0);
  }

  const env::Environment& environment() const override {
    return lanes_.environment(0);
  }
  const qtaccel::PipelineConfig& config() const override {
    return lanes_.config(0);
  }
  const qtaccel::AddressMap& address_map() const override {
    return lanes_.address_map(0);
  }

  qtaccel::LaneEngine* lane_engine() override { return &lanes_; }

 private:
  qtaccel::LaneEngine lanes_;
};

std::unique_ptr<QrlBackend> make_pipeline_backend(
    const env::Environment& env, const qtaccel::PipelineConfig& config) {
  return std::make_unique<PipelineBackend>(env, config);
}

std::unique_ptr<QrlBackend> make_lane_backend(
    const env::Environment& env, const qtaccel::PipelineConfig& config) {
  return std::make_unique<LaneEngineBackend>(env, config);
}

constexpr std::size_t kNumBackends = 3;

struct Registry {
  qta::Mutex mu;
  std::array<BackendFactory, kNumBackends> factories QTA_GUARDED_BY(mu) = {};
};

Registry& registry() {
  static Registry r;
  return r;
}

std::size_t slot(qtaccel::Backend kind) {
  const auto index = static_cast<std::size_t>(kind);
  QTA_CHECK_MSG(index < kNumBackends, "unknown backend kind");
  return index;
}

std::once_flag builtins_once;

// Installed directly (not via register_backend) so an out-of-tree
// factory registered BEFORE the first make_backend call is never
// clobbered by the lazy built-in installation.
void ensure_builtins() {
  std::call_once(builtins_once, [] {
    Registry& r = registry();
    const qta::MutexLock lock(r.mu);
    r.factories[slot(qtaccel::Backend::kCycleAccurate)] =
        &make_pipeline_backend;
    r.factories[slot(qtaccel::Backend::kFast)] = &make_lane_backend;
    r.factories[slot(qtaccel::Backend::kLanes)] = &make_lane_backend;
  });
}

}  // namespace

void register_backend(qtaccel::Backend kind, BackendFactory factory) {
  QTA_CHECK(factory != nullptr);
  ensure_builtins();  // explicit registrations always win over built-ins
  Registry& r = registry();
  const qta::MutexLock lock(r.mu);
  r.factories[slot(kind)] = factory;
}

std::unique_ptr<QrlBackend> make_backend(
    const env::Environment& env, const qtaccel::PipelineConfig& config) {
  ensure_builtins();
  BackendFactory factory = nullptr;
  {
    Registry& r = registry();
    const qta::MutexLock lock(r.mu);
    factory = r.factories[slot(config.backend)];
  }
  QTA_CHECK_MSG(factory != nullptr,
                "no backend registered for this config.backend");
  return factory(env, config);
}

}  // namespace qta::runtime
