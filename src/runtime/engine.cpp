#include "runtime/engine.h"

#include "qtaccel/lane_engine.h"

namespace qta::runtime {

// Every method runs on the Pipeline when there is one, else on lane 0 of
// the LaneEngine. Alone, a LaneEngine always takes the solo schedule, on
// the environment image it shares with every other engine on its
// environment (LaneEngine::EnvImage).

Engine::Engine(const env::Environment& env,
               const qtaccel::PipelineConfig& config) {
  if (config.backend == qtaccel::Backend::kCycleAccurate) {
    pipe_ = std::make_unique<qtaccel::Pipeline>(env, config);
  } else {
    lanes_ = std::make_unique<qtaccel::LaneEngine>(env, config);
  }
}

Engine::~Engine() = default;

void Engine::run_iterations(std::uint64_t n) {
  pipe_ ? pipe_->run_iterations(n) : lanes_->run_iterations(0, n);
}
void Engine::run_samples(std::uint64_t n) {
  pipe_ ? pipe_->run_samples(n) : lanes_->run_samples(0, n);
}

const qtaccel::PipelineStats& Engine::stats() const {
  return pipe_ ? pipe_->stats() : lanes_->stats(0);
}
void Engine::set_trace(std::vector<qtaccel::SampleTrace>* trace) {
  pipe_ ? pipe_->set_trace(trace) : lanes_->set_trace(0, trace);
}
void Engine::set_telemetry(telemetry::TelemetrySink* sink) {
  pipe_ ? pipe_->set_telemetry(sink) : lanes_->set_telemetry(0, sink);
}

fixed::raw_t Engine::q_raw(StateId s, ActionId a) const {
  return pipe_ ? pipe_->q_raw(s, a) : lanes_->q_raw(0, s, a);
}
double Engine::q_value(StateId s, ActionId a) const {
  return pipe_ ? pipe_->q_value(s, a) : lanes_->q_value(0, s, a);
}
fixed::raw_t Engine::q2_raw(StateId s, ActionId a) const {
  return pipe_ ? pipe_->q2_raw(s, a) : lanes_->q2_raw(0, s, a);
}
std::vector<double> Engine::q_as_double() const {
  return pipe_ ? pipe_->q_as_double() : lanes_->q_as_double(0);
}
std::vector<ActionId> Engine::greedy_policy() const {
  return pipe_ ? pipe_->greedy_policy() : lanes_->greedy_policy(0);
}
qtaccel::QmaxUnit::Entry Engine::qmax_entry(StateId s) const {
  return pipe_ ? pipe_->qmax_entry(s) : lanes_->qmax_entry(0, s);
}

void Engine::preset_q(StateId s, ActionId a, fixed::raw_t value) {
  pipe_ ? pipe_->preset_q(s, a, value) : lanes_->preset_q(0, s, a, value);
}
void Engine::rebuild_qmax() {
  pipe_ ? pipe_->rebuild_qmax() : lanes_->rebuild_qmax(0);
}
std::uint64_t Engine::dsp_saturations() const {
  return pipe_ ? pipe_->dsp_saturations() : lanes_->dsp_saturations(0);
}

qtaccel::MachineState Engine::save_state() const {
  qtaccel::MachineState ms =
      pipe_ ? pipe_->save_state() : lanes_->save_state(0);
  if (ms.episode_start) {  // dead walk registers: see engine.h
    ms.state = 0;
    ms.pending_action = kInvalidAction;
  }
  return ms;
}
void Engine::load_state(const qtaccel::MachineState& ms) {
  pipe_ ? pipe_->load_state(ms) : lanes_->load_state(0, ms);
}

void Engine::reset_dirty_rows() {
  pipe_ ? pipe_->reset_dirty_rows() : lanes_->reset_dirty_rows(0);
}
std::uint64_t Engine::dirty_row_count() const {
  return pipe_ ? pipe_->dirty_row_count() : lanes_->dirty_row_count(0);
}

const env::Environment& Engine::environment() const {
  return pipe_ ? pipe_->environment() : lanes_->environment(0);
}
const qtaccel::PipelineConfig& Engine::config() const {
  return pipe_ ? pipe_->config() : lanes_->config(0);
}
const qtaccel::AddressMap& Engine::address_map() const {
  return pipe_ ? pipe_->address_map() : lanes_->address_map(0);
}

}  // namespace qta::runtime
