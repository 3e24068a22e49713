#include "runtime/lane_coalescer.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "qtaccel/lane_engine.h"
#include "qtaccel/machine_state.h"
#include "telemetry/trace.h"

namespace qta::runtime {

bool is_lane_backend(const Engine& engine) {
  return engine.caps().lane_batched;
}

bool can_coalesce(const Engine& a, const Engine& b) {
  return is_lane_backend(a) && is_lane_backend(b) &&
         qtaccel::LaneEngine::compatible(a.config(), b.config());
}

LaneGroupRunner::LaneGroupRunner(std::vector<Engine*> engines)
    : engines_(std::move(engines)) {
  QTA_CHECK_MSG(!engines_.empty(), "lane group needs at least one engine");
  std::vector<qtaccel::LaneEngine::LaneSpec> specs;
  std::vector<qtaccel::MachineState> states;
  specs.reserve(engines_.size());
  states.reserve(engines_.size());
  for (Engine* e : engines_) {
    QTA_CHECK_MSG(is_lane_backend(*e),
                  "lane coalescing requires the lanes backend");
    qtaccel::LaneEngine* donor = e->lane_engine();
    QTA_CHECK_MSG(
        qtaccel::LaneEngine::compatible(engines_[0]->config(), e->config()),
        "lane group members must agree on (algorithm, qmax, hazard)");
    qtaccel::LaneEngine::LaneSpec spec;
    spec.env = &e->environment();
    spec.config = e->config();
    spec.image = donor->env_image(0);  // share the donor's baked image
    spec.defer_tables = true;          // tables arrive via put_state
    specs.push_back(std::move(spec));
    states.push_back(donor->take_state(0));
  }
  group_ = std::make_unique<qtaccel::LaneEngine>(specs);
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    group_->put_state(i, std::move(states[i]));
    qtaccel::LaneEngine* donor = engines_[i]->lane_engine();
    group_->set_trace(i, donor->trace(0));
    group_->set_telemetry(i, donor->telemetry(0));
  }
}

LaneGroupRunner::~LaneGroupRunner() {
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    engines_[i]->lane_engine()->put_state(0, group_->take_state(i));
  }
}

void LaneGroupRunner::set_trace(telemetry::TraceSession* trace,
                                std::uint32_t pid, std::uint32_t tid) {
  trace_ = trace;
  trace_pid_ = pid;
  trace_tid_ = tid;
}

void LaneGroupRunner::run_group(const std::vector<std::uint64_t>& targets) {
  if (trace_ == nullptr) {
    group_->run_samples_all(targets);
    return;
  }
  telemetry::TraceSession::SpanArgs args{
      {"lanes", static_cast<std::uint64_t>(engines_.size())}};
  std::vector<std::uint64_t> before(engines_.size());
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    before[i] = group_->stats(i).samples;
  }
  const std::uint64_t start = trace_->now_us();
  group_->run_samples_all(targets);
  const std::uint64_t end = trace_->now_us();
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    args.emplace_back("lane" + std::to_string(i) + "_samples",
                      group_->stats(i).samples - before[i]);
  }
  trace_->complete_event(trace_pid_, trace_tid_,
                         "lane_group[" + std::to_string(engines_.size()) +
                             "]",
                         start, end - start, std::move(args));
}

void LaneGroupRunner::run_steps(const std::vector<std::uint64_t>& steps) {
  QTA_CHECK(steps.size() == engines_.size());
  std::vector<std::uint64_t> targets(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    targets[i] = group_->stats(i).samples + steps[i];
  }
  run_group(targets);
}

void LaneGroupRunner::run_to_targets(
    const std::vector<std::uint64_t>& targets) {
  QTA_CHECK(targets.size() == engines_.size());
  run_group(targets);
}

const qtaccel::PipelineStats& LaneGroupRunner::stats(std::size_t i) const {
  return group_->stats(i);
}

}  // namespace qta::runtime
