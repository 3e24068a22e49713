// Lane coalescing: run many same-shape sessions as one LaneEngine group.
//
// The functional engine (qtaccel/lane_engine.h) advances N independent
// pipelines per round on its group schedule, but a runtime::Engine
// holds a one-lane engine — each session is its own engine, as the
// serving and fleet layers require for eviction, snapshots, and
// per-session telemetry. This header is the bridge: LaneGroupRunner
// takes a batch of lane-backed (Backend::kLanes) engines, migrates every
// engine's machine state into one multi-lane group
// (take_state/put_state — vector moves, no table copies), runs the
// group, and donates the states back on destruction. The engines are
// sequestered while the runner lives (their tables are moved out);
// everything about them is restored — stats, rings, RNG registers,
// tables — so the detour through the group is bit-invisible: each
// session ends exactly where a run of its own engine on the solo
// schedule would have left it. Backend::kFast engines run the same
// engine but never join a group.
//
// Callers: IndependentPipelines::run_samples_each coalesces its whole
// fleet when the config picks the lanes backend, and the qtserved batch
// path (serve/server.cpp pump()) groups compatible kStep requests from
// one pump batch. Compatibility is LaneEngine::compatible — lanes must
// agree on (algorithm, qmax, hazard); seeds, rates, formats, and
// environments may differ per lane.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/engine.h"

namespace qta::telemetry {
class TraceSession;
}  // namespace qta::telemetry

namespace qta::runtime {

/// True when `engine` runs the lanes backend (caps().lane_batched: its
/// state can migrate into a lane group in O(1)).
bool is_lane_backend(const Engine& engine);

/// True when `a` and `b` may share one lane group: both lane-backed and
/// LaneEngine::compatible on their configs.
bool can_coalesce(const Engine& a, const Engine& b);

class LaneGroupRunner {
 public:
  /// Adopts the engines' machine states into a fresh lane group (lane i
  /// = engines[i]). Aborts unless every engine is lane-backed and
  /// compatible with engines[0]. Per-lane trace/telemetry sinks follow
  /// the state into the group. The engines and their environments must
  /// outlive the runner; do not run or query them while it lives.
  explicit LaneGroupRunner(std::vector<Engine*> engines);
  /// Migrates every lane's state back to its engine.
  ~LaneGroupRunner();

  LaneGroupRunner(const LaneGroupRunner&) = delete;
  LaneGroupRunner& operator=(const LaneGroupRunner&) = delete;

  /// Span attribution (qtscope): after this, every run emits one
  /// "lane_group" Perfetto span on `trace`'s (pid, tid) track, stamped
  /// with the group size and per-lane retired-sample deltas as args —
  /// the coalesced-batch counterpart of the server's per-request
  /// "execute" spans. `trace` must outlive the runner; null detaches.
  void set_trace(telemetry::TraceSession* trace, std::uint32_t pid,
                 std::uint32_t tid);

  /// Advances engine i BY steps[i] samples (the serve Step contract:
  /// absolute targets are computed from each lane's retired total, so a
  /// pipeline-drain overshoot from an earlier run is not re-counted).
  void run_steps(const std::vector<std::uint64_t>& steps);
  /// Advances engine i TO the absolute target targets[i] (the
  /// Engine::run_samples contract; engines at or past target don't
  /// tick).
  void run_to_targets(const std::vector<std::uint64_t>& targets);

  std::size_t size() const { return engines_.size(); }
  /// Retired-sample stats for lane i while the group holds the state.
  const qtaccel::PipelineStats& stats(std::size_t i) const;

 private:
  void run_group(const std::vector<std::uint64_t>& targets);

  std::vector<Engine*> engines_;
  std::unique_ptr<qtaccel::LaneEngine> group_;
  telemetry::TraceSession* trace_ = nullptr;
  std::uint32_t trace_pid_ = 0;
  std::uint32_t trace_tid_ = 0;
};

}  // namespace qta::runtime
