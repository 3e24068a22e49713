// Host-side telemetry sink interface — the ONE telemetry header the
// datapath files (qtaccel pipeline files, src/hw, src/fixed, the thread
// pool) are allowed to include; qtlint's telemetry-boundary rule enforces
// exactly that. Everything here is observation-only: a sink receives
// copies of already-committed per-cycle / per-iteration facts and can
// never feed a value back into the datapath, so runs with and without a
// sink attached retire bit-identical traces (tests/telemetry_test.cpp
// proves it differentially for both backends).
//
// Event taxonomy, mirroring the two execution backends:
//   CycleEvent — cycle-accurate Pipeline: one event per tick, carrying
//                the cycle-attribution class (issue / forward-serviced /
//                stall / drain), stage occupancy, and the hazard activity
//                of that cycle.
//   StepEvent  — functional LaneEngine: one event per replayed iteration
//                of a lane (the functional backends have no cycle loop;
//                their per-iteration facts are the issue-slot view of
//                the same run).
//   RunEvent   — functional LaneEngine: one event per lane per run_*
//                call with the analytic cycle roll-up (issue/stall/
//                drain), so cycle attribution totals agree with the
//                reconstructed PipelineStats.
#pragma once

#include <cstdint>
#include <string>

namespace qta::telemetry {

/// Cycle-attribution class of one pipeline cycle.
enum class CycleClass : std::uint8_t {
  kIssue,            // stage 1 issued, no forwarding needed
  kForwardServiced,  // stage 1 issued AND >=1 hazard was closed by the
                     // forwarding network this cycle
  kStall,            // issue suppressed (HazardMode::kStall back-pressure)
  kDrain,            // no issue requested; in-flight iterations retiring
};

/// Stable label for a CycleClass ("issue", "forward_serviced", ...).
const char* cycle_class_name(CycleClass cls);

/// Bit positions of the per-stage occupancy masks in CycleEvent.
enum StageBit : std::uint8_t {
  kStageS1 = 1u << 0,
  kStageS2 = 1u << 1,
  kStageS3 = 1u << 2,
  kStageRet = 1u << 3,  // the retiring iteration (stage 4's input)
};
inline constexpr unsigned kNumStages = 4;

/// One cycle of the cycle-accurate pipeline, as the waveform sees it:
/// the stage fields describe the latches evaluated THIS cycle.
struct CycleEvent {
  std::uint64_t cycle = 0;  // 0-based cycle index
  CycleClass cls = CycleClass::kDrain;
  std::uint8_t stage_valid = 0;   // StageBit mask: stage holds an iteration
  std::uint8_t stage_bubble = 0;  // StageBit mask: ...which is a bubble
  // Hazard activity serviced this cycle. Distances are forwarding-queue
  // positions (1 = newest write-back) and 0 when the read was not
  // forwarded.
  std::uint8_t fwd_q_sa = 0;    // Q(S,A) reads served from the queue
  std::uint8_t fwd_q_next = 0;  // Q(S',A') reads served from the queue
  std::uint8_t fwd_qmax = 0;    // Qmax reads raised by in-flight write-backs
  std::uint8_t fwd_sa_distance = 0;
  std::uint8_t fwd_next_distance = 0;
  std::uint8_t adder_saturations = 0;  // saturating-adder clips this cycle
  bool sample_retired = false;  // a non-bubble update committed
  bool episode_end = false;     // ...and it ended its episode
  bool qmax_raised = false;     // stage 4 raised the Qmax entry
};

/// One replayed iteration of the fast functional backend.
struct StepEvent {
  std::uint64_t iteration = 0;  // 0-based iteration index
  bool bubble = false;          // zero-length episode, no update
  bool episode_end = false;
  std::uint8_t fwd_sa_distance = 0;    // 0 = not forwarded; else 1..3
  std::uint8_t fwd_next_distance = 0;  // 0 = not forwarded / no such read
  bool fwd_qmax = false;               // in-flight raise observable
  std::uint8_t saturations = 0;        // DSP + adder clips this iteration
  bool qmax_raised = false;
};

/// Analytic cycle attribution of one LaneEngine run_* call, per lane.
/// The sums agree with the PipelineStats reconstruction: issue + stall +
/// drain == the cycles added by the call.
struct RunEvent {
  std::uint64_t issue_cycles = 0;
  std::uint64_t stall_cycles = 0;
  std::uint64_t drain_cycles = 0;
};

/// Identity of the run a sink observes, used by downstream aggregation to
/// roll cycle attribution up per (algorithm, Qmax mode, hazard mode) and
/// per agent. Built from a PipelineConfig via
/// qtaccel::make_run_labels() — plain strings here so this header stays
/// free of qtaccel types (the dependency points the other way).
struct RunLabels {
  std::string algorithm;  // "q_learning", "sarsa", ...
  std::string qmax;       // "monotone" / "exact"
  std::string hazard;     // "forward" / "stall"
  std::string backend;    // "cycle" / "fast"
  unsigned pipe = 0;      // agent / pipeline index in multi-agent setups
};

/// The sink interface. Default implementations ignore everything, so a
/// sink overrides only the events its backend produces. Implementations
/// attached to engines running on different host threads must either be
/// distinct objects or internally synchronized.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;

  /// Cycle-accurate backend: one call per Pipeline::tick, after the
  /// stages evaluated and before the clock edge.
  virtual void on_cycle(const CycleEvent& event) { (void)event; }

  /// Fast backend: one call per replayed iteration.
  virtual void on_step(const StepEvent& event) { (void)event; }

  /// Fast backend: one call per run_iterations / run_samples call.
  virtual void on_run(const RunEvent& event) { (void)event; }
};

}  // namespace qta::telemetry
