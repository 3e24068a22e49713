// The functional replay engine: bit-exact replay of the accelerator
// without the cycle-accurate machinery, for one pipeline or for N
// independent pipelines advanced in lockstep.
//
// LaneEngine executes the accelerator's exact semantics — the same LFSR
// draw sequences, the same fixed-point DSP operation order and
// saturation, the same monotone-Qmax approximation, the same episode
// control — straight against flat arrays: no SimKernel, no per-cycle
// Bram port accounting, no pipeline latches. Each lane is one pipeline.
// Per-lane LFSR state, walk state, forwarding rings and episode control
// live in flat per-lane arrays; one iteration of one lane is four pass
// functions (pass_addr, pass_next, pass_read, pass_retire, which opens
// with the stage-3 fixed-point update of that one lane), and those
// passes are the only place the iteration's semantics are written down.
//
// Two schedules drive the same four passes; the number of live lanes at
// run entry picks one:
//   solo  — one live lane: the passes run back to back, and s_next's
//           rows are prefetched a full iteration ahead (a one-lane run
//           has nothing to overlap its misses with but its own next
//           iteration);
//   group — N live lanes: each pass runs across every live lane before
//           the next starts, so N independent miss chains overlap. Each
//           lane retires through its own stage-3 update, as each of the
//           paper's replicated pipelines owns its DSPs; this is the
//           software analogue of those pipelines.
//
// Fidelity: the retired SampleTrace sequence, the final Q/Qmax tables,
// the RNG registers and the PipelineStats are bit-identical to both
// GoldenModel and Pipeline on either schedule; lanes never interact.
// PipelineStats is reconstructed analytically instead of simulated:
//   cycles        = issue ticks + drain (forward: iterations + pipeline
//                   depth - 1; stall: 4 per iteration),
//   fwd_q_sa/next = recomputed from the dependency distance between
//                   consecutive updates (a 3-deep ring of write-back
//                   addresses mirrors the forwarding queue),
//   fwd_qmax      = recomputed from the qmax raises of the two preceding
//                   iterations (the only in-flight raises a stage-2 read
//                   can observe ahead of BRAM commit).
// tests/fast_engine_test.cpp checks the solo schedule against Pipeline
// and GoldenModel; tests/lane_engine_test.cpp checks groups against solo
// engines. docs/fast_engine.md carries the fidelity matrix and says when
// the cycle-accurate backend is mandatory.
//
// Lanes may differ in environment, seed, rates, and formats; they must
// agree on (algorithm, qmax, hazard) — the template parameters of the
// passes (see compatible()). runtime/lane_coalescer.h groups sessions
// accordingly and donates state in and out in O(1). Backend selection
// lives one layer up: runtime::Engine builds a Pipeline or a one-lane
// LaneEngine per config.backend.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "env/environment.h"
#include "qtaccel/action_units.h"
#include "qtaccel/config.h"
#include "qtaccel/pipeline.h"  // PipelineStats, SampleTrace

namespace qta::env {
class GridWorld;  // devirtualized transitions (EnvImage::grid)
}  // namespace qta::env

namespace qta::qtaccel {

class LaneEngine {
 public:
  /// The environment-derived constants of one lane: terminal flags plus
  /// either pre-baked transition records or the quantized reward table.
  /// Like the paper's reward BRAM and transition block, an image is a
  /// constant of its environment, which replicated pipelines read and do
  /// not copy: build_env_image returns the live image for (&env, q_fmt)
  /// while any engine still holds one, so every engine on one
  /// environment (solo engines of either functional kind and lane
  /// groups alike) reads one image, baked once. The image borrows `env`;
  /// the environment must outlive every engine holding the image.
  ///
  /// Bake rule, one for every engine: deterministic environments other
  /// than GridWorld (whose transition inlines) get the `sa` record table
  /// up to 2^24 pairs (256 MiB), because the engine prefetches a record
  /// ahead of use (a phase ahead on the group schedule, an iteration
  /// ahead on the solo one). The records carry the reward, so such an
  /// image holds no `reward`: 16 B per pair. Every other image holds
  /// `reward` (8 B per pair), and the engine calls the environment for
  /// transitions. Both also hold `terminal` (1 B per state).
  ///
  /// The sharing lives in a process-wide cache of weak references
  /// behind one mutex, which is not held across a bake. Two threads that
  /// miss at once may both bake; the second to publish adopts the
  /// first's image and drops its own. Entries whose image died are
  /// pruned on every insert, so right after an insert the cache holds
  /// one entry per live image, and between inserts no more entries than
  /// it held then (env_image_cache_entries() reads the count).
  struct EnvImage {
    /// Interleaved per-{s,a} record: the reward and the pre-baked next
    /// state live on the same cache line (and the same TLB page), so a
    /// sample's transition lookup and reward gather cost one random
    /// line instead of two. That matters more than the padding wasted:
    /// lane throughput on large tables is bounded by outstanding-miss
    /// slots, not bandwidth.
    /// `next_terminal` mirrors terminal[next]: the episode-end check
    /// rides on the record fetched for the transition instead of
    /// touching the terminal table at a second random address.
    struct SaRecord {
      fixed::raw_t reward = 0;
      StateId next = 0;
      std::uint8_t next_terminal = 0;
    };
    const env::Environment* env = nullptr;
    const env::GridWorld* grid = nullptr;  // devirtualized transitions
    unsigned noise_bits = 0;
    AddressMap map;
    fixed::Format q_fmt;
    StateId num_states = 0;
    ActionId num_actions = 0;
    std::vector<fixed::raw_t> reward;  // empty when `sa` is baked
    std::vector<std::uint8_t> terminal;
    std::vector<SaRecord> sa;  // empty => compute transitions
  };
  static std::shared_ptr<const EnvImage> build_env_image(
      const env::Environment& env, const PipelineConfig& config);
  /// Entries in the image cache, live or not yet pruned.
  static std::size_t env_image_cache_entries();

  struct LaneSpec {
    const env::Environment* env = nullptr;
    PipelineConfig config;
    /// Skip table allocation: the caller put_state()s a donated
    /// MachineState before the first run (the lane-coalescing path).
    bool defer_tables = false;
  };

  /// Single-lane engine (what runtime::Engine builds for kFast and
  /// kLanes): lane 0 only, so every run takes the solo schedule.
  LaneEngine(const env::Environment& env, const PipelineConfig& config);
  /// Lane group; aborts unless every lane is compatible() with lane 0.
  explicit LaneEngine(const std::vector<LaneSpec>& lanes);

  /// Whether two configs may share a lane group: the round loop is
  /// specialized on (algorithm, qmax, hazard); everything else (seed,
  /// rates, formats, environment shape) is per-lane data.
  static bool compatible(const PipelineConfig& a, const PipelineConfig& b);

  std::size_t num_lanes() const { return lanes_; }

  /// Advances every lane to its own absolute sample target (the
  /// Pipeline::run_samples contract per lane, including the forward-
  /// mode drain overshoot: exactly 3 extra iterations retire). Lanes
  /// already at target do not tick.
  void run_samples_all(const std::vector<std::uint64_t>& targets);
  /// Runs exactly counts[lane] iterations per lane (bubbles included).
  void run_iterations_all(const std::vector<std::uint64_t>& counts);

  // Single-lane runs, with the same contracts.
  void run_iterations(std::size_t lane, std::uint64_t n);
  void run_samples(std::size_t lane, std::uint64_t n);

  const PipelineStats& stats(std::size_t lane) const {
    return stats_[lane];
  }
  void set_trace(std::size_t lane, std::vector<SampleTrace>* trace) {
    trace_[lane] = trace;
  }
  void set_telemetry(std::size_t lane, telemetry::TelemetrySink* sink) {
    telemetry_[lane] = sink;
  }
  std::vector<SampleTrace>* trace(std::size_t lane) const {
    return trace_[lane];
  }
  telemetry::TelemetrySink* telemetry(std::size_t lane) const {
    return telemetry_[lane];
  }

  fixed::raw_t q_raw(std::size_t lane, StateId s, ActionId a) const;
  fixed::raw_t q2_raw(std::size_t lane, StateId s, ActionId a) const;
  // Host-side readback boundary (nothing feeds back into the replay).
  // qtlint: push-allow(datapath-purity)
  double q_value(std::size_t lane, StateId s, ActionId a) const;
  std::vector<double> q_as_double(std::size_t lane) const;
  // qtlint: pop-allow(datapath-purity)
  std::vector<ActionId> greedy_policy(std::size_t lane) const;
  QmaxUnit::Entry qmax_entry(std::size_t lane, StateId s) const;

  void preset_q(std::size_t lane, StateId s, ActionId a,
                fixed::raw_t value);
  void rebuild_qmax(std::size_t lane);
  std::uint64_t dsp_saturations(std::size_t lane) const {
    const auto& d = dsp_saturations_[lane];
    return d[0] + d[1] + d[2];
  }

  /// Per-lane machine state, field-for-field Pipeline compatible:
  /// states move freely between backends.
  MachineState save_state(std::size_t lane) const;
  void load_state(std::size_t lane, const MachineState& ms);
  /// Donation: moves the lane's tables out (the lane is not runnable
  /// until put_state). O(1) — the lane-coalescing path migrates sessions
  /// into and out of groups without copying multi-MB tables.
  MachineState take_state(std::size_t lane);
  void put_state(std::size_t lane, MachineState&& ms);

  /// Dirty-row epoch control per lane (machine_state.h DirtyRows),
  /// mirroring Pipeline::reset_dirty_rows/dirty_row_count. The epoch
  /// travels with the lane's MachineState through save/load/take/put, so
  /// it survives lane-group donation.
  void reset_dirty_rows(std::size_t lane);
  std::uint64_t dirty_row_count(std::size_t lane) const;

  const env::Environment& environment(std::size_t lane) const {
    return *image_[lane]->env;
  }
  const PipelineConfig& config(std::size_t lane) const {
    return config_[lane];
  }
  const AddressMap& address_map(std::size_t lane) const {
    return map_[lane];
  }
  std::shared_ptr<const EnvImage> env_image(std::size_t lane) const {
    return image_[lane];
  }

 private:
  // Qmax raises of the two preceding iterations: at stage 2 of iteration
  // i the Qmax BRAM has committed raises through iteration i-3, so the
  // forwarding network is what surfaces raises from i-1 and i-2 (older
  // queue entries are already committed and can never strictly raise).
  struct RaiseEvent {
    StateId state = kInvalidState;
    bool raised = false;
  };
  // Empty write-back ring slot. AddressMap addresses use at most
  // state_bits + action_bits + 1 bits, so ~0 never collides.
  static constexpr std::uint64_t kNoAddr = ~std::uint64_t{0};

  /// Per-lane run control while a group run is in flight.
  struct RunCtl {
    std::uint64_t sample_target = 0;  // 0 => iteration/drain mode
    std::uint64_t remaining = 0;      // iteration-mode/drain countdown
    std::uint64_t iters_at_entry = 0;
  };

  /// Dense per-lane execution record, materialized from the member
  /// arrays at run_group entry and committed back at exit. The issue and
  /// retire passes run entirely off one of these (a single base
  /// pointer) — going through the per-lane member vectors on every
  /// access costs a second dependent load per field, which at ~60
  /// fields per iteration dwarfs the update itself.
  struct Hot {
    explicit Hot(const RngBank& bank) : rng(bank) {}

    RngBank rng;  // by value: LFSR registers stay in-record
    PipelineStats stats;
    Coefficients coeff;
    fixed::Format q_fmt;
    fixed::Format coeff_fmt;
    // Stage-3 rounding and clamp constants, from coeff_fmt and q_fmt.
    std::int64_t half = 0;     // rounding bias 1<<(shift-1)
    std::uint64_t shift = 0;   // coeff_fmt.frac
    fixed::raw_t lo = 0;       // q_fmt.min_raw()
    fixed::raw_t hi = 0;       // q_fmt.max_raw()
    std::uint64_t eps_threshold = 0;
    unsigned epsilon_bits = 0;
    unsigned action_bits = 0;
    unsigned state_bits = 0;
    std::uint64_t max_episode_length = 0;

    // Table/image pointers (stable for the duration of a run).
    fixed::raw_t* learn_tables[2] = {nullptr, nullptr};  // [0]=q, [1]=q2
    fixed::raw_t* qmax_v = nullptr;
    ActionId* qmax_a = nullptr;
    std::uint8_t* dirty = nullptr;  // per-state dirty-row flags
    const fixed::raw_t* reward = nullptr;
    const std::uint8_t* terminal = nullptr;
    const EnvImage::SaRecord* sa_rec = nullptr;  // null => compute

    const env::GridWorld* grid = nullptr;
    const env::Environment* env = nullptr;
    unsigned noise_bits = 0;
    StateId num_states = 0;
    ActionId num_actions = 0;

    // Walk state.
    std::uint8_t episode_start = 1;
    StateId state = 0;
    ActionId pending_action = kInvalidAction;
    std::uint64_t episode_steps = 0;

    // Forwarding-reconstruction rings.
    std::uint64_t wb[3] = {kNoAddr, kNoAddr, kNoAddr};
    RaiseEvent raise[2];
    std::uint64_t dsp_sat[3] = {0, 0, 0};

    std::vector<SampleTrace>* trace = nullptr;
    telemetry::TelemetrySink* sink = nullptr;

    // In-flight slot (issue pass -> retire pass of the same round).
    std::uint64_t iter = 0;
    std::uint64_t sa_addr = 0;
    std::uint64_t tagged_sa = 0;
    std::uint64_t fwd_next_addr = 0;
    StateId s = 0;
    StateId s_next = 0;
    ActionId a = 0;
    ActionId a_next = 0;
    std::uint8_t table = 0;
    std::uint8_t end = 0;
    std::uint8_t active = 0;
    std::uint8_t tel_sa = 0;
    std::uint8_t tel_next = 0;
    std::uint8_t tel_fq = 0;
    // Stage-3 operands (pass_read -> pass_retire).
    fixed::raw_t r = 0;
    fixed::raw_t q_old = 0;
    fixed::raw_t q_next = 0;

    std::uint64_t q_addr(StateId st, ActionId ac) const {
      return (static_cast<std::uint64_t>(st) << action_bits) | ac;
    }
    std::uint64_t tagged(unsigned tbl, StateId st, ActionId ac) const {
      return (static_cast<std::uint64_t>(tbl)
              << (state_bits + action_bits)) |
             q_addr(st, ac);
    }
  };

  void init_lanes(const std::vector<LaneSpec>& lanes);
  Hot make_hot(std::size_t lane);
  void commit_hot(std::size_t lane);

  // The issue half of a round is phased so each phase issues every live
  // lane's prefetches before any lane consumes them: pass_addr draws the
  // pre-transition LFSR values and prefetches the {s,a}-indexed lines,
  // pass_next resolves the transition and prefetches the s'-indexed
  // lines, and pass_read gathers operands through lines that are already
  // in flight. With N lanes that turns N serialized miss chains into N
  // overlapped ones — the software analogue of the paper's replicated
  // pipelines hiding Q-table access latency.
  template <Algorithm kAlgo, bool kTel>
  static void pass_addr(Hot& L);
  template <Algorithm kAlgo, bool kMono>
  static void pass_next(Hot& L);
  template <Algorithm kAlgo, bool kMono, bool kCountFwd, bool kTel>
  static void pass_read(Hot& L);
  template <Algorithm kAlgo, bool kMono, bool kTel>
  static void pass_retire(Hot& L);
  /// The solo schedule: `lane` alone, passes back to back.
  template <Algorithm kAlgo, bool kMono, bool kCountFwd, bool kTel>
  void run_solo(std::size_t lane);
  /// The group schedule: one phased round per iteration over `live`.
  template <Algorithm kAlgo, bool kMono, bool kCountFwd, bool kTel>
  void run_rounds(std::vector<std::size_t>& live);
  /// Picks the schedule from live.size() and kTel from the sinks.
  template <Algorithm kAlgo, bool kMono, bool kCountFwd>
  void run_rounds_any(std::vector<std::size_t>& live);
  template <Algorithm kAlgo>
  void run_rounds_algo(std::vector<std::size_t>& live);
  /// Entry bookkeeping + dispatch + exit accounting for a group run.
  /// `samples_mode` selects the run_samples contract (values are
  /// absolute sample targets) vs run_iterations (values are counts).
  void run_group(const std::vector<std::size_t>& lanes_to_run,
                 const std::vector<std::uint64_t>& values,
                 bool samples_mode);
  /// Run control after one of the lane's iterations; true once the lane
  /// is done for this run.
  static bool lane_done(RunCtl& ctl, std::uint64_t samples, bool forward);

  static StateId hot_next_state(Hot& L, StateId s, ActionId a);

  static bool hot_wb_hit(const Hot& L, std::uint64_t tagged) {
    return tagged == L.wb[0] || tagged == L.wb[1] || tagged == L.wb[2];
  }
  static std::uint8_t hot_ring_distance(const Hot& L,
                                        std::uint64_t tagged) {
    if (tagged == L.wb[0]) return 1;
    if (tagged == L.wb[1]) return 2;
    if (tagged == L.wb[2]) return 3;
    return 0;
  }
  static bool hot_raise_hit(const Hot& L, StateId s) {
    return (L.raise[0].raised && L.raise[0].state == s) ||
           (L.raise[1].raised && L.raise[1].state == s);
  }

  std::size_t lanes_ = 0;

  // Per-lane constants.
  std::vector<PipelineConfig> config_;
  std::vector<std::shared_ptr<const EnvImage>> image_;
  std::vector<AddressMap> map_;
  std::vector<Coefficients> coeff_;
  std::vector<std::uint64_t> eps_threshold_;

  // Per-lane LFSR banks (contiguous; one RngBank is the four per-purpose
  // 32-bit registers plus the address map).
  std::vector<RngBank> rng_;

  // Per-lane tables.
  std::vector<std::vector<fixed::raw_t>> q_;
  std::vector<std::vector<fixed::raw_t>> q2_;
  std::vector<std::vector<fixed::raw_t>> qmax_value_;
  std::vector<std::vector<ActionId>> qmax_action_;

  // Per-lane dirty-row tracking (machine_state.h DirtyRows), marked at
  // the retire-pass write-back through Hot::dirty.
  std::vector<std::vector<std::uint8_t>> dirty_rows_;
  std::vector<std::uint8_t> dirty_all_;

  // Walk state, flat per-lane arrays.
  std::vector<std::uint8_t> episode_start_;
  std::vector<StateId> state_;
  std::vector<ActionId> pending_action_;
  std::vector<std::uint64_t> episode_steps_;

  // Forwarding-reconstruction rings, flat per-lane arrays.
  std::vector<std::array<std::uint64_t, 3>> wb_ring_;
  std::vector<std::array<RaiseEvent, 2>> raise_ring_;

  std::vector<PipelineStats> stats_;
  std::vector<std::array<std::uint64_t, 3>> dsp_saturations_;
  std::vector<std::vector<SampleTrace>*> trace_;
  std::vector<telemetry::TelemetrySink*> telemetry_;

  std::vector<RunCtl> ctl_;
  std::vector<Hot> hot_;  // rebuilt at run_group entry
};

}  // namespace qta::qtaccel
