// Configuration of a QTAccel pipeline instance.
//
// One config drives three artifacts that must agree exactly:
//   * the cycle-accurate pipeline model (qtaccel/pipeline.h),
//   * the sequential golden model (qtaccel/golden_model.h), and
//   * the resource/frequency model (qtaccel/resources.h).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "env/environment.h"
#include "fixed/fixed_point.h"
#include "telemetry/sink.h"  // RunLabels

namespace qta::qtaccel {

/// Which QRL algorithm the pipeline is configured for (Section V, plus
/// the Expected SARSA generalization the architecture admits).
enum class Algorithm {
  kQLearning,  // random behavior policy, greedy update policy (via Qmax)
  kSarsa,      // epsilon-greedy on-policy (stage-2 action forwarded to
               // the next iteration's stage 1)
  kExpectedSarsa,  // epsilon-greedy behavior; the stage-2 target is the
                   // expectation over the next row under that policy:
                   // (1-eps)*max + eps*mean. Needs a full-row scan (like
                   // QmaxMode::kExactScan) plus an adder tree and two
                   // extra DSP products — 6 multipliers total.
  kDoubleQ,        // Double Q-Learning (van Hasselt): two Q tables; each
                   // sample updates a coin-flipped table T using
                   // argmax_T(S',.) evaluated by the OTHER table. Counters
                   // the max-operator overestimation the monotone-Qmax
                   // ablation measures. Twice the Q BRAM (no Qmax table);
                   // the cross-table read rides a double-pumped port.
};

/// Hazard-handling mode (the forwarding network is the paper's
/// contribution; the stall mode exists for the ablation benchmark).
enum class HazardMode {
  kForward,  // 3-deep write-back forwarding: one sample per cycle
  kStall,    // conservative: a sample issues only when the pipe is empty
};

/// Greedy-maximum source (Section V-A vs the comparator-tree alternative
/// of the prior art [21], used as an ablation).
enum class QmaxMode {
  kMonotoneTable,  // paper: per-state cached max, raised on write-back only
  kExactScan,      // full-row comparator tree: exact max, extra LUTs
};

/// Host execution backend (see docs/fast_engine.md). All replay the
/// accelerator's exact semantics and retire bit-identical traces; they
/// differ only in what the host pays per sample.
enum class Backend {
  kCycleAccurate,  // qtaccel/pipeline.h: per-cycle SimKernel/Bram/port
                   // accounting, waveforms, stall ablation — the model
                   // of record for hardware-shape claims
  kFast,           // qtaccel/lane_engine.h, one lane on the solo
                   // schedule: functional replay on flat arrays;
                   // PipelineStats reconstructed analytically; never
                   // joins a lane group
  kLanes,          // the same engine, but its state may join a lane
                   // group (runtime/lane_coalescer.h) that advances N
                   // sessions per round (SIMD across lanes); per lane
                   // bit-identical to kFast
};

/// Parses "cycle"/"fast"/"lanes" (CLI flag spelling); aborts on anything
/// else.
Backend parse_backend(const std::string& name);
/// The CLI spelling of a backend ("cycle" / "fast" / "lanes").
const char* backend_name(Backend backend);

/// Stable label spellings used by telemetry and report output.
const char* algorithm_name(Algorithm algorithm);  // "q_learning", ...
const char* qmax_name(QmaxMode qmax);             // "monotone" / "exact"
const char* hazard_name(HazardMode hazard);       // "forward" / "stall"

struct PipelineConfig {
  Algorithm algorithm = Algorithm::kQLearning;
  HazardMode hazard = HazardMode::kForward;
  QmaxMode qmax = QmaxMode::kMonotoneTable;
  Backend backend = Backend::kCycleAccurate;

  double alpha = 0.1;    // learning rate (quantized into coeff_fmt)
  double gamma = 0.9;    // discount factor
  double epsilon = 0.1;  // SARSA exploration rate

  /// Width of the epsilon comparison: an N-bit LFSR draw is compared with
  /// (1 - epsilon) * 2^N (Section V-B).
  unsigned epsilon_bits = 16;

  fixed::Format q_fmt = fixed::kQFormat;          // Q/reward storage
  fixed::Format coeff_fmt = fixed::kCoeffFormat;  // alpha/gamma products

  /// Master seed; expanded with SplitMix64 into the three per-purpose
  /// LFSRs (start state, behavior action, update-policy draw).
  std::uint64_t seed = 1;

  /// Watchdog: an episode is force-terminated after this many steps (an
  /// agent walled into an obstacle pocket would otherwise never restart).
  /// The truncating transition is treated as terminal (future value 0).
  std::uint64_t max_episode_length = 1u << 20;
};

/// The telemetry identity of a run with this config: label strings for
/// per-(algorithm, qmax, hazard) roll-ups. `pipe` distinguishes agents
/// in multi-pipeline setups. Defined in config.cpp (host-side; the
/// datapath never calls this).
telemetry::RunLabels make_run_labels(const PipelineConfig& config,
                                     unsigned pipe = 0);

/// Address bit layout for the Q/reward tables: {state, action}
/// bit-concatenated, exactly as the paper addresses BRAM.
struct AddressMap {
  unsigned state_bits = 0;
  unsigned action_bits = 0;

  std::uint64_t q_addr(StateId s, ActionId a) const {
    return (static_cast<std::uint64_t>(s) << action_bits) | a;
  }
  std::uint64_t depth() const {
    return std::uint64_t{1} << (state_bits + action_bits);
  }
  /// Forwarding-network address with a table tag in the MSBs — Double
  /// Q-Learning's two tables share one write-back queue, and a match must
  /// never cross tables.
  std::uint64_t tagged_addr(unsigned table, StateId s, ActionId a) const {
    return (static_cast<std::uint64_t>(table)
            << (state_bits + action_bits)) |
           q_addr(s, a);
  }
};

/// Derives the address map from an environment; requires a power-of-two
/// action count (the paper's encodings use 2 or 3 action bits).
AddressMap make_address_map(const env::Environment& env);

/// Validates a config against an environment; aborts on invalid setups
/// (non-power-of-two actions, out-of-range rates, formats too narrow).
void validate_config(const PipelineConfig& config,
                     const env::Environment& env);

/// The epsilon comparison threshold (1 - epsilon) * 2^bits.
std::uint64_t epsilon_threshold(double epsilon, unsigned bits);

/// Precomputed fixed-point coefficients of the update (stage-1 values):
/// alpha, 1 - alpha, and alpha * gamma (the latter through the DSP model's
/// rounding, since DSP #1 produces it in hardware).
struct Coefficients {
  fixed::raw_t alpha = 0;
  fixed::raw_t one_minus_alpha = 0;
  fixed::raw_t alpha_gamma = 0;
  // Expected-SARSA mixing coefficients (quantized epsilon).
  fixed::raw_t epsilon = 0;
  fixed::raw_t one_minus_epsilon = 0;
};
Coefficients make_coefficients(const PipelineConfig& config);

/// The Expected-SARSA stage-2 target, shared verbatim by the golden model
/// and the pipeline so both quantize identically:
///   E = (1 - eps) * row_max + eps * (row_sum >> log2|A|)
/// (two DSP products + one saturating add; the mean comes off the adder
/// tree with a rounding shift).
fixed::raw_t expected_sarsa_target(fixed::raw_t row_max,
                                   fixed::raw_t row_sum,
                                   unsigned action_bits,
                                   const Coefficients& coeff,
                                   fixed::Format q_fmt,
                                   fixed::Format coeff_fmt);

}  // namespace qta::qtaccel
