// The random-number consumers of the pipeline, bundled so the pipeline and
// the sequential golden model consume bit-identical streams.
//
// Each purpose owns its own LFSR (paper Section IV-A: LFSR-based action
// selector). Separate per-purpose generators are also what makes pipelined
// execution deterministic: interleaving of stages never changes which
// stream a draw comes from, so per-iteration draw sequences are identical
// in the pipeline and in the golden model.
#pragma once

#include <array>
#include <cstdint>

#include "common/bit_math.h"
#include "common/check.h"
#include "common/types.h"
#include "env/environment.h"
#include "qtaccel/config.h"
#include "rng/lfsr.h"

namespace qta::qtaccel {

class RngBank {
 public:
  /// Expands the master seed into three independent LFSR streams.
  RngBank(std::uint64_t master_seed, const AddressMap& map);

  // The draw_* methods are inline: they run once or more per simulated
  // sample in every executor's hot loop, and keeping them visible to the
  // optimizer lets the LFSR registers live in machine registers across
  // iterations. Each draw is a few leaps of its register (rng/lfsr.h):
  // the bank's x^32 + x^22 + x^2 + x + 1 registers advance up to 10 bits
  // per leap, so an action draw or a coin flip is one leap, an epsilon
  // draw at the default 16 bits two, and a start-state draw four.

  /// Episode-start state: uniform over [0, |S|) via the multiply trick
  /// on a 32-bit draw (the draw may land on a terminal state — the caller
  /// then treats the iteration as a zero-length episode and redraws next
  /// iteration).
  StateId draw_start_state(StateId num_states) {
    return static_cast<StateId>(start_.below(num_states));
  }

  /// Behavior action, uniform over the 2^action_bits encodings: one
  /// action_bits-wide draw.
  ActionId draw_random_action() {
    return static_cast<ActionId>(behavior_.draw_bits(map_.action_bits));
  }

  /// One epsilon-greedy draw (SARSA stage 2): an N-bit word, drawn in
  /// ceil(N / 10) leaps, compared with the threshold; the low action bits
  /// (the first ones out of the register) double as the exploration
  /// index.
  struct EpsilonDraw {
    bool greedy = false;
    ActionId explore_action = 0;
  };
  EpsilonDraw draw_epsilon(std::uint64_t threshold, unsigned bits) {
    QTA_CHECK(bits >= map_.action_bits);
    const std::uint64_t draw = update_.draw_bits(bits);
    EpsilonDraw d;
    d.greedy = draw < threshold;
    d.explore_action =
        static_cast<ActionId>(qta::bits(draw, 0, map_.action_bits));
    return d;
  }

  /// Noise input for stochastic transition functions (its own LFSR, so
  /// deterministic environments consume an identical stream to before).
  std::uint64_t draw_transition_noise(unsigned bits) {
    QTA_CHECK(bits >= 1 && bits <= 64);
    return noise_.draw_bits(bits);
  }

  /// Double Q-Learning's per-sample coin flip (which table learns): a
  /// one-bit draw from the update-policy LFSR, which kDoubleQ uses for
  /// nothing else.
  unsigned draw_table_select() {
    return static_cast<unsigned>(update_.draw_bits(1));
  }

  /// Total flip-flops across the bank for the resource model (the update
  /// LFSR only exists for SARSA; pass the algorithm to count it).
  static unsigned flip_flops(Algorithm algorithm);

  /// Register snapshot of the four streams, in the fixed order
  /// {start, behavior, update, noise} (machine_state.h relies on it).
  std::array<std::uint64_t, 4> lfsr_state() const {
    return {start_.state(), behavior_.state(), update_.state(),
            noise_.state()};
  }
  void set_lfsr_state(const std::array<std::uint64_t, 4>& state) {
    start_.set_state(state[0]);
    behavior_.set_state(state[1]);
    update_.set_state(state[2]);
    noise_.set_state(state[3]);
  }

 private:
  AddressMap map_;
  rng::Lfsr start_;
  rng::Lfsr behavior_;
  rng::Lfsr update_;
  rng::Lfsr noise_;
};

}  // namespace qta::qtaccel
