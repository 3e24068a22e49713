// Linear-feedback shift registers — the paper's random number source for
// action selection and MAB reward sampling ("implemented using linear
// feedback shift registers", Section IV-A).
//
// Galois form (one XOR level per shifted bit, the cheap FPGA realization)
// with published maximal-length tap polynomials for widths 8..64 bits.
// Each consumer in the pipeline owns its own LFSR instance so the stream
// seen per purpose is independent of pipeline interleaving — this is what
// makes the pipelined accelerator bit-identical to the sequential golden
// model (see qtaccel/golden_model.h).
//
// Draws leap forward (the leap-forward LFSR of Chu & Jones, MAPLD 1999):
// the hardware unrolls the feedback in combinational logic to make an
// n-bit draw in one cycle, and draw_bits advances the register up to
// `width - h` bits per step, h being the highest tap exponent below the
// width. The output stream is the bit-serial one: the bit leaving at the
// MSB on every single step.
#pragma once

#include <bit>
#include <cstdint>

#include "common/check.h"

namespace qta::rng {

/// Maximal-length Galois LFSR of configurable width (2..64 bits).
///
/// The register is kept mirrored (bit i holds register bit width-1-i), so
/// the bits about to leave the MSB are the low bits, already in stream
/// order. state() and set_state() take and give the register as
/// published, so snapshots hold the same words as a bit-serial LFSR.
class Lfsr {
 public:
  /// `width` selects the tap polynomial; `seed` is folded into the state
  /// (a zero fold is replaced by 1, since the all-zero state is absorbing).
  explicit Lfsr(unsigned width = 32, std::uint64_t seed = 0xace1u);

  /// Draws `n` (1..64) bits of the output stream, the first bit out in
  /// bit 0. Inline: this runs one or more times per simulated sample in
  /// every executor's hot loop.
  ///
  /// For leap_ single steps no feedback reaches the MSB, so the next
  /// c <= leap_ output bits are the register's top c bits as they stand
  /// (the mirror's low bits), and c steps come to one shift plus a
  /// carry-less product of those bits with the taps:
  ///   published: ((state << c) ^ clmul(top c bits, taps)) & mask
  ///   mirrored:  (reg >> c) ^ (clmul(low c bits, feedback) << (leap - c))
  /// The product lands inside the register, so the mirrored form needs no
  /// mask. A 16-bit draw from the x^32 + x^22 + x^2 + x + 1 register takes
  /// two leaps instead of 16 steps. Draws come from the stream, never from
  /// register snapshots: successive snapshots overlap in all but one bit
  /// and badly correlate.
  std::uint64_t draw_bits(unsigned n) {
    QTA_CHECK(n >= 1 && n <= 64);
    std::uint64_t acc = 0;
    for (unsigned done = 0; done < n;) {
      const unsigned c = n - done < leap_ ? n - done : leap_;
      const std::uint64_t out = reg_ & ((std::uint64_t{1} << c) - 1);
      acc |= out << done;
      std::uint64_t fed = 0;  // carry-less out * feedback_: <= 5 terms
      for (std::uint64_t t = feedback_; t != 0; t &= t - 1) {
        fed ^= out << std::countr_zero(t);
      }
      reg_ = (reg_ >> c) ^ (fed << (leap_ - c));
      done += c;
    }
    return acc;
  }

  /// Uniform value in [0, bound) via the fixed-point multiply trick
  /// (one DSP): (draw * bound) >> 32 over a 32-bit draw. Slight bias of
  /// bound/2^32, identical to the hardware shortcut the paper describes
  /// for indexing "one of the Q-values" directly.
  std::uint64_t below(std::uint64_t bound) {
    QTA_CHECK(bound >= 1);
    if (bound == 1) return 0;
    __extension__ typedef unsigned __int128 u128;
    const std::uint64_t draw = draw_bits(32);
    return static_cast<std::uint64_t>((static_cast<u128>(draw) * bound) >>
                                      32);
  }

  /// Uniform double in [0, 1) using width bits (capped at 53).
  double uniform();

  /// The register as published (unmirrored).
  std::uint64_t state() const;

  /// Restores a previously observed register state (snapshot resume).
  /// The state must be a value this register can actually hold: nonzero
  /// (the all-zero state is absorbing) and within the register width.
  void set_state(std::uint64_t state);

  unsigned width() const { return width_; }

  /// Flip-flop cost of this register, for the resource ledger.
  unsigned flip_flops() const { return width_; }

  /// Period of a maximal-length LFSR of this width: 2^width - 1.
  std::uint64_t period() const;

 private:
  unsigned width_;
  unsigned leap_;  // width - highest tap exponent: 1..63
  std::uint64_t mask_;
  std::uint64_t feedback_;  // taps mirrored: bit (h - e) per tap exponent e
  std::uint64_t reg_;       // the register, mirrored
};

// RngBank keeps four of these in every lane's hot record.
static_assert(sizeof(Lfsr) == 32, "Lfsr grew past four words");

/// The tap polynomial (bit mask) used for a given width; exposed for tests
/// that verify maximal periods.
std::uint64_t lfsr_taps(unsigned width);

}  // namespace qta::rng
