#include "rng/lfsr.h"

#include "common/check.h"

namespace qta::rng {

namespace {
// Maximal-length polynomial exponents per width (Xilinx XAPP052 table):
// polynomial = x^w + x^t1 [+ x^t2 + x^t3] + 1. Index by width.
struct Taps {
  unsigned t[4];  // zero-terminated exponent list (excluding w and 0)
};

constexpr Taps kTaps[65] = {
    {},          {},          {{1, 0}},     {{2, 0}},     {{3, 0}},
    {{3, 0}},    {{5, 0}},    {{6, 0}},     {{6, 5, 4}},  {{5, 0}},
    {{7, 0}},    {{9, 0}},    {{6, 4, 1}},  {{4, 3, 1}},  {{5, 3, 1}},
    {{14, 0}},   {{15, 13, 4}}, {{14, 0}},  {{11, 0}},    {{6, 2, 1}},
    {{17, 0}},   {{19, 0}},   {{21, 0}},    {{18, 0}},    {{23, 22, 17}},
    {{22, 0}},   {{6, 2, 1}}, {{5, 2, 1}},  {{25, 0}},    {{27, 0}},
    {{6, 4, 1}}, {{28, 0}},   {{22, 2, 1}}, {{20, 0}},    {{27, 2, 1}},
    {{33, 0}},   {{25, 0}},   {{5, 4, 3, 2}}, {{6, 5, 1}}, {{35, 0}},
    {{38, 21, 19}}, {{38, 0}}, {{41, 20, 19}}, {{42, 38, 37}}, {{43, 18, 17}},
    {{44, 42, 41}}, {{45, 26, 25}}, {{42, 0}}, {{47, 21, 20}}, {{40, 0}},
    {{49, 24, 23}}, {{50, 36, 35}}, {{49, 0}}, {{52, 38, 37}}, {{53, 18, 17}},
    {{31, 0}},   {{55, 35, 34}}, {{50, 0}}, {{39, 0}},     {{58, 38, 37}},
    {{59, 0}},   {{60, 46, 45}}, {{61, 6, 5}}, {{62, 0}},  {{63, 61, 60}},
};

// Reverses the low `width` bits of `v`.
std::uint64_t mirror(std::uint64_t v, unsigned width) {
  std::uint64_t m = 0;
  for (unsigned i = 0; i < width; ++i) {
    m |= ((v >> i) & 1u) << (width - 1 - i);
  }
  return m;
}
}  // namespace

std::uint64_t lfsr_taps(unsigned width) {
  QTA_CHECK_MSG(width >= 2 && width <= 64, "LFSR width must be in [2, 64]");
  std::uint64_t mask = 1;  // the "+1" term of the polynomial
  for (unsigned e : kTaps[width].t) {
    if (e == 0) break;
    mask |= std::uint64_t{1} << e;
  }
  return mask;
}

Lfsr::Lfsr(unsigned width, std::uint64_t seed)
    : width_(width),
      mask_(width == 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << width) - 1) {
  const std::uint64_t taps = lfsr_taps(width);
  const unsigned high = static_cast<unsigned>(std::bit_width(taps)) - 1;
  leap_ = width - high;
  feedback_ = mirror(taps, high + 1);
  std::uint64_t state = seed & mask_;
  if (state == 0) state = 1;  // all-zero is the absorbing state
  reg_ = mirror(state, width_);
}

std::uint64_t Lfsr::state() const { return mirror(reg_, width_); }

void Lfsr::set_state(std::uint64_t state) {
  QTA_CHECK_MSG(state != 0 && (state & mask_) == state,
                "LFSR state outside the register's reachable set");
  reg_ = mirror(state, width_);
}

double Lfsr::uniform() {
  const unsigned bits = width_ < 53 ? width_ : 53;
  const std::uint64_t draw = draw_bits(bits);
  return static_cast<double>(draw) /
         static_cast<double>(std::uint64_t{1} << bits);
}

std::uint64_t Lfsr::period() const {
  if (width_ == 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << width_) - 1;
}

}  // namespace qta::rng
