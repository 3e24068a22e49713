#include "qtaccel/lane_engine.h"

#include <algorithm>
#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "common/check.h"
#include "common/simd.h"
#include "env/grid_world.h"
#include "env/value_iteration.h"
#include "qtaccel/machine_state.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace qta::qtaccel {

namespace {

// Pre-bake bounds for the {s,a} record table (EnvImage's bake rule). A
// group-capable image bakes up to 2^24 records: the record is what lets
// pass_addr prefetch the transition lookup, which is the whole point of
// lane batching on latency-bound tables, so it pays for itself well
// past cache residency. A kFast image stops where the records are still
// cache-resident: each engine bakes its own image, so past that the
// records' memory would be paid once per engine.
constexpr std::uint64_t kMaxGroupRecords = std::uint64_t{1} << 24;
constexpr std::uint64_t kMaxSoloRecords = std::uint64_t{1} << 16;

// Back a large table with transparent huge pages when the kernel allows
// it. The lane engine lives or dies by memory-level parallelism: on 4 KiB
// pages a random Q-table access costs a serialized TLB walk, which undoes
// the overlap the phased passes set up. Best-effort — errors are ignored
// and the plain mapping keeps working.
void advise_huge_pages(void* p, std::size_t bytes) {
#if defined(__linux__)
  constexpr std::size_t kHuge = std::size_t{2} << 20;
  if (p == nullptr || bytes < kHuge) return;
  const std::uintptr_t page = 4096;
  std::uintptr_t begin = reinterpret_cast<std::uintptr_t>(p);
  std::uintptr_t end = begin + bytes;
  begin = (begin + page - 1) & ~(page - 1);
  end &= ~(page - 1);
  if (end <= begin) return;
  void* aligned = reinterpret_cast<void*>(begin);
  (void)madvise(aligned, end - begin, MADV_HUGEPAGE);
  // Synchronous collapse (Linux >= 6.1). Old libc headers may not carry
  // the constant yet; the kernel just returns EINVAL when unsupported.
#ifndef MADV_COLLAPSE
#define MADV_COLLAPSE 25
#endif
  (void)madvise(aligned, end - begin, MADV_COLLAPSE);
#else
  (void)p;
  (void)bytes;
#endif
}

template <typename T>
void advise_huge_pages(std::vector<T>& v) {
  advise_huge_pages(v.data(), v.size() * sizeof(T));
}

inline void prefetch_ro(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

// Write-intent prefetch for lines that retire will store to (the Q
// entry is read as q_old and written back as new_q; fetching it
// exclusive up front saves the ownership upgrade at write-back).
inline void prefetch_rw(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/3);
#else
  (void)p;
#endif
}

// ---------------------------------------------------------------------
// Stage-3 kernels. All replicate fixed::mul / fixed::sat_add exactly:
//   product   = a * coeff                      (fits 63 bits: widths<=62)
//   rescaled  = round-half-away-from-zero(product >> coeff_fmt.frac)
//   term      = clamp(rescaled, q_fmt)         (flag on clamp)
//   new_q     = clamp(clamp(t_r + t_old) + t_next)
// The rounding uses the branch-free sign/magnitude identity: with
// s = v >> 63 (all ones when negative), |v| = (v ^ s) - s, and the
// rounded magnitude shifts logically because |v| + half < 2^62.
// The per-format validation that fixed::mul performs per call is hoisted
// to construction time (init_lanes checks every lane's formats once).

inline fixed::raw_t round_shift(fixed::raw_t v, std::int64_t half,
                                std::uint64_t shift) {
  const std::int64_t s = v >> 63;
  const std::int64_t mag = (v ^ s) - s;
  const std::int64_t res = static_cast<std::int64_t>(
      static_cast<std::uint64_t>(mag + half) >> shift);
  return (res ^ s) - s;
}

inline fixed::raw_t clamp_flag(fixed::raw_t v, fixed::raw_t lo,
                               fixed::raw_t hi, std::uint8_t& flags,
                               std::uint8_t bit) {
  if (v < lo) {
    flags |= bit;
    return lo;
  }
  if (v > hi) {
    flags |= bit;
    return hi;
  }
  return v;
}

// One slot's update: new_q, with the saturation mask in `flags`.
inline fixed::raw_t update_one(fixed::raw_t r, fixed::raw_t q_old,
                               fixed::raw_t q_next, fixed::raw_t alpha,
                               fixed::raw_t one_minus_alpha,
                               fixed::raw_t alpha_gamma, std::int64_t half,
                               std::uint64_t shift, fixed::raw_t lo,
                               fixed::raw_t hi, std::uint8_t& flags) {
  const fixed::raw_t term_r =
      clamp_flag(round_shift(r * alpha, half, shift), lo, hi, flags, 1u);
  const fixed::raw_t term_old = clamp_flag(
      round_shift(q_old * one_minus_alpha, half, shift), lo, hi, flags, 2u);
  const fixed::raw_t term_next = clamp_flag(
      round_shift(q_next * alpha_gamma, half, shift), lo, hi, flags, 4u);
  const fixed::raw_t sum1 = clamp_flag(term_r + term_old, lo, hi, flags, 8u);
  return clamp_flag(sum1 + term_next, lo, hi, flags, 16u);
}

// Portable kernel: a flat loop over packed slots, written so the
// compiler can autovectorize (no calls, no aborts, branch-free rounding;
// the clamp compiles to min/max + compare).
void kernel_scalar(const LaneEngine::KernelArgs& k) {
  for (std::size_t i = 0; i < k.n; ++i) {
    std::uint8_t flags = 0;
    k.new_q[i] = update_one(k.r[i], k.q_old[i], k.q_next[i], k.alpha[i],
                            k.one_minus_alpha[i], k.alpha_gamma[i],
                            k.half[i], k.shift[i], k.lo[i], k.hi[i], flags);
    k.sat_bits[i] = flags;
  }
}

#if defined(__x86_64__)

// AVX2: 4 int64 lanes per vector. AVX2 has no 64-bit multiply or
// arithmetic 64-bit shifts, so both are synthesized: the multiply from
// 32x32 partial products (exact, because the true product fits in 63
// bits), the arithmetic shift via the same sign/magnitude identity as
// the scalar kernel (the magnitude shifts logically with srlv).

__attribute__((target("avx2"))) inline __m256i mul64_avx2(__m256i a,
                                                          __m256i b) {
  const __m256i bswap = _mm256_shuffle_epi32(b, 0xB1);
  const __m256i prodlh = _mm256_mullo_epi32(a, bswap);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i prodlh2 = _mm256_hadd_epi32(prodlh, zero);
  const __m256i prodlh3 = _mm256_shuffle_epi32(prodlh2, 0x73);
  const __m256i prodll = _mm256_mul_epu32(a, b);
  return _mm256_add_epi64(prodll, prodlh3);
}

__attribute__((target("avx2"))) inline __m256i round_shift_avx2(
    __m256i v, __m256i half, __m256i shift) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i sign = _mm256_cmpgt_epi64(zero, v);
  const __m256i mag =
      _mm256_sub_epi64(_mm256_xor_si256(v, sign), sign);
  const __m256i res =
      _mm256_srlv_epi64(_mm256_add_epi64(mag, half), shift);
  return _mm256_sub_epi64(_mm256_xor_si256(res, sign), sign);
}

__attribute__((target("avx2"))) inline __m256i clamp_mask_avx2(
    __m256i v, __m256i lo, __m256i hi, __m256i& saturated) {
  const __m256i too_lo = _mm256_cmpgt_epi64(lo, v);
  const __m256i too_hi = _mm256_cmpgt_epi64(v, hi);
  saturated = _mm256_or_si256(too_lo, too_hi);
  __m256i out = _mm256_blendv_epi8(v, lo, too_lo);
  return _mm256_blendv_epi8(out, hi, too_hi);
}

__attribute__((target("avx2"))) void kernel_avx2(
    const LaneEngine::KernelArgs& k) {
  std::size_t i = 0;
  for (; i + 4 <= k.n; i += 4) {
    const __m256i half =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&k.half[i]));
    const __m256i shift = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(&k.shift[i]));
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&k.lo[i]));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(&k.hi[i]));

    __m256i sat_r, sat_old, sat_next, sat1, sat2;
    const __m256i term_r = clamp_mask_avx2(
        round_shift_avx2(
            mul64_avx2(_mm256_loadu_si256(
                           reinterpret_cast<const __m256i*>(&k.r[i])),
                       _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                           &k.alpha[i]))),
            half, shift),
        lo, hi, sat_r);
    const __m256i term_old = clamp_mask_avx2(
        round_shift_avx2(
            mul64_avx2(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                           &k.q_old[i])),
                       _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                           &k.one_minus_alpha[i]))),
            half, shift),
        lo, hi, sat_old);
    const __m256i term_next = clamp_mask_avx2(
        round_shift_avx2(
            mul64_avx2(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                           &k.q_next[i])),
                       _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                           &k.alpha_gamma[i]))),
            half, shift),
        lo, hi, sat_next);
    const __m256i sum1 = clamp_mask_avx2(
        _mm256_add_epi64(term_r, term_old), lo, hi, sat1);
    const __m256i new_q = clamp_mask_avx2(
        _mm256_add_epi64(sum1, term_next), lo, hi, sat2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&k.new_q[i]), new_q);

    // One flag bit per saturation source, matching the scalar kernel's
    // bit layout; movemask_pd extracts the per-slot top bits.
    const int mr = _mm256_movemask_pd(_mm256_castsi256_pd(sat_r));
    const int mo = _mm256_movemask_pd(_mm256_castsi256_pd(sat_old));
    const int mn = _mm256_movemask_pd(_mm256_castsi256_pd(sat_next));
    const int m1 = _mm256_movemask_pd(_mm256_castsi256_pd(sat1));
    const int m2 = _mm256_movemask_pd(_mm256_castsi256_pd(sat2));
    for (std::size_t l = 0; l < 4; ++l) {
      k.sat_bits[i + l] = static_cast<std::uint8_t>(
          (((mr >> l) & 1) << 0) | (((mo >> l) & 1) << 1) |
          (((mn >> l) & 1) << 2) | (((m1 >> l) & 1) << 3) |
          (((m2 >> l) & 1) << 4));
    }
  }
  if (i < k.n) {
    LaneEngine::KernelArgs tail = k;
    tail.n = k.n - i;
    tail.r += i;
    tail.q_old += i;
    tail.q_next += i;
    tail.alpha += i;
    tail.one_minus_alpha += i;
    tail.alpha_gamma += i;
    tail.half += i;
    tail.shift += i;
    tail.lo += i;
    tail.hi += i;
    tail.new_q += i;
    tail.sat_bits += i;
    kernel_scalar(tail);
  }
}

#endif  // __x86_64__

#if defined(__aarch64__)

// NEON: 2 int64 lanes per vector. aarch64 has no 64-bit vector multiply,
// so the three products compute on the scalar pipes (one MUL each, which
// dual-issues with the vector code); rounding, clamping, and the adder
// tree run vectorized. vshlq with a negated shift performs the logical
// right shift.
void kernel_neon(const LaneEngine::KernelArgs& k) {
  std::size_t i = 0;
  for (; i + 2 <= k.n; i += 2) {
    const int64x2_t half = vld1q_s64(&k.half[i]);
    const int64x2_t nshift = vnegq_s64(
        vld1q_s64(reinterpret_cast<const std::int64_t*>(&k.shift[i])));
    const int64x2_t lo = vld1q_s64(&k.lo[i]);
    const int64x2_t hi = vld1q_s64(&k.hi[i]);

    const int64x2_t prod_r = {k.r[i] * k.alpha[i],
                              k.r[i + 1] * k.alpha[i + 1]};
    const int64x2_t prod_old = {
        k.q_old[i] * k.one_minus_alpha[i],
        k.q_old[i + 1] * k.one_minus_alpha[i + 1]};
    const int64x2_t prod_next = {k.q_next[i] * k.alpha_gamma[i],
                                 k.q_next[i + 1] * k.alpha_gamma[i + 1]};

    const auto round_shift_v = [&](int64x2_t v) -> int64x2_t {
      const int64x2_t sign = vshrq_n_s64(v, 63);
      const int64x2_t mag = vsubq_s64(veorq_s64(v, sign), sign);
      const int64x2_t res = vreinterpretq_s64_u64(
          vshlq_u64(vreinterpretq_u64_s64(vaddq_s64(mag, half)), nshift));
      return vsubq_s64(veorq_s64(res, sign), sign);
    };
    const auto clamp_v = [&](int64x2_t v, uint64x2_t& sat) -> int64x2_t {
      const uint64x2_t too_lo = vcgtq_s64(lo, v);
      const uint64x2_t too_hi = vcgtq_s64(v, hi);
      sat = vorrq_u64(too_lo, too_hi);
      int64x2_t out = vbslq_s64(too_lo, lo, v);
      return vbslq_s64(too_hi, hi, out);
    };

    uint64x2_t sat_r, sat_old, sat_next, sat1, sat2;
    const int64x2_t term_r = clamp_v(round_shift_v(prod_r), sat_r);
    const int64x2_t term_old = clamp_v(round_shift_v(prod_old), sat_old);
    const int64x2_t term_next =
        clamp_v(round_shift_v(prod_next), sat_next);
    const int64x2_t sum1 = clamp_v(vaddq_s64(term_r, term_old), sat1);
    const int64x2_t new_q = clamp_v(vaddq_s64(sum1, term_next), sat2);
    vst1q_s64(&k.new_q[i], new_q);

    // vgetq_lane needs immediate indices; two unrolled extractions.
    k.sat_bits[i] = static_cast<std::uint8_t>(
        ((vgetq_lane_u64(sat_r, 0) & 1) << 0) |
        ((vgetq_lane_u64(sat_old, 0) & 1) << 1) |
        ((vgetq_lane_u64(sat_next, 0) & 1) << 2) |
        ((vgetq_lane_u64(sat1, 0) & 1) << 3) |
        ((vgetq_lane_u64(sat2, 0) & 1) << 4));
    k.sat_bits[i + 1] = static_cast<std::uint8_t>(
        ((vgetq_lane_u64(sat_r, 1) & 1) << 0) |
        ((vgetq_lane_u64(sat_old, 1) & 1) << 1) |
        ((vgetq_lane_u64(sat_next, 1) & 1) << 2) |
        ((vgetq_lane_u64(sat1, 1) & 1) << 3) |
        ((vgetq_lane_u64(sat2, 1) & 1) << 4));
  }
  if (i < k.n) {
    LaneEngine::KernelArgs tail = k;
    tail.n = k.n - i;
    tail.r += i;
    tail.q_old += i;
    tail.q_next += i;
    tail.alpha += i;
    tail.one_minus_alpha += i;
    tail.alpha_gamma += i;
    tail.half += i;
    tail.shift += i;
    tail.lo += i;
    tail.hi += i;
    tail.new_q += i;
    tail.sat_bits += i;
    kernel_scalar(tail);
  }
}

#endif  // __aarch64__

LaneEngine::KernelFn select_kernel() {
  switch (detected_simd_isa()) {
#if defined(__x86_64__)
    case SimdIsa::kAvx2:
      return &kernel_avx2;
#endif
#if defined(__aarch64__)
    case SimdIsa::kNeon:
      return &kernel_neon;
#endif
    default:
      return &kernel_scalar;
  }
}

}  // namespace

void LaneEngine::Scratch::resize(std::size_t n) {
  r.resize(n);
  q_old.resize(n);
  q_next.resize(n);
  new_q.resize(n);
  sat_bits.resize(n);
  p_alpha.resize(n);
  p_one_minus_alpha.resize(n);
  p_alpha_gamma.resize(n);
  p_half.resize(n);
  p_shift.resize(n);
  p_lo.resize(n);
  p_hi.resize(n);
}

std::shared_ptr<const LaneEngine::EnvImage> LaneEngine::build_env_image(
    const env::Environment& env, const PipelineConfig& config) {
  const fixed::Format q_fmt = config.q_fmt;
  const std::uint64_t max_records = config.backend == Backend::kFast
                                        ? kMaxSoloRecords
                                        : kMaxGroupRecords;
  auto image = std::make_shared<EnvImage>();
  image->env = &env;
  image->map = make_address_map(env);
  image->q_fmt = q_fmt;
  image->num_states = env.num_states();
  image->num_actions = env.num_actions();
  image->reward.assign(image->map.depth(), 0);
  // Host-side initialization boundary: quantizing the environment's
  // double rewards into the BRAM image, exactly as Pipeline::init_tables.
  // qtlint: push-allow(datapath-purity)
  for (StateId s = 0; s < env.num_states(); ++s) {
    for (ActionId a = 0; a < env.num_actions(); ++a) {
      image->reward[image->map.q_addr(s, a)] =
          fixed::from_double(env.reward(s, a), q_fmt);
    }
  }
  // qtlint: pop-allow(datapath-purity)
  image->terminal.assign(env.num_states(), 0);
  for (StateId s = 0; s < env.num_states(); ++s) {
    image->terminal[s] = env.is_terminal(s) ? 1 : 0;
  }
  image->noise_bits = env.transition_noise_bits();
  if (image->noise_bits == 0) {
    image->grid = dynamic_cast<const env::GridWorld*>(&env);
  }
  if (image->noise_bits == 0 && image->grid == nullptr &&
      env.table_size() <= max_records) {
    image->sa.resize(env.table_size());
    for (StateId s = 0; s < env.num_states(); ++s) {
      for (ActionId a = 0; a < env.num_actions(); ++a) {
        const std::uint64_t addr = image->map.q_addr(s, a);
        const StateId next = env.transition(s, a);
        image->sa[addr].reward = image->reward[addr];
        image->sa[addr].next = next;
        image->sa[addr].next_terminal = image->terminal[next];
      }
    }
  }
  advise_huge_pages(image->reward);
  advise_huge_pages(image->terminal);
  advise_huge_pages(image->sa);
  return image;
}

bool LaneEngine::compatible(const PipelineConfig& a,
                            const PipelineConfig& b) {
  return a.algorithm == b.algorithm && a.qmax == b.qmax &&
         a.hazard == b.hazard;
}

LaneEngine::LaneEngine(const env::Environment& env,
                       const PipelineConfig& config) {
  LaneSpec spec;
  spec.env = &env;
  spec.config = config;
  init_lanes({spec});
}

LaneEngine::LaneEngine(const std::vector<LaneSpec>& lanes) {
  init_lanes(lanes);
}

void LaneEngine::init_lanes(const std::vector<LaneSpec>& lanes) {
  QTA_CHECK_MSG(!lanes.empty(), "a lane engine needs at least one lane");
  lanes_ = lanes.size();
  kernel_ = select_kernel();

  config_.reserve(lanes_);
  image_.reserve(lanes_);
  map_.reserve(lanes_);
  coeff_.reserve(lanes_);
  eps_threshold_.reserve(lanes_);
  rng_.reserve(lanes_);
  q_.resize(lanes_);
  q2_.resize(lanes_);
  qmax_value_.resize(lanes_);
  qmax_action_.resize(lanes_);
  dirty_rows_.resize(lanes_);
  dirty_all_.assign(lanes_, 1);
  episode_start_.assign(lanes_, 1);
  state_.assign(lanes_, 0);
  pending_action_.assign(lanes_, kInvalidAction);
  episode_steps_.assign(lanes_, 0);
  wb_ring_.assign(lanes_, {kNoAddr, kNoAddr, kNoAddr});
  raise_ring_.assign(lanes_, {});
  stats_.assign(lanes_, PipelineStats{});
  dsp_saturations_.assign(lanes_, {});
  trace_.assign(lanes_, nullptr);
  telemetry_.assign(lanes_, nullptr);
  ctl_.assign(lanes_, RunCtl{});
  k_alpha_.resize(lanes_);
  k_one_minus_alpha_.resize(lanes_);
  k_alpha_gamma_.resize(lanes_);
  k_half_.resize(lanes_);
  k_shift_.resize(lanes_);
  k_lo_.resize(lanes_);
  k_hi_.resize(lanes_);

  for (std::size_t i = 0; i < lanes_; ++i) {
    const LaneSpec& spec = lanes[i];
    QTA_CHECK_MSG(spec.env != nullptr, "lane spec without an environment");
    QTA_CHECK_MSG(compatible(spec.config, lanes[0].config),
                  "lanes of one group must agree on algorithm, qmax "
                  "mode, and hazard mode");
    validate_config(spec.config, *spec.env);
    // The kernel hoists fixed::mul's per-call width check to here.
    QTA_CHECK_MSG(
        spec.config.q_fmt.width + spec.config.coeff_fmt.width <= 62,
        "product would overflow the 64-bit accumulator");

    config_.push_back(spec.config);
    if (spec.image != nullptr) {
      QTA_CHECK_MSG(spec.image->env == spec.env &&
                        spec.image->q_fmt == spec.config.q_fmt,
                    "donated environment image does not match the lane");
      image_.push_back(spec.image);
    } else {
      image_.push_back(build_env_image(*spec.env, spec.config));
    }
    map_.push_back(image_.back()->map);
    coeff_.push_back(make_coefficients(spec.config));
    eps_threshold_.push_back(epsilon_threshold(
        spec.config.epsilon, spec.config.epsilon_bits));
    rng_.emplace_back(spec.config.seed, map_.back());

    if (!spec.defer_tables) {
      q_[i].assign(map_.back().depth(), 0);
      if (spec.config.algorithm == Algorithm::kDoubleQ) {
        q2_[i].assign(map_.back().depth(), 0);
      }
      qmax_value_[i].assign(spec.env->num_states(), 0);
      qmax_action_[i].assign(spec.env->num_states(), 0);
      advise_huge_pages(q_[i]);
      advise_huge_pages(q2_[i]);
      advise_huge_pages(qmax_value_[i]);
      advise_huge_pages(qmax_action_[i]);
    }
    // Dirty-row flags are sized even for deferred lanes (put_state may
    // adopt a conservative epoch that needs a zeroed bitmap to land in).
    dirty_rows_[i].assign(spec.env->num_states(), 0);

    const fixed::Format qf = spec.config.q_fmt;
    const fixed::Format cf = spec.config.coeff_fmt;
    k_alpha_[i] = coeff_.back().alpha;
    k_one_minus_alpha_[i] = coeff_.back().one_minus_alpha;
    k_alpha_gamma_[i] = coeff_.back().alpha_gamma;
    k_shift_[i] = cf.frac;
    k_half_[i] =
        cf.frac == 0 ? 0 : (std::int64_t{1} << (cf.frac - 1));
    k_lo_[i] = qf.min_raw();
    k_hi_[i] = qf.max_raw();
  }
  sc_.resize(lanes_);
}

LaneEngine::Hot LaneEngine::make_hot(std::size_t lane) {
  Hot h(rng_[lane]);
  const EnvImage& img = *image_[lane];
  const PipelineConfig& c = config_[lane];
  h.stats = stats_[lane];
  h.coeff = coeff_[lane];
  h.q_fmt = c.q_fmt;
  h.coeff_fmt = c.coeff_fmt;
  h.eps_threshold = eps_threshold_[lane];
  h.epsilon_bits = c.epsilon_bits;
  h.action_bits = map_[lane].action_bits;
  h.state_bits = map_[lane].state_bits;
  h.max_episode_length = c.max_episode_length;
  h.learn_tables[0] = q_[lane].data();
  h.learn_tables[1] = q2_[lane].empty() ? nullptr : q2_[lane].data();
  h.qmax_v = qmax_value_[lane].empty() ? nullptr : qmax_value_[lane].data();
  h.qmax_a =
      qmax_action_[lane].empty() ? nullptr : qmax_action_[lane].data();
  h.dirty = dirty_rows_[lane].data();
  h.reward = img.reward.data();
  h.terminal = img.terminal.data();
  h.sa_rec = img.sa.empty() ? nullptr : img.sa.data();
  h.grid = img.grid;
  h.env = img.env;
  h.noise_bits = img.noise_bits;
  h.num_states = img.num_states;
  h.num_actions = img.num_actions;
  h.episode_start = episode_start_[lane];
  h.state = state_[lane];
  h.pending_action = pending_action_[lane];
  h.episode_steps = episode_steps_[lane];
  h.wb[0] = wb_ring_[lane][0];
  h.wb[1] = wb_ring_[lane][1];
  h.wb[2] = wb_ring_[lane][2];
  h.raise[0] = raise_ring_[lane][0];
  h.raise[1] = raise_ring_[lane][1];
  h.dsp_sat[0] = dsp_saturations_[lane][0];
  h.dsp_sat[1] = dsp_saturations_[lane][1];
  h.dsp_sat[2] = dsp_saturations_[lane][2];
  h.trace = trace_[lane];
  h.sink = telemetry_[lane];
  return h;
}

void LaneEngine::commit_hot(std::size_t lane) {
  const Hot& h = hot_[lane];
  stats_[lane] = h.stats;
  rng_[lane] = h.rng;
  episode_start_[lane] = h.episode_start;
  state_[lane] = h.state;
  pending_action_[lane] = h.pending_action;
  episode_steps_[lane] = h.episode_steps;
  wb_ring_[lane] = {h.wb[0], h.wb[1], h.wb[2]};
  raise_ring_[lane] = {h.raise[0], h.raise[1]};
  dsp_saturations_[lane] = {h.dsp_sat[0], h.dsp_sat[1], h.dsp_sat[2]};
}

namespace {

// Exact max (first argmax on ties) of the Q row starting at `row`, off
// raw pointers so the passes touch no member vectors.
inline void row_max_ptr(const fixed::raw_t* table, std::uint64_t row,
                        ActionId num_actions, fixed::raw_t& value,
                        ActionId& action) {
  value = table[row];
  action = 0;
  for (ActionId a = 1; a < num_actions; ++a) {
    const fixed::raw_t v = table[row + a];
    if (v > value) {
      value = v;
      action = a;
    }
  }
}

}  // namespace

StateId LaneEngine::hot_next_state(Hot& L, StateId s, ActionId a) {
  // GridWorld is final, so this call devirtualizes and inlines — the
  // paper's evaluation workload computes transitions with a handful of
  // ALU ops instead of chasing a pre-baked table through the LLC.
  if (L.grid != nullptr) return L.grid->transition(s, a);
  if (L.sa_rec != nullptr) return L.sa_rec[L.q_addr(s, a)].next;
  return L.noise_bits == 0
             ? L.env->transition(s, a)
             : L.env->transition(s, a,
                                 L.rng.draw_transition_noise(L.noise_bits));
}

// --- the issue phases: everything ahead of the stage-3 arithmetic ----
//
// One lane, one iteration, split across three thin phases; the group
// schedule runs each lane-major so every live lane's prefetches are
// issued before any lane consumes them. The LFSR draws stay in the
// golden model's per-iteration order: start draw, behavior draw, table
// select (pass_addr), transition noise (pass_next), epsilon (pass_read).
// Bubbles (a terminal start state: the zero-length episode is redrawn
// next iteration) retire entirely in pass_addr; the slot occupies a
// pipeline slot, so the raise window advances, but pushes no
// write-back, and the inactive slot's zeroed operands keep the kernel's
// products harmless.
template <Algorithm kAlgo, bool kTel>
void LaneEngine::pass_addr(Hot& L, std::size_t slot) {
  const std::uint64_t iter = L.stats.iterations;
  ++L.stats.iterations;
  ++L.stats.issued;
  L.iter = iter;

  if (L.episode_start) {
    L.state = L.rng.draw_start_state(L.num_states);
    L.episode_steps = 0;
    L.pending_action = kInvalidAction;
    if (L.terminal[L.state] != 0) {
      ++L.stats.bubbles;
      L.raise[1] = L.raise[0];
      L.raise[0] = {kInvalidState, false};
      if (L.trace != nullptr) {
        SampleTrace tr;
        tr.bubble = true;
        tr.state = L.state;
        L.trace->push_back(tr);
      }
      if constexpr (kTel) {
        if (L.sink != nullptr) {
          telemetry::StepEvent ev;
          ev.iteration = iter;
          ev.bubble = true;
          L.sink->on_step(ev);
        }
      }
      L.active = 0;
      sc_.r[slot] = 0;
      sc_.q_old[slot] = 0;
      sc_.q_next[slot] = 0;
      return;
    }
  }

  constexpr bool kRandomBehavior = kAlgo == Algorithm::kQLearning ||
                                   kAlgo == Algorithm::kDoubleQ;
  ActionId a;
  if (kRandomBehavior || L.episode_start) {
    a = L.rng.draw_random_action();
  } else {
    QTA_DCHECK(L.pending_action != kInvalidAction);
    a = L.pending_action;
  }
  L.episode_start = 0;

  const unsigned table =
      kAlgo == Algorithm::kDoubleQ ? L.rng.draw_table_select() : 0;
  const StateId s = L.state;
  const std::uint64_t sa_addr = L.q_addr(s, a);

  L.active = 1;
  L.s = s;
  L.a = a;
  L.table = static_cast<std::uint8_t>(table);
  L.sa_addr = sa_addr;
  L.tagged_sa = L.tagged(table, s, a);
  prefetch_rw(&L.learn_tables[table][sa_addr]);
  if (L.sa_rec != nullptr) {
    prefetch_ro(&L.sa_rec[sa_addr]);
  } else {
    prefetch_ro(&L.reward[sa_addr]);
  }
}

// Resolve the transition, then put exactly the s'-indexed lines this
// algorithm will read in flight. Prefetching is kept minimal on
// purpose: outstanding-miss buffers are a scarce resource, and lines
// the pass_read stage never touches evict the ones it does.
template <Algorithm kAlgo, bool kMono>
void LaneEngine::pass_next(Hot& L) {
  const StateId s_next = hot_next_state(L, L.s, L.a);
  L.s_next = s_next;
  if (L.sa_rec == nullptr) prefetch_ro(&L.terminal[s_next]);
  if constexpr (kMono &&
                (kAlgo == Algorithm::kQLearning ||
                 kAlgo == Algorithm::kSarsa)) {
    prefetch_ro(&L.qmax_v[s_next]);
    if constexpr (kAlgo == Algorithm::kSarsa) {
      prefetch_ro(&L.qmax_a[s_next]);
    }
  } else {
    const std::uint64_t row = L.q_addr(s_next, 0);
    const std::uint64_t row_end =
        row + ((std::uint64_t{1} << L.action_bits) - 1);
    prefetch_ro(&L.learn_tables[0][row]);
    prefetch_ro(&L.learn_tables[0][row_end]);
    if constexpr (kAlgo == Algorithm::kDoubleQ) {
      prefetch_ro(&L.learn_tables[1][row]);
      prefetch_ro(&L.learn_tables[1][row_end]);
    }
  }
}

template <Algorithm kAlgo, bool kMono, bool kCountFwd, bool kTel>
void LaneEngine::pass_read(Hot& L, std::size_t slot) {
  const StateId s_next = L.s_next;
  const unsigned table = L.table;
  fixed::raw_t* learn = L.learn_tables[table];
  const fixed::raw_t* eval =
      kAlgo == Algorithm::kDoubleQ ? L.learn_tables[table ^ 1u] : learn;

  const std::uint64_t sa_addr = L.sa_addr;
  fixed::raw_t r;
  bool next_terminal;
  if (L.sa_rec != nullptr) {
    const EnvImage::SaRecord& rec = L.sa_rec[sa_addr];
    r = rec.reward;
    next_terminal = rec.next_terminal != 0;
  } else {
    r = L.reward[sa_addr];
    next_terminal = L.terminal[s_next] != 0;
  }
  ++L.episode_steps;
  const bool end =
      next_terminal || L.episode_steps >= L.max_episode_length;

  fixed::raw_t q_next = 0;
  ActionId a_next = kInvalidAction;
  std::uint64_t fwd_next_addr = kNoAddr;
  bool fwd_qmax_hit = false;
  if (!end) {
    if constexpr (kAlgo == Algorithm::kQLearning) {
      if constexpr (kMono) {
        q_next = L.qmax_v[s_next];
        if (kCountFwd && hot_raise_hit(L, s_next)) {
          ++L.stats.fwd_qmax;
          fwd_qmax_hit = true;
        }
      } else {
        ActionId ignored;
        row_max_ptr(learn, L.q_addr(s_next, 0), L.num_actions, q_next,
                    ignored);
      }
    } else if constexpr (kAlgo == Algorithm::kDoubleQ) {
      fixed::raw_t ignored;
      ActionId argmax;
      row_max_ptr(learn, L.q_addr(s_next, 0), L.num_actions, ignored,
                  argmax);
      q_next = eval[L.q_addr(s_next, argmax)];
      fwd_next_addr = L.tagged(table ^ 1u, s_next, argmax);
    } else if constexpr (kAlgo == Algorithm::kSarsa) {
      const RngBank::EpsilonDraw d =
          L.rng.draw_epsilon(L.eps_threshold, L.epsilon_bits);
      if (d.greedy) {
        if constexpr (kMono) {
          q_next = L.qmax_v[s_next];
          a_next = L.qmax_a[s_next];
          if (kCountFwd && hot_raise_hit(L, s_next)) {
            ++L.stats.fwd_qmax;
            fwd_qmax_hit = true;
          }
        } else {
          row_max_ptr(learn, L.q_addr(s_next, 0), L.num_actions, q_next,
                      a_next);
        }
      } else {
        a_next = d.explore_action;
        q_next = learn[L.q_addr(s_next, a_next)];
        fwd_next_addr = L.tagged(0, s_next, a_next);
      }
    } else {  // Expected SARSA
      const RngBank::EpsilonDraw d =
          L.rng.draw_epsilon(L.eps_threshold, L.epsilon_bits);
      fixed::raw_t row_max;
      ActionId argmax;
      const std::uint64_t row = L.q_addr(s_next, 0);
      row_max_ptr(learn, row, L.num_actions, row_max, argmax);
      fixed::raw_t row_sum = 0;
      for (ActionId kAct = 0; kAct < L.num_actions; ++kAct) {
        row_sum += learn[row + kAct];
      }
      a_next = d.greedy ? argmax : d.explore_action;
      q_next = expected_sarsa_target(row_max, row_sum, L.action_bits,
                                     L.coeff, L.q_fmt, L.coeff_fmt);
    }
  }

  // Stage-3 forwarding-hit reconstruction. In stall mode nothing raises
  // Qmax ahead of BRAM commit, so the fwd_qmax counter (kCountFwd) never
  // fires; the queue-address matches still do, because WritebackQueue
  // entries are matched by address equality and are never retired from
  // the registers.
  const std::uint64_t tagged_sa = L.tagged_sa;
  if (hot_wb_hit(L, tagged_sa)) {
    ++L.stats.fwd_q_sa;
    if constexpr (kTel) L.tel_sa = hot_ring_distance(L, tagged_sa);
  } else if constexpr (kTel) {
    L.tel_sa = 0;
  }
  if (fwd_next_addr != kNoAddr && hot_wb_hit(L, fwd_next_addr)) {
    ++L.stats.fwd_q_next;
    if constexpr (kTel) L.tel_next = hot_ring_distance(L, fwd_next_addr);
  } else if constexpr (kTel) {
    L.tel_next = 0;
  }

  L.a_next = a_next;
  L.end = end ? 1 : 0;
  L.fwd_next_addr = fwd_next_addr;
  sc_.r[slot] = r;
  sc_.q_old[slot] = learn[sa_addr];
  sc_.q_next[slot] = q_next;
  if constexpr (kTel) L.tel_fq = fwd_qmax_hit ? 1 : 0;
}

// --- the retire pass: write-back, raise, rings, trace, telemetry ------
template <Algorithm kAlgo, bool kMono, bool kTel>
void LaneEngine::pass_retire(Hot& L, std::size_t slot) {
  const std::uint8_t sat = sc_.sat_bits[slot];
  L.dsp_sat[0] += sat & 1u;
  L.dsp_sat[1] += (sat >> 1) & 1u;
  L.dsp_sat[2] += (sat >> 2) & 1u;
  L.stats.adder_saturations += ((sat >> 3) & 1u) + ((sat >> 4) & 1u);

  const StateId s = L.s;
  const ActionId a = L.a;
  const fixed::raw_t new_q = sc_.new_q[slot];
  L.learn_tables[L.table][L.sa_addr] = new_q;
  L.dirty[s] = 1;

  bool raised = false;
  if constexpr (kAlgo != Algorithm::kExpectedSarsa &&
                kAlgo != Algorithm::kDoubleQ && kMono) {
    if (new_q > L.qmax_v[s]) {
      L.qmax_v[s] = new_q;
      L.qmax_a[s] = a;
      raised = true;
    }
  }

  // The write-back ring mirrors the forwarding queue (samples only); the
  // raise ring advances for every iteration (pipeline slots).
  L.wb[2] = L.wb[1];
  L.wb[1] = L.wb[0];
  L.wb[0] = L.tagged_sa;
  L.raise[1] = L.raise[0];
  L.raise[0] = {s, raised};

  ++L.stats.samples;
  const bool end = L.end != 0;
  if (L.trace != nullptr) {
    SampleTrace tr;
    tr.state = s;
    tr.action = a;
    tr.reward = sc_.r[slot];
    tr.new_q = new_q;
    tr.next_state = L.s_next;
    tr.end_episode = end;
    tr.table = L.table;
    L.trace->push_back(tr);
  }

  if constexpr (kTel) {
    if (L.sink != nullptr) {
      telemetry::StepEvent ev;
      ev.iteration = L.iter;
      ev.episode_end = end;
      ev.fwd_sa_distance = L.tel_sa;
      ev.fwd_next_distance = L.tel_next;
      ev.fwd_qmax = L.tel_fq != 0;
      // All of this step's saturation events are in the kernel's mask.
      ev.saturations = static_cast<std::uint8_t>(
          (sat & 1u) + ((sat >> 1) & 1u) + ((sat >> 2) & 1u) +
          ((sat >> 3) & 1u) + ((sat >> 4) & 1u));
      ev.qmax_raised = raised;
      L.sink->on_step(ev);
    }
  }

  if (end) {
    ++L.stats.episodes;
    L.episode_start = 1;
  } else {
    L.state = L.s_next;
    L.pending_action = L.a_next;
  }
}

void LaneEngine::pack_params(const std::vector<std::size_t>& live) {
  for (std::size_t i = 0; i < live.size(); ++i) {
    const std::size_t lane = live[i];
    sc_.p_alpha[i] = k_alpha_[lane];
    sc_.p_one_minus_alpha[i] = k_one_minus_alpha_[lane];
    sc_.p_alpha_gamma[i] = k_alpha_gamma_[lane];
    sc_.p_half[i] = k_half_[lane];
    sc_.p_shift[i] = k_shift_[lane];
    sc_.p_lo[i] = k_lo_[lane];
    sc_.p_hi[i] = k_hi_[lane];
  }
  params_dirty_ = false;
}

bool LaneEngine::lane_done(RunCtl& ctl, std::uint64_t samples,
                           bool forward) {
  if (ctl.sample_target == 0) return --ctl.remaining == 0;
  if (samples < ctl.sample_target) return false;
  if (!forward) return true;
  // The pipeline keeps issuing while the final sample drains toward
  // stage 4: exactly 3 extra iterations retire.
  ctl.sample_target = 0;
  ctl.remaining = 3;
  return false;
}

template <Algorithm kAlgo, bool kMono, bool kCountFwd, bool kTel>
void LaneEngine::run_solo(std::size_t lane) {
  Hot& L = hot_[lane];
  RunCtl& ctl = ctl_[lane];
  const bool forward = config_[lane].hazard == HazardMode::kForward;
  const fixed::raw_t alpha = k_alpha_[lane];
  const fixed::raw_t one_minus_alpha = k_one_minus_alpha_[lane];
  const fixed::raw_t alpha_gamma = k_alpha_gamma_[lane];
  const std::int64_t half = k_half_[lane];
  const std::uint64_t shift = k_shift_[lane];
  const fixed::raw_t lo = k_lo_[lane];
  const fixed::raw_t hi = k_hi_[lane];
  const std::uint64_t row_span = (std::uint64_t{1} << L.action_bits) - 1;
  do {
    pass_addr<kAlgo, kTel>(L, 0);
    if (L.active != 0) {
      pass_next<kAlgo, kMono>(L);
      // The next iteration reads s_next's Q and reward rows; their
      // addresses are known a full iteration ahead of use, so start
      // those (random, hence hardware-prefetcher-proof) fetches now. A
      // row can straddle a cache line, so touch both ends.
      const std::uint64_t row = L.q_addr(L.s_next, 0);
      prefetch_ro(&L.learn_tables[0][row]);
      prefetch_ro(&L.learn_tables[0][row + row_span]);
      if constexpr (kAlgo == Algorithm::kDoubleQ) {
        prefetch_ro(&L.learn_tables[1][row]);
        prefetch_ro(&L.learn_tables[1][row + row_span]);
      }
      if (L.sa_rec != nullptr) {
        prefetch_ro(&L.sa_rec[row]);
        prefetch_ro(&L.sa_rec[row + row_span]);
      } else {
        prefetch_ro(&L.reward[row]);
        prefetch_ro(&L.reward[row + row_span]);
      }
      pass_read<kAlgo, kMono, kCountFwd, kTel>(L, 0);
      std::uint8_t flags = 0;
      sc_.new_q[0] =
          update_one(sc_.r[0], sc_.q_old[0], sc_.q_next[0], alpha,
                     one_minus_alpha, alpha_gamma, half, shift, lo, hi, flags);
      sc_.sat_bits[0] = flags;
      pass_retire<kAlgo, kMono, kTel>(L, 0);
    }
  } while (!lane_done(ctl, L.stats.samples, forward));
}

template <Algorithm kAlgo, bool kMono, bool kCountFwd, bool kTel>
void LaneEngine::run_rounds(std::vector<std::size_t>& live) {
  Hot* const hot = hot_.data();
  KernelArgs k;
  k.r = sc_.r.data();
  k.q_old = sc_.q_old.data();
  k.q_next = sc_.q_next.data();
  k.alpha = sc_.p_alpha.data();
  k.one_minus_alpha = sc_.p_one_minus_alpha.data();
  k.alpha_gamma = sc_.p_alpha_gamma.data();
  k.half = sc_.p_half.data();
  k.shift = sc_.p_shift.data();
  k.lo = sc_.p_lo.data();
  k.hi = sc_.p_hi.data();
  k.new_q = sc_.new_q.data();
  k.sat_bits = sc_.sat_bits.data();

  while (!live.empty()) {
    if (params_dirty_) pack_params(live);
    const std::size_t n = live.size();

    for (std::size_t i = 0; i < n; ++i) {
      pass_addr<kAlgo, kTel>(hot[live[i]], i);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (hot[live[i]].active != 0) pass_next<kAlgo, kMono>(hot[live[i]]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (hot[live[i]].active != 0) {
        pass_read<kAlgo, kMono, kCountFwd, kTel>(hot[live[i]], i);
      }
    }

    k.n = n;
    kernel_(k);

    for (std::size_t i = 0; i < n; ++i) {
      if (hot[live[i]].active != 0) {
        pass_retire<kAlgo, kMono, kTel>(hot[live[i]], i);
      }
    }

    std::size_t out = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lane = live[i];
      if (!lane_done(ctl_[lane], hot[lane].stats.samples,
                     config_[lane].hazard == HazardMode::kForward)) {
        live[out++] = lane;
      } else {
        params_dirty_ = true;
      }
    }
    live.resize(out);
  }
}

template <Algorithm kAlgo, bool kMono, bool kCountFwd>
void LaneEngine::run_rounds_any(std::vector<std::size_t>& live) {
  bool any_tel = false;
  for (const std::size_t lane : live) {
    any_tel = any_tel || telemetry_[lane] != nullptr;
  }
  if (live.size() == 1) {
    if (any_tel) {
      run_solo<kAlgo, kMono, kCountFwd, true>(live[0]);
    } else {
      run_solo<kAlgo, kMono, kCountFwd, false>(live[0]);
    }
  } else if (any_tel) {
    run_rounds<kAlgo, kMono, kCountFwd, true>(live);
  } else {
    run_rounds<kAlgo, kMono, kCountFwd, false>(live);
  }
}

template <Algorithm kAlgo>
void LaneEngine::run_rounds_algo(std::vector<std::size_t>& live) {
  const PipelineConfig& c = config_[live.empty() ? 0 : live[0]];
  const bool mono = c.qmax == QmaxMode::kMonotoneTable;
  if (mono && c.hazard == HazardMode::kForward) {
    run_rounds_any<kAlgo, true, true>(live);
  } else if (mono) {
    run_rounds_any<kAlgo, true, false>(live);
  } else {
    run_rounds_any<kAlgo, false, false>(live);
  }
}

void LaneEngine::run_group(const std::vector<std::size_t>& lanes_to_run,
                           const std::vector<std::uint64_t>& values,
                           bool samples_mode) {
  QTA_CHECK(lanes_to_run.size() == values.size());
  std::vector<std::size_t> live;
  live.reserve(lanes_to_run.size());
  for (std::size_t i = 0; i < lanes_to_run.size(); ++i) {
    const std::size_t lane = lanes_to_run[i];
    QTA_CHECK(lane < lanes_);
    RunCtl& ctl = ctl_[lane];
    if (samples_mode) {
      // The pipeline would not tick at all for an already-met target.
      if (stats_[lane].samples >= values[i]) continue;
      ctl.sample_target = values[i];
      ctl.remaining = 0;
    } else {
      if (values[i] == 0) continue;
      ctl.sample_target = 0;
      ctl.remaining = values[i];
    }
    // Fresh run: the prior drain committed every in-flight raise, so only
    // raises from THIS run can be ahead of the BRAM. (The write-back
    // ring persists: queue entries are registers that never age out.)
    raise_ring_[lane] = {};
    ctl.iters_at_entry = stats_[lane].iterations;
    live.push_back(lane);
  }
  if (live.empty()) return;
  const std::vector<std::size_t> entered = live;
  params_dirty_ = true;

  // Materialize the hot records the passes run off (indexed by lane; the
  // non-participating lanes' records are built but never touched).
  hot_.clear();
  hot_.reserve(lanes_);
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    hot_.push_back(make_hot(lane));
  }

  switch (config_[live[0]].algorithm) {
    case Algorithm::kQLearning:
      run_rounds_algo<Algorithm::kQLearning>(live);
      break;
    case Algorithm::kSarsa:
      run_rounds_algo<Algorithm::kSarsa>(live);
      break;
    case Algorithm::kExpectedSarsa:
      run_rounds_algo<Algorithm::kExpectedSarsa>(live);
      break;
    case Algorithm::kDoubleQ:
      run_rounds_algo<Algorithm::kDoubleQ>(live);
      break;
  }

  // Exit accounting per participating lane: the analytic cycle
  // attribution of one run_* call, and its RunEvent.
  for (const std::size_t lane : entered) {
    commit_hot(lane);
    PipelineStats& st = stats_[lane];
    const std::uint64_t ticks = st.iterations - ctl_[lane].iters_at_entry;
    telemetry::RunEvent run;
    if (samples_mode) {
      if (config_[lane].hazard == HazardMode::kForward) {
        // The drain iterations issued inside the run; then the 3-cycle
        // drain of stages 2..4.
        run.issue_cycles = ticks;
        run.drain_cycles = 3;
        st.cycles += ticks + 3;
      } else {
        // Stall mode retires before the next issue: no overshoot, and
        // the run ends exactly as the n-th sample commits.
        st.cycles += 4 * ticks;
        st.stall_cycles += 3 * ticks;
        run.issue_cycles = ticks;
        run.stall_cycles = 3 * ticks;
      }
    } else {
      run.issue_cycles = ticks;
      if (config_[lane].hazard == HazardMode::kForward) {
        st.cycles += ticks + 3;
        run.drain_cycles = 3;
      } else {
        // One issue per 4 cycles; the final iteration's trailing cycles
        // are drain ticks, which do not count as stalls.
        st.cycles += 4 * ticks;
        st.stall_cycles += 3 * (ticks - 1);
        run.stall_cycles = 3 * (ticks - 1);
        run.drain_cycles = 3;  // 4n == n issue + 3(n-1) stall + 3 drain
      }
    }
    if (telemetry_[lane] != nullptr) telemetry_[lane]->on_run(run);
  }
}

void LaneEngine::run_samples_all(
    const std::vector<std::uint64_t>& targets) {
  QTA_CHECK(targets.size() == lanes_);
  std::vector<std::size_t> all(lanes_);
  for (std::size_t i = 0; i < lanes_; ++i) all[i] = i;
  run_group(all, targets, /*samples_mode=*/true);
}

void LaneEngine::run_iterations_all(
    const std::vector<std::uint64_t>& counts) {
  QTA_CHECK(counts.size() == lanes_);
  std::vector<std::size_t> all(lanes_);
  for (std::size_t i = 0; i < lanes_; ++i) all[i] = i;
  run_group(all, counts, /*samples_mode=*/false);
}

void LaneEngine::run_iterations(std::size_t lane, std::uint64_t n) {
  run_group({lane}, {n}, /*samples_mode=*/false);
}

void LaneEngine::run_samples(std::size_t lane, std::uint64_t n) {
  run_group({lane}, {n}, /*samples_mode=*/true);
}

fixed::raw_t LaneEngine::q_raw(std::size_t lane, StateId s,
                               ActionId a) const {
  return q_[lane][map_[lane].q_addr(s, a)];
}

fixed::raw_t LaneEngine::q2_raw(std::size_t lane, StateId s,
                                ActionId a) const {
  QTA_CHECK(config_[lane].algorithm == Algorithm::kDoubleQ);
  return q2_[lane][map_[lane].q_addr(s, a)];
}

// Host-side readback, identical to Pipeline's (nothing feeds back into
// the replay).
// qtlint: push-allow(datapath-purity)
double LaneEngine::q_value(std::size_t lane, StateId s, ActionId a) const {
  if (config_[lane].algorithm == Algorithm::kDoubleQ) {
    return (fixed::to_double(q_raw(lane, s, a), config_[lane].q_fmt) +
            fixed::to_double(q2_[lane][map_[lane].q_addr(s, a)],
                             config_[lane].q_fmt)) /
           2.0;
  }
  return fixed::to_double(q_raw(lane, s, a), config_[lane].q_fmt);
}

std::vector<double> LaneEngine::q_as_double(std::size_t lane) const {
  const EnvImage& img = *image_[lane];
  std::vector<double> out;
  out.reserve(img.env->table_size());
  for (StateId s = 0; s < img.num_states; ++s) {
    for (ActionId a = 0; a < img.num_actions; ++a) {
      out.push_back(q_value(lane, s, a));
    }
  }
  return out;
}
// qtlint: pop-allow(datapath-purity)

std::vector<ActionId> LaneEngine::greedy_policy(std::size_t lane) const {
  return env::greedy_policy_from(*image_[lane]->env, q_as_double(lane));
}

QmaxUnit::Entry LaneEngine::qmax_entry(std::size_t lane, StateId s) const {
  QTA_CHECK(s < image_[lane]->num_states);
  return {qmax_value_[lane][s], qmax_action_[lane][s]};
}

void LaneEngine::preset_q(std::size_t lane, StateId s, ActionId a,
                          fixed::raw_t value) {
  q_[lane][map_[lane].q_addr(s, a)] =
      fixed::saturate(value, config_[lane].q_fmt);
  dirty_rows_[lane][s] = 1;
}

void LaneEngine::rebuild_qmax(std::size_t lane) {
  if (config_[lane].qmax != QmaxMode::kMonotoneTable ||
      config_[lane].algorithm == Algorithm::kExpectedSarsa ||
      config_[lane].algorithm == Algorithm::kDoubleQ) {
    return;
  }
  for (StateId s = 0; s < image_[lane]->num_states; ++s) {
    fixed::raw_t value;
    ActionId action;
    row_max_ptr(q_[lane].data(), map_[lane].q_addr(s, 0),
                image_[lane]->num_actions, value, action);
    if (value < 0) {
      value = 0;
      action = 0;
    }
    qmax_value_[lane][s] = value;
    qmax_action_[lane][s] = action;
  }
  // Every Qmax row was rewritten (possibly lowered below the old
  // monotone value), so the epoch collapses to all-dirty.
  dirty_all_[lane] = 1;
}

MachineState LaneEngine::save_state(std::size_t lane) const {
  MachineState ms;
  ms.q = q_[lane];
  ms.q2 = q2_[lane];
  ms.qmax_value = qmax_value_[lane];
  ms.qmax_action = qmax_action_[lane];
  ms.rng = rng_[lane].lfsr_state();
  ms.episode_start = episode_start_[lane] != 0;
  ms.state = state_[lane];
  ms.pending_action = pending_action_[lane];
  ms.episode_steps = episode_steps_[lane];
  static_assert(kNoAddr == MachineState::kNoWriteback);
  ms.wb_addrs = wb_ring_[lane];
  ms.stats = stats_[lane];
  ms.dsp_saturations = dsp_saturations_[lane];
  ms.dirty.rows = dirty_rows_[lane];
  ms.dirty.all = dirty_all_[lane] != 0;
  return ms;
}

void LaneEngine::load_state(std::size_t lane, const MachineState& ms) {
  put_state(lane, MachineState(ms));
}

MachineState LaneEngine::take_state(std::size_t lane) {
  MachineState ms;
  ms.q = std::move(q_[lane]);
  ms.q2 = std::move(q2_[lane]);
  ms.qmax_value = std::move(qmax_value_[lane]);
  ms.qmax_action = std::move(qmax_action_[lane]);
  ms.rng = rng_[lane].lfsr_state();
  ms.episode_start = episode_start_[lane] != 0;
  ms.state = state_[lane];
  ms.pending_action = pending_action_[lane];
  ms.episode_steps = episode_steps_[lane];
  ms.wb_addrs = wb_ring_[lane];
  ms.stats = stats_[lane];
  ms.dsp_saturations = dsp_saturations_[lane];
  ms.dirty.rows = std::move(dirty_rows_[lane]);
  ms.dirty.all = dirty_all_[lane] != 0;
  q_[lane].clear();
  q2_[lane].clear();
  qmax_value_[lane].clear();
  qmax_action_[lane].clear();
  // Leave a zeroed, correctly sized bitmap behind so put_state can adopt
  // into it and preset_q on a deferred lane stays in bounds.
  dirty_rows_[lane].assign(image_[lane]->num_states, 0);
  dirty_all_[lane] = 1;
  return ms;
}

void LaneEngine::put_state(std::size_t lane, MachineState&& ms) {
  const EnvImage& img = *image_[lane];
  const bool double_q = config_[lane].algorithm == Algorithm::kDoubleQ;
  QTA_CHECK_MSG(ms.q.size() == img.map.depth(),
                "machine state does not match the engine's table geometry");
  QTA_CHECK_MSG(ms.q2.size() == (double_q ? img.map.depth() : 0),
                "machine state and engine disagree on the second Q table");
  QTA_CHECK_MSG(ms.qmax_value.size() == img.num_states &&
                    ms.qmax_action.size() == img.num_states,
                "machine state does not match the engine's state count");
  q_[lane] = std::move(ms.q);
  q2_[lane] = std::move(ms.q2);
  qmax_value_[lane] = std::move(ms.qmax_value);
  qmax_action_[lane] = std::move(ms.qmax_action);
  advise_huge_pages(q_[lane]);
  advise_huge_pages(q2_[lane]);
  advise_huge_pages(qmax_value_[lane]);
  advise_huge_pages(qmax_action_[lane]);
  rng_[lane].set_lfsr_state(ms.rng);
  episode_start_[lane] = ms.episode_start ? 1 : 0;
  state_[lane] = ms.state;
  pending_action_[lane] = ms.pending_action;
  episode_steps_[lane] = ms.episode_steps;
  wb_ring_[lane] = ms.wb_addrs;
  // The raise ring is intentionally NOT restored: states are saved
  // post-drain, and run_group resets the ring at entry anyway.
  raise_ring_[lane] = {};
  stats_[lane] = ms.stats;
  dsp_saturations_[lane] = ms.dsp_saturations;

  // Adopt the carried dirty-row epoch; any mismatch (or a
  // default-constructed DirtyRows) collapses to conservative all-dirty.
  if (!ms.dirty.all && ms.dirty.rows.size() == img.num_states) {
    dirty_rows_[lane] = std::move(ms.dirty.rows);
    dirty_all_[lane] = 0;
  } else {
    dirty_rows_[lane].assign(img.num_states, 0);
    dirty_all_[lane] = 1;
  }
}

void LaneEngine::reset_dirty_rows(std::size_t lane) {
  std::fill(dirty_rows_[lane].begin(), dirty_rows_[lane].end(), 0);
  dirty_all_[lane] = 0;
}

std::uint64_t LaneEngine::dirty_row_count(std::size_t lane) const {
  if (dirty_all_[lane] != 0) return image_[lane]->num_states;
  std::uint64_t n = 0;
  for (const std::uint8_t b : dirty_rows_[lane]) n += b;
  return n;
}

}  // namespace qta::qtaccel
