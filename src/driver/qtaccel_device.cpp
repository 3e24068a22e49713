#include "driver/qtaccel_device.h"

#include "common/check.h"
#include "runtime/snapshot.h"

namespace qta::driver {

QtAccelDevice::QtAccelDevice(const env::Environment& env)
    : env_(env), map_(qtaccel::make_address_map(env)) {}

QtAccelDevice::~QtAccelDevice() = default;

bool QtAccelDevice::busy() const { return busy_; }
bool QtAccelDevice::done() const { return done_; }

void QtAccelDevice::start() {
  qtaccel::PipelineConfig c;
  switch (algorithm_) {
    case 0: c.algorithm = qtaccel::Algorithm::kQLearning; break;
    case 1: c.algorithm = qtaccel::Algorithm::kSarsa; break;
    case 2: c.algorithm = qtaccel::Algorithm::kExpectedSarsa; break;
    case 3: c.algorithm = qtaccel::Algorithm::kDoubleQ; break;
    default: break;  // caught by the validity check below
  }
  c.backend = backend_ == 1 ? qtaccel::Backend::kFast
                            : qtaccel::Backend::kCycleAccurate;
  c.alpha = unpack_coefficient(alpha_);
  c.gamma = unpack_coefficient(gamma_);
  c.epsilon_bits = 16;
  c.epsilon =
      1.0 - static_cast<double>(epsilon_thresh_) / 65536.0;
  c.seed = (static_cast<std::uint64_t>(seed_hi_) << 32) | seed_lo_;
  c.max_episode_length = max_episode_len_;
  samples_target_ =
      (static_cast<std::uint64_t>(samples_target_hi_) << 32) |
      samples_target_lo_;

  // Soft validation: a bad configuration raises CFG_ERROR instead of
  // starting (the RTL equivalent of a config sanity checker).
  const bool valid = algorithm_ <= 3 && backend_ <= 1 &&
                     c.alpha > 0.0 && c.alpha <= 1.0 &&
                     c.gamma >= 0.0 && c.gamma < 1.0 &&
                     epsilon_thresh_ <= 65536 && c.epsilon >= 0.0 &&
                     c.epsilon <= 1.0 && max_episode_len_ >= 1 &&
                     samples_target_ > 0;
  if (!valid) {
    cfg_error_ = true;
    return;
  }
  cfg_error_ = false;
  done_ = false;
  engine_ = std::make_unique<runtime::Engine>(env_, c);
  busy_ = true;
}

void QtAccelDevice::reset() {
  engine_.reset();
  busy_ = false;
  done_ = false;
  cfg_error_ = false;
}

void QtAccelDevice::quiesce() {
  qtaccel::Pipeline* pipe = engine_ ? engine_->cycle_pipeline() : nullptr;
  if (pipe == nullptr) return;  // fast backend is always drained
  while (pipe->in_flight()) pipe->tick(false);
}

void QtAccelDevice::advance(std::uint64_t cycles) {
  if (!busy_ || !engine_) return;
  qtaccel::Pipeline* pipe = engine_->cycle_pipeline();
  if (pipe == nullptr) {
    // Fast backend: no per-cycle clock exists; any nonzero advance
    // retires the remaining sample budget in one batch.
    if (cycles == 0) return;
    engine_->run_samples(samples_target_);
    busy_ = false;
    done_ = true;
    return;
  }
  for (std::uint64_t i = 0; i < cycles && busy_; ++i) {
    const bool want_more = pipe->stats().samples < samples_target_;
    pipe->tick(want_more);
    if (pipe->stats().samples >= samples_target_ && !pipe->in_flight()) {
      busy_ = false;
      done_ = true;
    }
  }
}

void QtAccelDevice::save_snapshot(std::ostream& os) {
  QTA_CHECK_MSG(engine_ != nullptr,
                "snapshot DMA with no engine started");
  quiesce();
  runtime::save_snapshot(*engine_, os);
}

void QtAccelDevice::load_snapshot(std::istream& is) {
  start();  // builds the engine from the current CSR config
  QTA_CHECK_MSG(!cfg_error_ && engine_ != nullptr,
                "snapshot DMA rejected: invalid CSR configuration");
  runtime::load_snapshot(*engine_, is);
  if (engine_->stats().samples >= samples_target_) {
    busy_ = false;
    done_ = true;
  }
}

void QtAccelDevice::write_csr(std::uint32_t offset, std::uint32_t value) {
  QTA_CHECK_MSG(is_valid_register(offset), "CSR bus error: bad offset");
  const auto reg = static_cast<Reg>(offset);
  if (reg == Reg::kCtrl) {
    if (value & kCtrlReset) reset();
    if (value & kCtrlStart) {
      if (busy_) {
        cfg_error_ = true;  // start while busy: rejected
      } else {
        start();
      }
    }
    return;
  }
  QTA_CHECK_MSG(is_writable_register(offset),
                "CSR bus error: write to a read-only register");
  if (busy_ && reg != Reg::kTableAddr) {
    cfg_error_ = true;  // config writes are locked out while running
    return;
  }
  switch (reg) {
    case Reg::kAlgorithm: algorithm_ = value; break;
    case Reg::kAlpha: alpha_ = value; break;
    case Reg::kGamma: gamma_ = value; break;
    case Reg::kEpsilonThresh: epsilon_thresh_ = value; break;
    case Reg::kSeedLo: seed_lo_ = value; break;
    case Reg::kSeedHi: seed_hi_ = value; break;
    case Reg::kMaxEpisodeLen: max_episode_len_ = value; break;
    case Reg::kSamplesTargetLo: samples_target_lo_ = value; break;
    case Reg::kSamplesTargetHi: samples_target_hi_ = value; break;
    case Reg::kBackend: backend_ = value; break;
    case Reg::kTableAddr:
      table_addr_ =
          value & static_cast<std::uint32_t>(map_.depth() - 1);
      break;
    default:
      QTA_CHECK_MSG(false, "unhandled writable register");
  }
}

std::uint32_t QtAccelDevice::read_csr(std::uint32_t offset) const {
  QTA_CHECK_MSG(is_valid_register(offset), "CSR bus error: bad offset");
  auto lo32 = [](std::uint64_t v) {
    return static_cast<std::uint32_t>(v & 0xFFFFFFFFu);
  };
  auto hi32 = [](std::uint64_t v) {
    return static_cast<std::uint32_t>(v >> 32);
  };
  const auto* stats = engine_ ? &engine_->stats() : nullptr;
  switch (static_cast<Reg>(offset)) {
    case Reg::kId: return kMagic;
    case Reg::kVersion: return kVersionWord;
    case Reg::kCtrl: return 0;  // write-only
    case Reg::kStatus:
      return (busy_ ? kStatusBusy : 0u) | (done_ ? kStatusDone : 0u) |
             (cfg_error_ ? kStatusCfgError : 0u);
    case Reg::kAlgorithm: return algorithm_;
    case Reg::kAlpha: return alpha_;
    case Reg::kGamma: return gamma_;
    case Reg::kEpsilonThresh: return epsilon_thresh_;
    case Reg::kSeedLo: return seed_lo_;
    case Reg::kSeedHi: return seed_hi_;
    case Reg::kMaxEpisodeLen: return max_episode_len_;
    case Reg::kSamplesTargetLo: return samples_target_lo_;
    case Reg::kSamplesTargetHi: return samples_target_hi_;
    case Reg::kBackend: return backend_;
    case Reg::kSampleCountLo: return stats ? lo32(stats->samples) : 0;
    case Reg::kSampleCountHi: return stats ? hi32(stats->samples) : 0;
    case Reg::kEpisodeCountLo: return stats ? lo32(stats->episodes) : 0;
    case Reg::kEpisodeCountHi: return stats ? hi32(stats->episodes) : 0;
    case Reg::kCycleCountLo: return stats ? lo32(stats->cycles) : 0;
    case Reg::kCycleCountHi: return stats ? hi32(stats->cycles) : 0;
    case Reg::kTableAddr: return table_addr_;
    case Reg::kTableData: {
      if (!engine_) return 0;
      const StateId s =
          static_cast<StateId>(table_addr_ >> map_.action_bits);
      const auto a = static_cast<ActionId>(
          table_addr_ & ((1u << map_.action_bits) - 1));
      return static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(engine_->q_raw(s, a)) & 0xFFFFFFFFu);
    }
    case Reg::kQmaxData: {
      if (!engine_) return 0;
      const StateId s =
          static_cast<StateId>(table_addr_ >> map_.action_bits);
      const auto e = engine_->qmax_entry(s);
      const std::uint32_t vmask =
          (1u << engine_->config().q_fmt.width) - 1;
      return (static_cast<std::uint32_t>(e.action)
              << engine_->config().q_fmt.width) |
             (static_cast<std::uint32_t>(e.value) & vmask);
    }
    case Reg::kBubbleCount: return stats ? lo32(stats->bubbles) : 0;
    case Reg::kStallCount: return stats ? lo32(stats->stall_cycles) : 0;
    case Reg::kFwdQsaCount: return stats ? lo32(stats->fwd_q_sa) : 0;
    case Reg::kFwdQnextCount: return stats ? lo32(stats->fwd_q_next) : 0;
    case Reg::kFwdQmaxCount: return stats ? lo32(stats->fwd_qmax) : 0;
    case Reg::kSaturationCount:
      return engine_ ? lo32(engine_->dsp_saturations() +
                            stats->adder_saturations)
                     : 0;
  }
  QTA_CHECK_MSG(false, "unhandled register");
  return 0;
}

double QtAccelDevice::q_value(StateId s, ActionId a) const {
  QTA_CHECK(engine_ != nullptr);
  return engine_->q_value(s, a);
}

}  // namespace qta::driver
