// Functional model of the QTAccel IP block behind its CSR interface, plus
// the host-side driver facade a downstream application links against.
//
// The device is constructed around an Environment (the application-
// specific transition function and reward map that would be baked into
// the bitstream). The host then:
//   1. writes the learning configuration registers (including BACKEND:
//      0 selects the cycle-accurate pipeline, 1 the fast functional
//      engine — same retired behaviour, no per-cycle observability),
//   2. pulses CTRL.START (latched into a fresh engine; config errors
//      set STATUS.CFG_ERROR instead of starting),
//   3. advances the clock — advance(n) ticks the cycle-accurate pipeline
//      n times, or batch-runs the fast engine to the sample target in a
//      single advance call; STATUS.BUSY holds until the target retires,
//   4. reads counters and Q/Qmax words back through the table window.
//
// Config writes while BUSY are rejected (and flagged) exactly as the RTL
// would reject them.
//
// The device also exposes the machine-snapshot path (the DMA window of
// the real part): save_snapshot quiesces the engine and streams a
// QTACCEL-SNAPSHOT image (v2 text by default, v3 binary on request);
// load_snapshot is START-with-state — it builds an engine from the
// current CSRs and restores the image into it (either format, sniffed),
// resuming bit-exactly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>

#include "driver/register_map.h"
#include "env/environment.h"
#include "runtime/engine.h"

namespace qta::driver {

class QtAccelDevice {
 public:
  explicit QtAccelDevice(const env::Environment& env);
  ~QtAccelDevice();

  /// CSR bus. Invalid offsets abort (bus error); config writes while
  /// busy are dropped and latch STATUS.CFG_ERROR.
  void write_csr(std::uint32_t offset, std::uint32_t value);
  std::uint32_t read_csr(std::uint32_t offset) const;

  /// Advances the device clock by `cycles`. No-op when idle. On the
  /// fast backend any nonzero advance retires the whole sample target
  /// (the functional model has no per-cycle clock to tick).
  void advance(std::uint64_t cycles);

  bool busy() const;
  bool done() const;

  /// Direct (debug/DMA) table access mirroring the CSR window.
  double q_value(StateId s, ActionId a) const;

  /// The runtime engine behind the CSRs (null until the first START).
  /// Exposed for verification against the golden model.
  const runtime::Engine* engine() const { return engine_.get(); }

  /// The cycle-accurate pipeline behind the CSRs, or nullptr when no
  /// engine is running or a functional backend is selected — probe,
  /// don't assume.
  const qtaccel::Pipeline* cycle_pipeline() const {
    return engine_ ? engine_->cycle_pipeline() : nullptr;
  }

  /// Snapshot path (models the DMA window). save_snapshot quiesces the
  /// machine (drains in-flight work without issuing new samples) and
  /// writes a QTACCEL-SNAPSHOT v2 text image (runtime/snapshot.h);
  /// aborts if no engine has been started. BUSY/DONE are unchanged — a
  /// quiesced engine resumes on the next advance.
  void save_snapshot(std::ostream& os);
  /// START-with-state: builds an engine from the current CSR config
  /// (validity-checked exactly like START) and restores the snapshot
  /// into it (v2 or v3, sniffed from the stream). BUSY/DONE reflect the
  /// restored sample count against the current sample target.
  void load_snapshot(std::istream& is);

 private:
  void start();
  void reset();
  void quiesce();

  const env::Environment& env_;
  qtaccel::AddressMap map_;

  // Shadow configuration registers.
  std::uint32_t algorithm_ = 0;
  std::uint32_t alpha_ = pack_coefficient(0.1);
  std::uint32_t gamma_ = pack_coefficient(0.9);
  std::uint32_t epsilon_thresh_ = 0xE666;  // (1 - 0.1) * 2^16
  std::uint32_t seed_lo_ = 1, seed_hi_ = 0;
  std::uint32_t max_episode_len_ = 1u << 20;
  std::uint32_t samples_target_lo_ = 0, samples_target_hi_ = 0;
  std::uint32_t table_addr_ = 0;
  std::uint32_t backend_ = 0;  // 0 = cycle-accurate, 1 = fast

  bool busy_ = false;
  bool done_ = false;
  bool cfg_error_ = false;

  std::unique_ptr<runtime::Engine> engine_;
  std::uint64_t samples_target_ = 0;
};

}  // namespace qta::driver
