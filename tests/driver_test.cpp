#include <gtest/gtest.h>

#include <sstream>

#include "driver/qtaccel_device.h"
#include "driver/register_map.h"
#include "env/grid_world.h"
#include "qtaccel/golden_model.h"
#include "rng/xoshiro.h"
#include "runtime/snapshot.h"

namespace qta::driver {
namespace {

constexpr auto off = [](Reg r) { return static_cast<std::uint32_t>(r); };

env::GridWorldConfig grid4() {
  env::GridWorldConfig c;
  c.width = 4;
  c.height = 4;
  c.num_actions = 4;
  return c;
}

TEST(RegisterMap, CoefficientRoundTrip) {
  for (double v : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_NEAR(unpack_coefficient(pack_coefficient(v)), v, 1e-4) << v;
  }
  EXPECT_DEATH(pack_coefficient(1.5), "0, 1");
}

TEST(RegisterMap, Validity) {
  EXPECT_TRUE(is_valid_register(off(Reg::kId)));
  EXPECT_TRUE(is_valid_register(off(Reg::kQmaxData)));
  EXPECT_TRUE(is_valid_register(off(Reg::kSaturationCount)));
  EXPECT_TRUE(is_valid_register(off(Reg::kBackend)));
  EXPECT_FALSE(is_valid_register(off(Reg::kBackend) + 4));
  EXPECT_FALSE(is_valid_register(2));  // unaligned
}

TEST(RegisterMap, Writability) {
  EXPECT_FALSE(is_writable_register(off(Reg::kId)));
  EXPECT_FALSE(is_writable_register(off(Reg::kStatus)));
  EXPECT_FALSE(is_writable_register(off(Reg::kSampleCountLo)));
  EXPECT_TRUE(is_writable_register(off(Reg::kAlpha)));
  EXPECT_TRUE(is_writable_register(off(Reg::kCtrl)));
  EXPECT_TRUE(is_writable_register(off(Reg::kTableAddr)));
  EXPECT_TRUE(is_writable_register(off(Reg::kBackend)));
}

TEST(Device, IdentifiesItself) {
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  EXPECT_EQ(dev.read_csr(off(Reg::kId)), kMagic);
  EXPECT_EQ(dev.read_csr(off(Reg::kVersion)), kVersionWord);
  EXPECT_EQ(dev.read_csr(off(Reg::kStatus)), 0u);
}

TEST(Device, ConfigReadback) {
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  dev.write_csr(off(Reg::kAlpha), pack_coefficient(0.25));
  dev.write_csr(off(Reg::kGamma), pack_coefficient(0.75));
  dev.write_csr(off(Reg::kSeedLo), 0xdeadbeef);
  EXPECT_EQ(dev.read_csr(off(Reg::kAlpha)), pack_coefficient(0.25));
  EXPECT_EQ(dev.read_csr(off(Reg::kGamma)), pack_coefficient(0.75));
  EXPECT_EQ(dev.read_csr(off(Reg::kSeedLo)), 0xdeadbeefu);
}

TEST(Device, RunsToCompletion) {
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  dev.write_csr(off(Reg::kSamplesTargetLo), 5000);
  dev.write_csr(off(Reg::kMaxEpisodeLen), 128);
  dev.write_csr(off(Reg::kCtrl), kCtrlStart);
  EXPECT_TRUE(dev.busy());
  EXPECT_FALSE(dev.done());

  std::uint64_t guard = 0;
  while (dev.busy()) {
    dev.advance(1000);
    ASSERT_LT(++guard, 100u);
  }
  EXPECT_TRUE(dev.done());
  const std::uint64_t samples =
      dev.read_csr(off(Reg::kSampleCountLo)) |
      (static_cast<std::uint64_t>(dev.read_csr(off(Reg::kSampleCountHi)))
       << 32);
  EXPECT_GE(samples, 5000u);
  EXPECT_GT(dev.read_csr(off(Reg::kEpisodeCountLo)), 0u);
  EXPECT_GT(dev.read_csr(off(Reg::kCycleCountLo)), samples - 10);
}

TEST(Device, MatchesGoldenModel) {
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  dev.write_csr(off(Reg::kAlpha), pack_coefficient(0.25));
  dev.write_csr(off(Reg::kGamma), pack_coefficient(0.875));
  dev.write_csr(off(Reg::kSeedLo), 77);
  dev.write_csr(off(Reg::kMaxEpisodeLen), 128);
  dev.write_csr(off(Reg::kSamplesTargetLo), 20000);
  dev.write_csr(off(Reg::kCtrl), kCtrlStart);
  while (dev.busy()) dev.advance(10000);

  qtaccel::PipelineConfig c;
  c.alpha = unpack_coefficient(pack_coefficient(0.25));
  c.gamma = unpack_coefficient(pack_coefficient(0.875));
  c.seed = 77;
  c.max_episode_length = 128;
  qtaccel::GoldenModel golden(g, c);
  golden.run(dev.engine()->stats().iterations);

  for (StateId s = 0; s < g.num_states(); ++s) {
    for (ActionId a = 0; a < g.num_actions(); ++a) {
      ASSERT_EQ(golden.q_raw(s, a), dev.engine()->q_raw(s, a));
    }
  }
}

TEST(Device, TableWindowReadback) {
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  dev.write_csr(off(Reg::kSamplesTargetLo), 20000);
  dev.write_csr(off(Reg::kMaxEpisodeLen), 128);
  dev.write_csr(off(Reg::kCtrl), kCtrlStart);
  while (dev.busy()) dev.advance(10000);

  // Read Q((2,3), right) through the CSR window and compare with the
  // direct accessor; (2,3)'s right neighbour is the goal.
  const StateId s = g.state_of(2, 3);
  const ActionId a = 2;
  dev.write_csr(off(Reg::kTableAddr), (s << 2) | a);
  const auto word = dev.read_csr(off(Reg::kTableData));
  // 18-bit sign extension.
  auto v = static_cast<std::int64_t>(word & 0x3FFFF);
  if (v & (1 << 17)) v |= ~0x3FFFFll;
  EXPECT_EQ(v, dev.engine()->q_raw(s, a));
  EXPECT_GT(dev.q_value(s, a), 100.0);

  // Qmax window for the same state.
  const auto qmax_word = dev.read_csr(off(Reg::kQmaxData));
  const auto entry = dev.engine()->qmax_entry(s);
  EXPECT_EQ(qmax_word >> 18, entry.action);
}

TEST(Device, PerformanceCountersExposed) {
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  // Counters read 0 before any run.
  EXPECT_EQ(dev.read_csr(off(Reg::kFwdQsaCount)), 0u);
  dev.write_csr(off(Reg::kSamplesTargetLo), 30000);
  dev.write_csr(off(Reg::kMaxEpisodeLen), 128);
  dev.write_csr(off(Reg::kCtrl), kCtrlStart);
  while (dev.busy()) dev.advance(10000);
  // A 4x4 world forces plenty of same-row hazards.
  EXPECT_GT(dev.read_csr(off(Reg::kFwdQsaCount)), 0u);
  EXPECT_EQ(dev.read_csr(off(Reg::kStallCount)), 0u);  // forwarding mode
  EXPECT_EQ(dev.read_csr(off(Reg::kFwdQsaCount)),
            dev.engine()->stats().fwd_q_sa);
  EXPECT_FALSE(is_writable_register(off(Reg::kFwdQmaxCount)));
}

TEST(Device, ConfigLockedWhileBusy) {
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  dev.write_csr(off(Reg::kSamplesTargetLo), 100000);
  dev.write_csr(off(Reg::kCtrl), kCtrlStart);
  EXPECT_TRUE(dev.busy());
  dev.write_csr(off(Reg::kAlpha), pack_coefficient(0.5));  // rejected
  EXPECT_NE(dev.read_csr(off(Reg::kStatus)) & kStatusCfgError, 0u);
  EXPECT_NE(dev.read_csr(off(Reg::kAlpha)), pack_coefficient(0.5));
  dev.write_csr(off(Reg::kCtrl), kCtrlReset);
  EXPECT_FALSE(dev.busy());
  EXPECT_EQ(dev.read_csr(off(Reg::kStatus)), 0u);
}

TEST(Device, BadConfigRaisesErrorInsteadOfStarting) {
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  dev.write_csr(off(Reg::kAlpha), pack_coefficient(0.0));  // alpha == 0
  dev.write_csr(off(Reg::kSamplesTargetLo), 100);
  dev.write_csr(off(Reg::kCtrl), kCtrlStart);
  EXPECT_FALSE(dev.busy());
  EXPECT_NE(dev.read_csr(off(Reg::kStatus)) & kStatusCfgError, 0u);
}

TEST(Device, ZeroTargetIsConfigError) {
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  dev.write_csr(off(Reg::kCtrl), kCtrlStart);  // target still 0
  EXPECT_FALSE(dev.busy());
  EXPECT_NE(dev.read_csr(off(Reg::kStatus)) & kStatusCfgError, 0u);
}

TEST(Device, SarsaSelectable) {
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  dev.write_csr(off(Reg::kAlgorithm), 1);  // SARSA
  dev.write_csr(off(Reg::kEpsilonThresh), 52429);  // eps = 0.2
  dev.write_csr(off(Reg::kMaxEpisodeLen), 128);
  dev.write_csr(off(Reg::kSamplesTargetLo), 5000);
  dev.write_csr(off(Reg::kCtrl), kCtrlStart);
  while (dev.busy()) dev.advance(10000);
  EXPECT_TRUE(dev.done());
  EXPECT_EQ(dev.engine()->config().algorithm,
            qtaccel::Algorithm::kSarsa);
  EXPECT_NEAR(dev.engine()->config().epsilon, 0.2, 1e-4);
}

TEST(Device, AllFourAlgorithmsSelectable) {
  env::GridWorld g(grid4());
  const qtaccel::Algorithm expect[] = {
      qtaccel::Algorithm::kQLearning, qtaccel::Algorithm::kSarsa,
      qtaccel::Algorithm::kExpectedSarsa, qtaccel::Algorithm::kDoubleQ};
  for (std::uint32_t code = 0; code < 4; ++code) {
    QtAccelDevice dev(g);
    dev.write_csr(off(Reg::kAlgorithm), code);
    dev.write_csr(off(Reg::kMaxEpisodeLen), 128);
    dev.write_csr(off(Reg::kSamplesTargetLo), 2000);
    dev.write_csr(off(Reg::kCtrl), kCtrlStart);
    while (dev.busy()) dev.advance(10000);
    EXPECT_TRUE(dev.done()) << "algorithm code " << code;
    EXPECT_EQ(dev.engine()->config().algorithm, expect[code]);
  }
  // Code 4 is a config error.
  QtAccelDevice dev(g);
  dev.write_csr(off(Reg::kAlgorithm), 4);
  dev.write_csr(off(Reg::kSamplesTargetLo), 100);
  dev.write_csr(off(Reg::kCtrl), kCtrlStart);
  EXPECT_FALSE(dev.busy());
  EXPECT_NE(dev.read_csr(off(Reg::kStatus)) & kStatusCfgError, 0u);
}

TEST(Device, BusErrorsAbort) {
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  EXPECT_DEATH(dev.read_csr(0x1000), "bad offset");
  EXPECT_DEATH(dev.write_csr(off(Reg::kStatus), 1), "read-only");
}

TEST(Device, CsrFuzzNeverCorruptsTheDevice) {
  // Random (valid-offset) traffic: reads everywhere, writes to writable
  // registers, interleaved with starts/resets/advances. The device must
  // never abort and must still complete a clean run afterwards.
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  rng::Xoshiro256 rng(99);
  const std::uint32_t max_off = off(Reg::kBackend);
  for (int i = 0; i < 5000; ++i) {
    const auto offset =
        static_cast<std::uint32_t>(rng.below(max_off / 4 + 1)) * 4;
    switch (rng.below(4)) {
      case 0:
        (void)dev.read_csr(offset);
        break;
      case 1:
        if (is_writable_register(offset) &&
            offset != off(Reg::kCtrl)) {
          // Keep coefficient fields in-range; others take anything.
          const bool coeff = offset == off(Reg::kAlpha) ||
                             offset == off(Reg::kGamma);
          dev.write_csr(offset,
                        coeff ? pack_coefficient(rng.uniform(0.0, 1.0))
                              : static_cast<std::uint32_t>(rng.next()));
        }
        break;
      case 2:
        dev.write_csr(off(Reg::kCtrl),
                      rng.bernoulli(0.5) ? kCtrlStart : kCtrlReset);
        break;
      default:
        dev.advance(rng.below(300));
        break;
    }
  }
  // Recover to a known-good configuration and run to completion.
  dev.write_csr(off(Reg::kCtrl), kCtrlReset);
  dev.write_csr(off(Reg::kAlgorithm), 0);
  dev.write_csr(off(Reg::kBackend), 0);
  dev.write_csr(off(Reg::kAlpha), pack_coefficient(0.2));
  dev.write_csr(off(Reg::kGamma), pack_coefficient(0.9));
  dev.write_csr(off(Reg::kEpsilonThresh), 58982);
  dev.write_csr(off(Reg::kMaxEpisodeLen), 128);
  dev.write_csr(off(Reg::kSamplesTargetLo), 2000);
  dev.write_csr(off(Reg::kSamplesTargetHi), 0);
  dev.write_csr(off(Reg::kCtrl), kCtrlStart);
  ASSERT_TRUE(dev.busy());
  while (dev.busy()) dev.advance(10000);
  EXPECT_TRUE(dev.done());
}

TEST(Device, AdvanceWhileIdleIsNoop) {
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  dev.advance(100);
  EXPECT_EQ(dev.read_csr(off(Reg::kCycleCountLo)), 0u);
}

TEST(Device, FastBackendBatchesTheRunAndMatchesCycleBackend) {
  // BACKEND=1 selects the fast functional engine: no per-cycle clock, so
  // the first nonzero advance() retires the whole run. The retired table
  // must match the cycle-accurate device bit for bit.
  env::GridWorld g(grid4());
  QtAccelDevice cycle_dev(g);
  cycle_dev.write_csr(off(Reg::kMaxEpisodeLen), 128);
  cycle_dev.write_csr(off(Reg::kSamplesTargetLo), 8000);
  cycle_dev.write_csr(off(Reg::kCtrl), kCtrlStart);
  while (cycle_dev.busy()) cycle_dev.advance(10000);

  QtAccelDevice fast_dev(g);
  fast_dev.write_csr(off(Reg::kBackend), 1);
  fast_dev.write_csr(off(Reg::kMaxEpisodeLen), 128);
  fast_dev.write_csr(off(Reg::kSamplesTargetLo), 8000);
  fast_dev.write_csr(off(Reg::kCtrl), kCtrlStart);
  EXPECT_TRUE(fast_dev.busy());
  EXPECT_EQ(fast_dev.cycle_pipeline(), nullptr);
  fast_dev.advance(1);  // batch semantics: one call finishes the run
  EXPECT_FALSE(fast_dev.busy());
  EXPECT_TRUE(fast_dev.done());

  EXPECT_EQ(fast_dev.read_csr(off(Reg::kSampleCountLo)),
            cycle_dev.read_csr(off(Reg::kSampleCountLo)));
  EXPECT_EQ(fast_dev.read_csr(off(Reg::kEpisodeCountLo)),
            cycle_dev.read_csr(off(Reg::kEpisodeCountLo)));
  for (StateId s = 0; s < g.num_states(); ++s) {
    for (ActionId a = 0; a < g.num_actions(); ++a) {
      ASSERT_EQ(fast_dev.engine()->q_raw(s, a),
                cycle_dev.engine()->q_raw(s, a));
    }
  }
}

TEST(Device, InvalidBackendCodeIsConfigError) {
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  dev.write_csr(off(Reg::kBackend), 2);
  dev.write_csr(off(Reg::kSamplesTargetLo), 100);
  dev.write_csr(off(Reg::kCtrl), kCtrlStart);
  EXPECT_FALSE(dev.busy());
  EXPECT_NE(dev.read_csr(off(Reg::kStatus)) & kStatusCfgError, 0u);
}

TEST(Device, SnapshotDmaRoundTripResumesBitExactly) {
  // Host-side pause/resume through the snapshot DMA: run a device
  // partway, save, restore into a second device configured with the
  // same CSRs, and let both finish. save_snapshot quiesces (drains
  // in-flight work), which never changes what retires, so both devices
  // must converge on identical counters and tables.
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  dev.write_csr(off(Reg::kMaxEpisodeLen), 128);
  dev.write_csr(off(Reg::kSamplesTargetLo), 12000);
  dev.write_csr(off(Reg::kCtrl), kCtrlStart);
  while (dev.busy() &&
         dev.read_csr(off(Reg::kSampleCountLo)) < 4000) {
    dev.advance(500);
  }
  std::stringstream snap;
  dev.save_snapshot(snap);
  EXPECT_TRUE(dev.busy());  // saving does not stop the machine

  QtAccelDevice resumed(g);
  resumed.write_csr(off(Reg::kMaxEpisodeLen), 128);
  resumed.write_csr(off(Reg::kSamplesTargetLo), 12000);
  resumed.load_snapshot(snap);  // START-with-state: no kCtrlStart needed
  EXPECT_TRUE(resumed.busy());
  EXPECT_GE(resumed.read_csr(off(Reg::kSampleCountLo)), 4000u);

  while (dev.busy()) dev.advance(10000);
  while (resumed.busy()) resumed.advance(10000);
  EXPECT_TRUE(dev.done());
  EXPECT_TRUE(resumed.done());
  EXPECT_EQ(dev.read_csr(off(Reg::kSampleCountLo)),
            resumed.read_csr(off(Reg::kSampleCountLo)));
  EXPECT_EQ(dev.read_csr(off(Reg::kEpisodeCountLo)),
            resumed.read_csr(off(Reg::kEpisodeCountLo)));
  for (StateId s = 0; s < g.num_states(); ++s) {
    for (ActionId a = 0; a < g.num_actions(); ++a) {
      ASSERT_EQ(dev.engine()->q_raw(s, a), resumed.engine()->q_raw(s, a));
    }
  }
}

TEST(Device, SnapshotDmaV3BinaryImageCarriesTheSameState) {
  // The DMA save path writes v2 text; a v3 image of the same quiesced
  // machine must restore to an identical device (the load path sniffs
  // the version, no CSR involved).
  env::GridWorld g(grid4());
  QtAccelDevice dev(g);
  dev.write_csr(off(Reg::kMaxEpisodeLen), 128);
  dev.write_csr(off(Reg::kSamplesTargetLo), 12000);
  dev.write_csr(off(Reg::kCtrl), kCtrlStart);
  while (dev.busy() && dev.read_csr(off(Reg::kSampleCountLo)) < 3000) {
    dev.advance(500);
  }

  std::stringstream v2, v3;
  dev.save_snapshot(v2);  // quiesces, so the engine is drained
  runtime::save_snapshot_v3(*dev.engine(), v3);
  EXPECT_NE(v3.str().find("QTACCEL-SNAPSHOT v3\n"), std::string::npos);
  EXPECT_NE(v2.str(), v3.str());

  QtAccelDevice from_v2(g), from_v3(g);
  for (QtAccelDevice* d : {&from_v2, &from_v3}) {
    d->write_csr(off(Reg::kMaxEpisodeLen), 128);
    d->write_csr(off(Reg::kSamplesTargetLo), 12000);
  }
  from_v2.load_snapshot(v2);
  from_v3.load_snapshot(v3);

  // Re-serializing both restored devices as text is a full-state
  // comparison in one byte-equality.
  std::stringstream text_v2, text_v3;
  from_v2.save_snapshot(text_v2);
  from_v3.save_snapshot(text_v3);
  EXPECT_EQ(text_v2.str(), text_v3.str());
}

}  // namespace
}  // namespace qta::driver
