// Session eviction under churn (the serving tentpole's stress proof):
// 64 logical sessions multiplexed onto 8 hot slots and 4 workers, driven
// with a randomized interleaving of Step / Evict / Query requests. Every
// session must end bit-identical — snapshot text (tables, stats, RNG)
// AND telemetry counters — to a standalone engine that executed the same
// Step partitioning with no serving layer, no eviction, and no thread
// pool. Run on all three backends; on the lanes backend the bursts also
// exercise pump()'s lane-group coalescing against the eviction churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "env/grid_world.h"
#include "runtime/engine.h"
#include "runtime/snapshot.h"
#include "serve/protocol.h"
#include "serve/transport.h"
#include "telemetry/metrics.h"
#include "telemetry/pipeline_telemetry.h"

namespace qta::serve {
namespace {

constexpr std::size_t kSessions = 64;
constexpr unsigned kMaxHot = 8;
constexpr unsigned kWorkers = 4;
constexpr int kRounds = 24;
constexpr std::size_t kBurst = 16;  // posts per round (cross-session batch)

qtaccel::Algorithm algorithm_for(std::size_t i) {
  switch (i % 4) {
    case 0: return qtaccel::Algorithm::kQLearning;
    case 1: return qtaccel::Algorithm::kSarsa;
    case 2: return qtaccel::Algorithm::kExpectedSarsa;
    default: return qtaccel::Algorithm::kDoubleQ;
  }
}

SessionSpec spec_for(std::size_t i, qtaccel::Backend backend) {
  SessionSpec spec;
  spec.width = 8;
  spec.height = 8;
  spec.actions = 4;
  spec.algorithm = algorithm_for(i);
  spec.backend = backend;
  spec.seed = 1000 + i;
  spec.max_episode_length = 128;
  spec.telemetry = (i % 4 == 0);  // every 4th session carries a sink
  return spec;
}

std::vector<std::string> session_metric_lines(const std::string& prom,
                                              SessionId id) {
  const std::string needle = "pipe=\"" + std::to_string(id) + "\"";
  std::vector<std::string> lines;
  std::istringstream is(prom);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("qta_", 0) == 0 &&
        line.find(needle) != std::string::npos) {
      lines.push_back(line);
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

void churn(qtaccel::Backend backend) {
  ServerOptions options;
  options.max_hot = kMaxHot;
  options.workers = kWorkers;
  options.max_queue = kSessions;  // churn probes exactness, not overload
  LoopbackTransport transport(options);

  std::vector<SessionId> ids(kSessions);
  std::vector<SessionSpec> specs(kSessions);
  // The standalone replays must partition run_samples identically, so
  // record every session's Step chunks in service order.
  std::vector<std::vector<std::uint64_t>> chunks(kSessions);

  for (std::size_t i = 0; i < kSessions; ++i) {
    specs[i] = spec_for(i, backend);
    Request create;
    create.type = RequestType::kCreateSession;
    create.spec = specs[i];
    const Response resp = transport.call(create);
    ASSERT_EQ(resp.status, Status::kOk) << resp.error;
    ids[i] = resp.session;
  }

  // Seed every session with one Step so each has state worth churning.
  for (std::size_t i = 0; i < kSessions; ++i) {
    Request step;
    step.type = RequestType::kStep;
    step.session = ids[i];
    step.steps = 64;
    ASSERT_EQ(transport.call(step).status, Status::kOk);
    chunks[i].push_back(64);
  }

  // Randomized interleaving. Each round posts a 16-request burst across
  // distinct random sessions BEFORE waiting, so pump() batches across
  // sessions onto the 4 workers while the LRU churns 64 sessions
  // through 8 slots.
  std::mt19937 rng(backend == qtaccel::Backend::kFast ? 71u : 72u);
  std::uniform_int_distribution<std::size_t> pick_session(0,
                                                          kSessions - 1);
  std::uniform_int_distribution<int> pick_op(0, 9);
  const std::uint64_t step_sizes[] = {32, 64, 128, 256};
  std::uniform_int_distribution<std::size_t> pick_steps(0, 3);

  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::size_t> chosen;
    while (chosen.size() < kBurst) {
      const std::size_t s = pick_session(rng);
      if (std::find(chosen.begin(), chosen.end(), s) == chosen.end()) {
        chosen.push_back(s);
      }
    }
    std::vector<Ticket> tickets;
    for (const std::size_t s : chosen) {
      Request req;
      req.session = ids[s];
      const int op = pick_op(rng);
      if (op < 6) {  // 60% Step
        req.type = RequestType::kStep;
        req.steps = step_sizes[pick_steps(rng)];
        chunks[s].push_back(req.steps);
      } else if (op < 8) {  // 20% forced evict (cold save + restore)
        req.type = RequestType::kEvict;
      } else {  // 20% Query (acquires hot, mutates nothing)
        req.type = RequestType::kQuery;
        req.state = 5;
      }
      tickets.push_back(transport.post(req));
    }
    for (const Ticket t : tickets) {
      ASSERT_EQ(transport.wait(t).status, Status::kOk);
    }
  }

  // The churn actually churned: capacity evictions and restores fired.
  auto& sessions = transport.server().sessions();  // snapshot_text mutates
  EXPECT_GT(sessions.lru_evictions(), kSessions) << "not enough churn";
  EXPECT_GT(sessions.restores(), kSessions);
  ASSERT_EQ(sessions.size(), kSessions);

  // Every session must be bit-identical to its standalone double.
  const std::string served_prom =
      transport.server().metrics().prometheus_text();
  for (std::size_t i = 0; i < kSessions; ++i) {
    env::GridWorldConfig gc;
    gc.width = specs[i].width;
    gc.height = specs[i].height;
    gc.num_actions = specs[i].actions;
    env::GridWorld world(gc);

    telemetry::MetricsRegistry standalone_metrics;
    std::unique_ptr<telemetry::PipelineTelemetry> sink;
    runtime::Engine standalone(world, make_config(specs[i]));
    if (specs[i].telemetry) {
      sink = std::make_unique<telemetry::PipelineTelemetry>(
          qtaccel::make_run_labels(make_config(specs[i]),
                                   static_cast<unsigned>(ids[i])),
          &standalone_metrics, nullptr,
          static_cast<std::uint32_t>(ids[i]));
      standalone.set_telemetry(sink.get());
    }
    for (const std::uint64_t chunk : chunks[i]) {
      standalone.run_samples(standalone.stats().samples + chunk);
    }

    const std::string tag = "session " + std::to_string(ids[i]) + " (" +
                            qtaccel::algorithm_name(specs[i].algorithm) +
                            ", " +
                            qtaccel::backend_name(specs[i].backend) + ")";
    std::ostringstream reference;
    runtime::save_snapshot(standalone, reference);
    ASSERT_EQ(sessions.snapshot_text(ids[i]), reference.str()) << tag;

    if (specs[i].telemetry) {
      const auto served = session_metric_lines(served_prom, ids[i]);
      const auto local =
          session_metric_lines(standalone_metrics.prometheus_text(),
                               ids[i]);
      ASSERT_FALSE(local.empty()) << tag;
      EXPECT_EQ(served, local) << tag;
    }
  }
}

// Delta-chain churn: two sessions ping-pong on ONE hot slot, so every
// Step evicts the other session and every acquire restores a cold
// chain. Short 32-sample epochs keep the dirty-row set small, so parks
// after the first are v3 deltas; the chain compacts back to a full
// image at SessionManager::kMaxDeltaChain. snapshot_text() must still
// materialize v2 text bit-identical to an unserved engine that ran the
// same chunks — through base+delta replay, compaction, and park
// serialization overlapped with the batch.
void delta_chain_churn(qtaccel::Backend backend) {
  ServerOptions options;
  options.max_hot = 1;
  options.workers = 2;
  options.max_queue = 16;
  LoopbackTransport transport(options);

  constexpr std::size_t kPair = 2;
  constexpr int kPingPongRounds = 20;
  constexpr std::uint64_t kStepChunk = 32;
  std::vector<SessionId> ids(kPair);
  std::vector<SessionSpec> specs(kPair);
  for (std::size_t i = 0; i < kPair; ++i) {
    specs[i] = spec_for(i, backend);
    Request create;
    create.type = RequestType::kCreateSession;
    create.spec = specs[i];
    const Response resp = transport.call(create);
    ASSERT_EQ(resp.status, Status::kOk) << resp.error;
    ids[i] = resp.session;
  }
  for (int round = 0; round < kPingPongRounds; ++round) {
    for (std::size_t i = 0; i < kPair; ++i) {
      Request step;
      step.type = RequestType::kStep;
      step.session = ids[i];
      step.steps = kStepChunk;
      ASSERT_EQ(transport.call(step).status, Status::kOk);
    }
  }

  auto& sessions = transport.server().sessions();
  EXPECT_GT(sessions.restores(), static_cast<std::uint64_t>(
                                     kPingPongRounds));  // real churn

  auto& metrics = transport.server().metrics();
  const std::uint64_t v3_full =
      metrics
          .counter("qtserve_park_bytes_total",
                   {{"format", "v3"}, {"kind", "full"}})
          .value();
  const std::uint64_t v3_delta =
      metrics
          .counter("qtserve_park_bytes_total",
                   {{"format", "v3"}, {"kind", "delta"}})
          .value();
  EXPECT_GT(v3_full, 0u);   // initial bases + compaction rebases
  EXPECT_GT(v3_delta, 0u);  // steady-state parks are deltas
  // The whole point: the average delta park is materially smaller than
  // the average full park.
  EXPECT_LT(v3_delta / (kPingPongRounds - 4), v3_full / 4);
  const std::uint64_t restore_total =
      metrics
          .counter("qtserve_restore_bytes_total",
                   {{"format", "v3"}, {"kind", "full"}})
          .value();
  EXPECT_GT(restore_total, 0u);

  for (std::size_t i = 0; i < kPair; ++i) {
    env::GridWorldConfig gc;
    gc.width = specs[i].width;
    gc.height = specs[i].height;
    gc.num_actions = specs[i].actions;
    env::GridWorld world(gc);
    runtime::Engine standalone(world, make_config(specs[i]));
    for (int round = 0; round < kPingPongRounds; ++round) {
      standalone.run_samples(standalone.stats().samples + kStepChunk);
    }
    std::ostringstream reference;
    runtime::save_snapshot(standalone, reference);
    ASSERT_EQ(sessions.snapshot_text(ids[i]), reference.str())
        << "session " << ids[i] << " ("
        << qtaccel::backend_name(backend) << ")";
  }
}

TEST(ServeChurnDelta, ChainsAndCompactsOnFastBackend) {
  delta_chain_churn(qtaccel::Backend::kFast);
}

TEST(ServeChurnDelta, ChainsAndCompactsOnCycleBackend) {
  delta_chain_churn(qtaccel::Backend::kCycleAccurate);
}

TEST(ServeChurnDelta, ChainsAndCompactsOnLanesBackend) {
  delta_chain_churn(qtaccel::Backend::kLanes);
}

TEST(ServeChurn, SixtyFourSessionsBitExactOnFastBackend) {
  churn(qtaccel::Backend::kFast);
}

TEST(ServeChurn, SixtyFourSessionsBitExactOnCycleBackend) {
  churn(qtaccel::Backend::kCycleAccurate);
}

// Lane backend under churn: bursts coalesce same-algorithm sessions
// into lane groups while the LRU evicts and restores around them, so
// state migrates engine -> group -> engine -> cold snapshot and back.
// Runs under TSan in CI (the ServeChurn filter) to race-hunt the
// group-vs-eviction interleaving.
TEST(ServeChurn, SixtyFourSessionsBitExactOnLanesBackend) {
  churn(qtaccel::Backend::kLanes);
}

}  // namespace
}  // namespace qta::serve
