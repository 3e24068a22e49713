// The serve workloads' shape and request streams, shared by the TCP
// load generator (serve_load.cpp) and the traced in-process replica
// (serve_replica.cpp), which replays the same seeded stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "qtbench.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace qta::qtbench {

// Load comes from one thread over this many connections (nproc = 4);
// session i always travels on connection i % kConnections, so its
// requests keep their order.
inline constexpr unsigned kConnections = 4;
inline constexpr unsigned kShards = 2;

struct ServeShape {
  unsigned sessions = 0;
  unsigned side = 0;          // sessions learn on side x side x 4 grids
  unsigned max_hot = 0;       // qtserved --max-hot
  std::size_t max_queue = 0;  // qtserved --max-queue
  std::uint64_t step = 0;     // samples per Step request
  bool open_loop = false;     // serve-churn: scheduled arrivals
};

ServeShape serve_shape(Kind kind);

/// The daemons' serving options (qtserved --workers=1
/// --max-queue=shape.max_queue --max-hot=shape.max_hot, defaults
/// otherwise).
serve::ServerOptions server_options(const ServeShape& shape);

/// Session i runs kAlgorithms[i % 4]; its seed comes from the run seed.
std::vector<serve::SessionSpec> session_specs(const ServeShape& shape,
                                              std::uint64_t seed);

/// One client request; `session` indexes session_specs().
struct Op {
  serve::RequestType type = serve::RequestType::kStep;
  std::uint32_t session = 0;
  StateId state = 0;   // Query
  double due_s = 0.0;  // open loop: scheduled send time after load start
  // Replies the client had received, counted from the start of its plan,
  // when it sent this request.
  std::uint64_t answered = 0;
};

/// serve-churn's arrivals for `duration_s`: Poisson at `rate`, session
/// popularity Zipf(1.0) over a seeded permutation, 80% Step, 15% Query,
/// 5% Snapshot.
std::vector<Op> churn_schedule(const ServeShape& shape, std::uint64_t seed,
                               double rate, double duration_s);

serve::Request make_request(const Op& op,
                            const std::vector<serve::SessionId>& ids,
                            const ServeShape& shape);

/// What a client sent, in order, for the replica to replay with the
/// same requests outstanding together: each op goes out once as many
/// replies have come back as the client had when it sent it. Ops before
/// `measured_from` (serve-churn's open-loop warm period) run untraced
/// and unmeasured.
struct Plan {
  std::vector<Op> ops;
  std::size_t measured_from = 0;
};

/// The set-up warm-up: a fixed number of Step requests, one per session
/// in each round (4 rounds on serve-steady, one on serve-churn).
Plan warmup_plan(const ServeShape& shape);

/// Sessions the correctness gate snapshots: first, median and last,
/// plus the 8 with the most Steps.
std::vector<std::uint32_t> gate_sessions(
    const std::vector<std::uint64_t>& steps_done);

/// Snapshot text of a local engine twin advanced by `count` Step(`step`)
/// requests: the qtclient --verify replay.
std::string twin_snapshot(const serve::SessionSpec& spec, std::uint64_t step,
                          std::uint64_t count, Spans& spans);

/// Per-layer totals of one replica run, over its measured requests.
struct ReplicaRun {
  double wall_s = 0.0;
  std::uint64_t requests = 0;        // client requests measured
  std::uint64_t client_bytes = 0;    // request + response frames
  std::uint64_t injected = 0;        // router-originated worker frames
  std::uint64_t injected_bytes = 0;
  std::map<std::string, Spans::LayerTotals> layers;
  // Summed over both servers: qtserve_phase_us sum/count per phase,
  // qtserve_batch_size, parks and restores.
  std::map<std::string, std::pair<double, double>> phases;
  std::pair<double, double> batch;
  std::uint64_t executed = 0;
  std::uint64_t restores = 0;
  std::uint64_t parks = 0;
  std::uint64_t park_bytes = 0;
  std::uint64_t delta_park_bytes = 0;
};

/// Replays `warmup` then `load` through an in-process copy of the tier
/// (shard::Router, this run's RouterHost, two serve::Servers with the
/// daemons' options), recording spans on `spans` for the measured
/// requests, then runs the correctness gate on the replica's sessions.
ReplicaRun run_replica(const ServeShape& shape,
                       const std::vector<serve::SessionSpec>& specs,
                       const Plan& warmup, const Plan& load, Spans& spans,
                       Outcome& outcome);

}  // namespace qta::qtbench
