// Serving-layer sweep: sessions x workers over the loopback transport,
// writing BENCH_serve.json (schema provenance via write_bench_meta).
//
// Exit code gates ONLY correctness, never throughput:
//   1. Bit-exactness through the serving stack: after every sweep cell,
//      sampled sessions' Snapshot text must byte-equal a standalone
//      engine replayed with the identical Step partitioning — LRU
//      evictions, restores, and cross-session batching included.
//   2. Admission-control semantics: posting more requests than
//      max_queue before any pump yields exactly (posted - max_queue)
//      kOverloaded replies, and every admitted request completes.
// Throughput (samples/sec per cell) is report-only: this host is a
// shared CI box and the serving layer's scheduling is the subject under
// test, not the machine. Each cell also reports p50/p95/p99 per request
// phase (queue wait, restore, execute, reply, plus checkpoint — park
// serialization, observed once per eviction), read straight from the
// server's qtserve_phase_us histograms — log2-bucket upper bounds, so
// they are coarse but comparable across runs — and the park/restore
// byte totals split by snapshot format (v2/v3) and kind (full/delta).
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/table_printer.h"
#include "env/grid_world.h"
#include "runtime/engine.h"
#include "runtime/snapshot.h"
#include "serve/protocol.h"
#include "serve/transport.h"
#include "telemetry/metrics.h"

using namespace qta;

namespace {

constexpr unsigned kMaxHot = 8;
constexpr std::size_t kRounds = 4;
constexpr std::uint64_t kSteps = 256;

serve::SessionSpec spec_for(std::size_t index) {
  serve::SessionSpec spec;
  spec.width = 8;
  spec.height = 8;
  spec.actions = 4;
  spec.seed = 1 + index;
  spec.max_episode_length = 256;
  return spec;
}

std::string standalone_snapshot(const serve::SessionSpec& spec) {
  env::GridWorldConfig gc;
  gc.width = spec.width;
  gc.height = spec.height;
  gc.num_actions = spec.actions;
  env::GridWorld world(gc);
  runtime::Engine replay(world, serve::make_config(spec));
  for (std::size_t round = 0; round < kRounds; ++round) {
    replay.run_samples(replay.stats().samples + kSteps);
  }
  std::ostringstream os;
  runtime::save_snapshot(replay, os);
  return std::move(os).str();
}

constexpr const char* kPhases[] = {"queue_wait", "restore", "execute",
                                   "reply", "checkpoint"};
constexpr std::size_t kPhaseCount = 5;

struct PhaseStats {
  std::uint64_t count = 0;
  std::uint64_t p50 = 0;  // log2-bucket upper bounds, microseconds
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
};

// Park/restore byte totals by {format, kind} (qtserve_park_bytes_total
// / qtserve_restore_bytes_total). Parks only write v3, so a park
// total's v2_full slot stays 0; restores count v2 bases of adopted
// images there.
struct FormatBytes {
  std::uint64_t v2_full = 0;
  std::uint64_t v3_full = 0;
  std::uint64_t v3_delta = 0;
  std::uint64_t total() const { return v2_full + v3_full + v3_delta; }
};

FormatBytes read_format_bytes(telemetry::MetricsRegistry& metrics,
                              const std::string& name) {
  FormatBytes out;
  out.v2_full =
      metrics.counter(name, {{"format", "v2"}, {"kind", "full"}}).value();
  out.v3_full =
      metrics.counter(name, {{"format", "v3"}, {"kind", "full"}}).value();
  out.v3_delta =
      metrics.counter(name, {{"format", "v3"}, {"kind", "delta"}}).value();
  return out;
}

void write_format_bytes(bench::JsonWriter& json, const char* key,
                        const FormatBytes& bytes) {
  json.key(key);
  json.begin_object();
  json.field("v2_full", bytes.v2_full);
  json.field("v3_full", bytes.v3_full);
  json.field("v3_delta", bytes.v3_delta);
  json.end_object();
}

struct Cell {
  std::size_t sessions;
  unsigned workers;
  std::uint64_t total_samples = 0;
  std::uint64_t wall_us = 0;
  std::uint64_t lru_evictions = 0;
  std::uint64_t restores = 0;
  FormatBytes park_bytes;
  FormatBytes restore_bytes;
  PhaseStats phases[kPhaseCount];
  bool verified = false;
};

bool run_cell(std::size_t sessions, unsigned workers, Cell* out) {
  serve::ServerOptions options;
  options.max_hot = kMaxHot;
  options.workers = workers;
  options.max_queue = sessions;  // one in-flight Step per session fits
  serve::LoopbackTransport transport(options);

  std::vector<serve::SessionId> ids(sessions);
  std::vector<serve::SessionSpec> specs(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    specs[i] = spec_for(i);
    serve::Request req;
    req.type = serve::RequestType::kCreateSession;
    req.spec = specs[i];
    const serve::Response resp = transport.call(req);
    if (resp.status != serve::Status::kOk) {
      std::cerr << "create failed: " << resp.error << "\n";
      return false;
    }
    ids[i] = resp.session;
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t total_samples = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Post the whole round before waiting: the queue holds one Step per
    // session, so every pump batches kMaxHot sessions across workers.
    std::vector<serve::Ticket> tickets(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      serve::Request req;
      req.type = serve::RequestType::kStep;
      req.session = ids[i];
      req.steps = kSteps;
      tickets[i] = transport.post(req);
    }
    for (std::size_t i = 0; i < sessions; ++i) {
      const serve::Response resp = transport.wait(tickets[i]);
      if (resp.status != serve::Status::kOk) {
        std::cerr << "step failed: " << resp.error << "\n";
        return false;
      }
      if (round + 1 == kRounds) total_samples += resp.samples;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Correctness gate: first, middle, and last session must byte-match a
  // standalone replay.
  for (const std::size_t i :
       {std::size_t{0}, sessions / 2, sessions - 1}) {
    serve::Request req;
    req.type = serve::RequestType::kSnapshot;
    req.session = ids[i];
    const serve::Response resp = transport.call(req);
    if (resp.status != serve::Status::kOk ||
        resp.snapshot != standalone_snapshot(specs[i])) {
      std::cerr << "cell " << sessions << "x" << workers << ": session "
                << ids[i] << " diverged from standalone replay\n";
      return false;
    }
  }

  out->sessions = sessions;
  out->workers = workers;
  out->total_samples = total_samples;
  out->wall_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
          .count());
  out->lru_evictions = transport.server().sessions().lru_evictions();
  out->restores = transport.server().sessions().restores();
  // Per-phase latency from the server's own histograms (finish()
  // populates them on the control thread, so the totals are settled once
  // every wait() returned).
  telemetry::MetricsRegistry& metrics = transport.server().metrics();
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const telemetry::Histogram& h =
        metrics.histogram("qtserve_phase_us", {{"phase", kPhases[p]}});
    out->phases[p].count = h.count();
    out->phases[p].p50 = telemetry::histogram_percentile_upper_bound(h, 0.50);
    out->phases[p].p95 = telemetry::histogram_percentile_upper_bound(h, 0.95);
    out->phases[p].p99 = telemetry::histogram_percentile_upper_bound(h, 0.99);
  }
  out->park_bytes = read_format_bytes(metrics, "qtserve_park_bytes_total");
  out->restore_bytes =
      read_format_bytes(metrics, "qtserve_restore_bytes_total");
  out->verified = true;
  return true;
}

bool check_overload_semantics() {
  serve::ServerOptions options;
  options.max_hot = 4;
  options.workers = 2;
  options.max_queue = 8;
  serve::LoopbackTransport transport(options);

  constexpr std::size_t kSessions = 16;
  std::vector<serve::SessionId> ids(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    serve::Request req;
    req.type = serve::RequestType::kCreateSession;
    req.spec = spec_for(i);
    ids[i] = transport.call(req).session;
  }

  // 16 posts against a bound of 8, no pump in between: admission is
  // decided at submit time, so exactly 8 must be refused.
  std::vector<serve::Ticket> tickets(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    serve::Request req;
    req.type = serve::RequestType::kStep;
    req.session = ids[i];
    req.steps = 64;
    tickets[i] = transport.post(req);
  }
  std::size_t ok = 0, overloaded = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const serve::Response resp = transport.wait(tickets[i]);
    if (resp.status == serve::Status::kOk) ++ok;
    if (resp.status == serve::Status::kOverloaded) ++overloaded;
  }
  if (ok != options.max_queue || overloaded != kSessions - options.max_queue) {
    std::cerr << "overload gate: expected " << options.max_queue << " ok / "
              << (kSessions - options.max_queue) << " overloaded, got "
              << ok << " / " << overloaded << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main() {
  const std::size_t session_counts[] = {4, 16, 64};
  const unsigned worker_counts[] = {1, 2, 4};

  std::vector<Cell> cells;
  for (const std::size_t sessions : session_counts) {
    for (const unsigned workers : worker_counts) {
      Cell cell;
      if (!run_cell(sessions, workers, &cell)) return 1;
      const double rate =
          cell.wall_us == 0
              ? 0.0
              : static_cast<double>(cell.total_samples) * 1e6 /
                    static_cast<double>(cell.wall_us);
      std::cout << "sessions=" << sessions << " workers=" << workers
                << " hot=" << kMaxHot << ": " << cell.total_samples
                << " samples in " << cell.wall_us << " us ("
                << format_double(rate, 0) << " samples/s, "
                << cell.lru_evictions << " evictions, " << cell.restores
                << " restores) [bit-exact]\n";
      std::cout << "  phase p50/p95/p99 us:";
      for (std::size_t p = 0; p < kPhaseCount; ++p) {
        std::cout << " " << kPhases[p] << "<=" << cell.phases[p].p50 << "/"
                  << cell.phases[p].p95 << "/" << cell.phases[p].p99 << "(n="
                  << cell.phases[p].count << ")";
      }
      std::cout << "\n";
      std::cout << "  park bytes v2_full/v3_full/v3_delta: "
                << cell.park_bytes.v2_full << "/" << cell.park_bytes.v3_full
                << "/" << cell.park_bytes.v3_delta
                << "  restore bytes: " << cell.restore_bytes.v2_full << "/"
                << cell.restore_bytes.v3_full << "/"
                << cell.restore_bytes.v3_delta << "\n";
      cells.push_back(cell);
    }
  }
  if (!check_overload_semantics()) return 1;
  std::cout << "overload gate: 16 posts vs bound 8 -> 8 ok + 8 refused\n";

  bench::JsonWriter json;
  json.begin_object();
  bench::write_bench_meta(json);
  json.field("bench", "serve");
  json.field("max_hot", static_cast<std::uint64_t>(kMaxHot));
  json.field("rounds", static_cast<std::uint64_t>(kRounds));
  json.field("steps_per_round", kSteps);
  json.key("cells");
  json.begin_array();
  for (const Cell& cell : cells) {
    json.begin_object();
    json.field("sessions", static_cast<std::uint64_t>(cell.sessions));
    json.field("workers", static_cast<std::uint64_t>(cell.workers));
    json.field("total_samples", cell.total_samples);
    json.field("wall_us", cell.wall_us);
    json.field("samples_per_sec",
               cell.wall_us == 0
                   ? 0.0
                   : static_cast<double>(cell.total_samples) * 1e6 /
                         static_cast<double>(cell.wall_us));
    json.field("lru_evictions", cell.lru_evictions);
    json.field("restores", cell.restores);
    write_format_bytes(json, "park_bytes", cell.park_bytes);
    write_format_bytes(json, "restore_bytes", cell.restore_bytes);
    json.key("phases");
    json.begin_object();
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      json.key(kPhases[p]);
      json.begin_object();
      json.field("count", cell.phases[p].count);
      json.field("p50_us", cell.phases[p].p50);
      json.field("p95_us", cell.phases[p].p95);
      json.field("p99_us", cell.phases[p].p99);
      json.end_object();
    }
    json.end_object();
    json.field("bit_exact", cell.verified);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  if (!json.write_file("BENCH_serve.json")) {
    std::cerr << "failed to write BENCH_serve.json\n";
    return 1;
  }
  std::cout << "wrote BENCH_serve.json\n";
  return 0;
}
