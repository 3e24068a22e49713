// Server: the qtserved core, transport-agnostic.
//
// Execution model (docs/serving.md has the full walkthrough):
//   - submit() runs on the control thread. Control-plane requests
//     (CreateSession, Stats, Ping, Shutdown) and rejections (unknown
//     session, admission-control overload) complete immediately; the
//     session-scoped rest (Step, Query, Snapshot, Evict, Close) stage
//     in the RequestQueue behind the same session's earlier requests.
//   - pump() executes one batch: it pops at most one staged request per
//     session (round-robin, capped at the hot-slot count so no batch
//     member can be evicted mid-batch), executes Evict/Close inline,
//     acquires engines for the rest — restoring cold sessions through
//     the snapshot layer — and runs them on the ThreadPool. Step
//     requests for lane-backed sessions with compatible configs are
//     coalesced into one LaneEngine group per batch (one pool item
//     advancing all of them in the lane round loop; see
//     runtime/lane_coalescer.h);
//     everything else runs one worker item per session. Workers only
//     touch their own unit's engines and response slots; every
//     queue/LRU/metrics-map mutation stays on the control thread.
//   - Responses are retrieved by ticket: done(t), then take(t).
//
// Lock discipline: the server itself holds no mutex — all shared-state
// mutation is confined to the control thread, and cross-thread work
// only flows through ThreadPool::parallel_for (whose internal locking
// is verified by clang's thread-safety analysis; common/annotations.h).
// Workers read/write disjoint batch slots, which TSan checks in the
// serve_churn tests. The qtlint mutex-annotation rule ensures any
// future lock in this layer arrives annotated and analysis-checked.
//
// Backpressure: a session request that arrives while RequestQueue holds
// `max_queue` staged requests is answered kOverloaded immediately.
// Nothing is buffered inside Server beyond that bound, so the Server's
// own memory stays bounded no matter how fast clients push. The daemon
// around it is not yet bounded: SocketLoop's per-connection output
// buffers (serve/socket_loop.h) have no cap, so a client that pipelines
// requests and never reads its replies grows qtserved by one reply per
// request.
//
// Telemetry (metric catalog in docs/serving.md): request/overload/error
// counters, queue-depth / batch-size log2 histograms, request latency
// split by type and hot/restore/inline path, per-phase durations
// (qtserve_phase_us), live/hot session gauges, plus the
// SessionManager's reason-labelled eviction/restore counters — all in
// the server-owned MetricsRegistry, which per-session engine sinks
// share. With ServerOptions.trace set, every completed request lands as
// a Perfetto span chain (admission → queue → acquire → execute → reply
// on the session's track, lane-group spans on their own track), and
// unless flight_recorder_capacity is 0 the last N request / eviction /
// overload events stay dumpable through the flight recorder
// (telemetry/flight_recorder.h) — both observation-only: the
// observability-off differential in tests/serve_test.cpp pins that
// neither changes a single engine byte.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "serve/protocol.h"
#include "serve/request_queue.h"
#include "serve/session_manager.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qta::serve {

struct ServerOptions {
  /// Resident engines (SessionManager LRU capacity); also the batch cap.
  unsigned max_hot = 8;
  /// ThreadPool workers executing a batch.
  unsigned workers = 4;
  /// Admission bound on staged session requests.
  std::size_t max_queue = 64;
  /// Record Perfetto spans: one enclosing span per completed request
  /// plus its lifecycle children (admission, queue, acquire, execute,
  /// reply) on the session's track.
  bool trace = false;
  /// Flight-recorder ring capacity (telemetry/flight_recorder.h); 0
  /// disables it entirely. The default keeps the last 256 request /
  /// eviction / overload events dumpable via Introspect or the HTTP
  /// /flightrecorder route at a few stores per request.
  std::size_t flight_recorder_capacity = 256;
};

using Ticket = std::uint64_t;

class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Accepts one request and returns its ticket. The response may be
  /// ready immediately (control plane / rejection) or after pump()s.
  Ticket submit(const Request& req);

  bool done(Ticket ticket) const { return done_.count(ticket) != 0; }
  /// Takes a completed response; aborts on unknown/unfinished tickets.
  Response take(Ticket ticket);

  /// Executes one batch of staged requests. Returns true while staged
  /// work remains.
  bool pump();
  /// pump() until the queue is empty.
  void drain();

  bool pending() const { return !queue_.empty(); }
  /// Set once a Shutdown request was accepted; the transport frontend
  /// is expected to stop accepting, drain(), and exit.
  bool shutdown_requested() const { return shutdown_; }

  telemetry::MetricsRegistry& metrics() { return metrics_; }
  const telemetry::TraceSession* trace() const { return trace_.get(); }
  /// The flight recorder, or null when disabled (capacity 0).
  telemetry::FlightRecorder* flight() { return flight_.get(); }
  SessionManager& sessions() { return sessions_; }
  const ServerOptions& options() const { return options_; }

 private:
  void finish(const QueuedRequest& qr, Response resp);
  Response execute(const Request& req, runtime::Engine& engine);
  Response introspect(const Request& req);
  void emit_spans(const QueuedRequest& qr, std::uint64_t end_us);
  void update_gauges();
  std::uint64_t now_us() const;

  ServerOptions options_;
  telemetry::MetricsRegistry metrics_;
  std::unique_ptr<telemetry::TraceSession> trace_;  // null unless opted in
  std::unique_ptr<telemetry::FlightRecorder> flight_;  // null iff capacity 0
  SessionManager sessions_;
  RequestQueue queue_;
  ThreadPool pool_;
  std::map<Ticket, Response> done_;
  Ticket next_ticket_ = 1;
  bool shutdown_ = false;
  std::chrono::steady_clock::time_point epoch_;

  // Instrument handles, resolved once at construction.
  telemetry::Counter* requests_by_type_[12] = {};
  telemetry::Counter* overloads_ = nullptr;
  telemetry::Counter* errors_ = nullptr;
  telemetry::Counter* sessions_created_ = nullptr;
  telemetry::Counter* sessions_closed_ = nullptr;
  telemetry::Gauge* sessions_live_ = nullptr;
  telemetry::Gauge* sessions_hot_ = nullptr;
  telemetry::Histogram* queue_depth_ = nullptr;
  telemetry::Histogram* batch_size_ = nullptr;
  // qtserve_request_latency_us{type=...,path=hot|restore|inline} and
  // qtserve_phase_us{phase=...} series are resolved lazily in finish()
  // (control thread only) — the label cross product is created on
  // demand, not eagerly as empty series.
};

}  // namespace qta::serve
