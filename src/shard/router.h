// Router: the qtrouterd core, transport-agnostic (like serve::Server
// is to qtserved).
//
// The router sits in front of N qtserved workers ("shards"), each a
// separate process speaking ordinary QTSERVE-WIRE over its own TCP
// connection, and presents the same wire protocol to clients — one
// logical qtserved with the capacity of the fleet. docs/sharding.md is
// the full design document; the short version:
//
//   placement   Session ids are router-allocated. A new session lands
//               where the consistent-hash ring (shard/hash_ring.h)
//               puts its id and is pinned there; ring changes never
//               move a live session, migrations repoint the pin.
//   proxying    Data-plane frames are forwarded VERBATIM — trace_id /
//               parent_span ride through untouched, and the worker's
//               response bytes go back to the client unmodified. The
//               router decodes (never rewrites) responses for its own
//               bookkeeping. Each worker answers one connection's
//               requests in arrival order, so a per-shard FIFO of
//               pending replies gives exact request/response
//               correlation; per-client sequence numbers then restore
//               each client's arrival order when its requests fanned
//               out across shards.
//   migration   migrate(session, target) quiesces the session by
//               enqueuing MigrateOut behind its staged work (FIFO),
//               ships the returned image to the target via MigrateIn,
//               then atomically repoints the pin and flushes requests
//               held while the session was in flight. Bit-invisible to
//               clients: the image restores byte-identically (the
//               snapshot invariant, docs/runtime.md), and ordering is
//               preserved by the hold queue. A dead target rolls the
//               image back onto the source; a second migrate of an
//               in-flight session is refused.
//   failover    The router keeps, per session, the last checkpoint
//               image ("parked") plus a replay log of every
//               session-scoped request forwarded since. When a shard
//               dies, each of its sessions is adopted onto a survivor
//               from the parked image and the log is re-forwarded in
//               order — already-answered requests as absorb entries
//               whose responses are swallowed, unanswered ones
//               re-attached to their waiting clients. Deterministic
//               engines make the reconstruction bit-exact. Checkpoints
//               are router-injected Snapshot requests every
//               checkpoint_every forwards (migrations double as free
//               checkpoints).
//   drain       drain(shard) removes the shard from placement,
//               migrates every resident session to ring-chosen
//               survivors, and shuts the empty worker down.
//
// Threading: none. The router is single-threaded event-driven — the
// owner (qtrouterd's poll loop, or LocalCluster in tests) calls the
// on_* methods from one thread and ships bytes via the RouterHost
// callbacks. No mutex, same confinement discipline as serve::Server.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "shard/hash_ring.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"

namespace qta::shard {

using ClientId = std::uint64_t;

/// How Router bytes reach the world. Payloads are raw QTSERVE-WIRE
/// payloads (no length prefix); the host owns framing and sockets.
/// send_to_shard is only ever called for shards announced via
/// add_shard() and not yet failed/removed.
class RouterHost {
 public:
  virtual ~RouterHost() = default;
  virtual void send_to_client(ClientId client, std::string payload) = 0;
  virtual void send_to_shard(ShardId shard, std::string payload) = 0;
};

struct RouterOptions {
  /// Ring vnodes per shard.
  unsigned vnodes = 64;
  /// Inject a checkpoint (Snapshot) after this many session-scoped
  /// forwards per session, bounding the failover replay log. 0 = only
  /// migration-time checkpoints (the log then grows until one).
  unsigned checkpoint_every = 64;
  /// Auto-migrate a session to the next ring shard after this many
  /// Step forwards (the qtclient --verify "force a migration mid-run"
  /// hook; also exercises the machinery continuously in soaks). 0 =
  /// never.
  unsigned migrate_every = 0;
  /// Router flight-recorder ring (migration/failover events); 0
  /// disables.
  std::size_t flight_recorder_capacity = 256;
};

class Router {
 public:
  Router(const RouterOptions& options, RouterHost* host);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // --- topology (host-driven) ---

  /// Announces a connected worker. Joins the ring immediately.
  void add_shard(ShardId shard);
  /// The shard died (connection error/EOF): fail over its sessions
  /// onto survivors. Idempotent.
  void on_shard_failed(ShardId shard);

  // --- event input (host-driven) ---

  void on_client_payload(ClientId client, std::string payload);
  void on_client_closed(ClientId client);
  void on_shard_payload(ShardId shard, std::string payload);

  // --- control plane (HTTP routes / tests) ---

  /// Starts migrating `session` to `target`. False when the session or
  /// target is unknown, the target is the current owner or draining,
  /// or a migration is already in flight.
  bool migrate(serve::SessionId session, ShardId target);
  /// Starts draining `shard`: new placement avoids it, every resident
  /// session migrates away, and the empty worker gets a Shutdown.
  bool drain(ShardId shard);
  /// Injects a checkpoint for every session whose replay log is
  /// non-empty (the HTTP /checkpoint route).
  void checkpoint_all();

  // --- introspection ---

  /// Topology + counters as JSON (the Shards probe / HTTP /shards).
  std::string shards_json() const;
  bool shutdown_requested() const { return shutdown_; }
  /// Whether the router still holds `shard`: false once it failed, or
  /// once its drain completed.
  bool has_shard(ShardId shard) const { return shards_.contains(shard); }
  /// Sessions currently owned by `shard` (draining/failover math).
  std::size_t sessions_on(ShardId shard) const;
  /// The ids of sessions owned by `shard` and not already moving, in
  /// ascending order — the rebalancer's pick list.
  std::vector<serve::SessionId> sessions_of(ShardId shard) const;
  std::size_t session_count() const { return sessions_.size(); }
  std::uint64_t migrations() const { return migrations_; }
  std::uint64_t failovers() const { return failovers_; }
  std::uint64_t rollbacks() const { return rollbacks_; }
  std::uint64_t checkpoints() const { return checkpoints_; }

  telemetry::MetricsRegistry& metrics() { return metrics_; }
  telemetry::FlightRecorder* flight() { return flight_.get(); }
  const HashRing& ring() const { return ring_; }
  /// Lets qtrouterd surface scraped per-worker hot counts through the
  /// router's own qtserve_sessions_hot gauge (qtclient --top parity).
  void set_hot_sessions(double hot);

 private:
  /// One expected response on a shard's FIFO. The worker answers its
  /// connection in request order, so front-of-FIFO is always the next
  /// response's identity.
  struct PendingReply {
    enum class Kind {
      kForward,       // a client request proxied verbatim
      kCheckpoint,    // router-injected Snapshot (log pruning)
      kMigrateOut,    // migration step 1: export from the source
      kMigrateIn,     // adopt: migration step 2 / rollback / failover /
                      // router-side CreateSession
      kReplayAbsorb,  // failover re-execution of an already-answered
                      // request; response swallowed
      kShutdown,      // drain completion; response swallowed
    };
    Kind kind = Kind::kForward;
    serve::SessionId session = 0;
    bool has_client = false;
    ClientId client = 0;
    std::uint64_t seq = 0;  // client-order slot (has_client only)
    /// kMigrateIn: the full encoded request, kept so a dead target's
    /// adopt can be re-sent to the rollback/failover destination.
    /// kForward: empty — the replay log owns the client bytes.
    std::string request_payload;
    /// kMigrateIn: finishing this adopt must replay the session's log
    /// onto the answering shard (failover) instead of clearing it
    /// (migration/create).
    bool replay_log = false;
    /// kCheckpoint: log entries with index < mark are covered by the
    /// snapshot in this reply.
    std::uint64_t mark = 0;
    /// kMigrateOut: where the exported image should land.
    ShardId target = 0;
    std::uint64_t submit_us = 0;  // proxy-hop latency measurement
  };

  /// A session-scoped request forwarded since the last checkpoint; the
  /// failover replay unit.
  struct LogEntry {
    std::uint64_t index = 0;  // monotone per session, survives pruning
    std::string payload;
    bool has_client = false;
    ClientId client = 0;
    std::uint64_t seq = 0;
    bool responded = false;
  };

  struct SessionState {
    ShardId shard = 0;
    serve::SessionSpec spec;
    /// Migration/failover in flight: requests hold in `held` until the
    /// adopt lands.
    bool moving = false;
    std::string parked;  // encoded MigrationImage at last checkpoint;
                         // "" = reconstruct from spec (fresh)
    std::deque<LogEntry> log;
    std::uint64_t next_log_index = 0;
    std::deque<std::pair<std::string, PendingReply>> held;  // payload+identity
    unsigned forwards_since_checkpoint = 0;
    unsigned steps_since_move = 0;
    bool checkpoint_inflight = false;
    /// A MigrateIn for this session sits on adopt_dest's FIFO (so a
    /// source-shard death must NOT double-adopt: the in-flight image is
    /// fresher than `parked`).
    bool adopt_inflight = false;
    ShardId adopt_dest = 0;
  };

  struct ClientState {
    std::uint64_t next_seq = 0;      // assigned at request arrival
    std::uint64_t next_deliver = 0;  // flushed up to here
    std::map<std::uint64_t, std::string> ready;  // out-of-order holds
  };

  struct ShardState {
    bool draining = false;
    std::deque<PendingReply> fifo;
  };

  // Request intake.
  void handle_create(ClientId client, std::uint64_t seq,
                     const serve::Request& req);
  void route_session_request(ClientId client, std::uint64_t seq,
                             const serve::Request& req,
                             std::string payload);
  void forward(SessionState& s, serve::SessionId id, std::string payload,
               bool has_client, ClientId client, std::uint64_t seq);
  void maybe_checkpoint(SessionState& s, serve::SessionId id);
  void maybe_auto_migrate(SessionState& s, serve::SessionId id);

  // Response plumbing.
  void handle_shard_response(ShardId shard, PendingReply& pending,
                             std::string payload);
  void finish_adopt(ShardId shard, PendingReply& pending,
                    const serve::Response& resp, std::string payload);
  void respond_locally(ClientId client, std::uint64_t seq,
                       const serve::Response& resp);
  void deliver(ClientId client, std::uint64_t seq, std::string payload);
  void flush_held(serve::SessionId id, SessionState& s);

  // Migration/failover steps.
  void send_adopt(ShardId target, serve::SessionId id, std::string encoded,
                  bool replay_log);
  void begin_failover(serve::SessionId id, SessionState& s);
  std::optional<ShardId> pick_alive(std::uint64_t key) const;
  /// The next live, non-draining shard after `current` in ascending id
  /// order, wrapping — the auto-migrate target choice.
  std::optional<ShardId> next_shard_after(ShardId current) const;
  /// Error-responds everything waiting on the session and removes it
  /// (the no-survivors / unrecoverable paths).
  void abandon_session(serve::SessionId id, SessionState& s,
                       const char* why);
  void maybe_finish_drain(ShardId shard);
  void record_flight(telemetry::ServeEventKind kind, serve::SessionId id,
                     const char* label, std::uint64_t value);
  std::uint64_t now_us() const;
  void observe_latency(const PendingReply& pending, const char* type_name);

  RouterOptions options_;
  RouterHost* host_;
  telemetry::MetricsRegistry metrics_;
  std::unique_ptr<telemetry::FlightRecorder> flight_;
  HashRing ring_;
  std::map<ShardId, ShardState> shards_;
  std::map<serve::SessionId, SessionState> sessions_;
  std::map<ClientId, ClientState> clients_;
  serve::SessionId next_session_ = 1;
  bool shutdown_ = false;
  std::chrono::steady_clock::time_point epoch_;

  std::uint64_t migrations_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t checkpoints_ = 0;

  // Instrument handles (eagerly registered; docs/sharding.md catalog).
  telemetry::Counter* requests_by_type_[12] = {};
  telemetry::Counter* overloads_relayed_ = nullptr;
  telemetry::Counter* migrations_counter_ = nullptr;
  telemetry::Counter* migration_aborts_ = nullptr;
  telemetry::Counter* failovers_counter_ = nullptr;
  telemetry::Counter* failover_sessions_ = nullptr;
  telemetry::Counter* rollbacks_counter_ = nullptr;
  telemetry::Counter* checkpoints_counter_ = nullptr;
  telemetry::Gauge* shards_gauge_ = nullptr;
  telemetry::Gauge* sessions_live_ = nullptr;
  telemetry::Gauge* sessions_hot_ = nullptr;
  telemetry::Gauge* sessions_moving_ = nullptr;
};

}  // namespace qta::shard
