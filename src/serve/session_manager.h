// SessionManager: an unbounded set of logical learner sessions mapped
// onto a bounded set of resident (hot) runtime backends.
//
// A session is a SessionSpec (the config fingerprint, fixed at create
// time) plus machine state. The state lives in exactly one of two
// places:
//   hot  — a live runtime::Engine on one of the manager's `max_hot`
//          resident slots;
//   cold — a checkpoint chain: one full base image plus zero or more
//          v3 dirty-row deltas, each serializing only the rows touched
//          since the previous checkpoint (runtime/snapshot.h). Parks
//          always write v3; a base arrives as v2 text only when an
//          adopted image carried one (the router's failover
//          checkpoints are Snapshot replies). An empty chain means the
//          session never ran: restoring it is just a fresh engine,
//          which is bit-identical by construction. Chains are compacted
//          back to a single full image once they reach kMaxDeltaChain
//          deltas (or whenever a delta would not be smaller than a full
//          image).
//
// acquire() is the only path that makes a session hot; when all slots
// are taken it evicts the least-recently-used hot session through the
// snapshot layer. Because snapshot round trips are bit-exact for full
// images AND base+delta chains (docs/runtime.md), an evict/restore
// cycle between run_samples calls is invisible to the session: tables,
// stats, RNG registers, and telemetry counters continue exactly as if
// the engine had stayed resident (proven by tests/serve_test.cpp and
// serve_churn_test.cpp).
//
// Parking is staged: make_cold never serializes inline. It stages a
// PendingPark — the engine stays alive on the session, off the LRU,
// read-only — and the caller runs serialize_park() on worker threads
// before commit_parks() back on the control thread stores the blob and
// tears the engine down. The server overlaps park serialization with
// batch execution this way; direct users call flush_parks() to
// serialize and commit everything staged.
//
// Per-session telemetry: when spec.telemetry is set, the session owns a
// PipelineTelemetry sink (labelled with the session id on the `pipe`
// label) that aggregates into the manager's MetricsRegistry. The sink
// outlives evictions — it is reattached on restore — so its counters
// span the session's whole life, not one residency.
//
// Threading: the manager itself is control-plane single-threaded (the
// server mutates it only between batches). Worker threads may touch the
// *engines* of distinct acquired sessions concurrently; they never call
// the manager. Because confinement — not locking — is the discipline
// here, this class deliberately owns NO mutex for clang's thread-safety
// analysis to find (common/annotations.h, docs/static_analysis.md): the
// qtlint mutex-annotation rule guarantees that if a lock is ever added
// to this file it must arrive annotated, and the analysis then checks
// every access. Until then the single-caller contract is the invariant;
// tests/serve_churn_test.cpp exercises it under the TSan preset.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "env/grid_world.h"
#include "runtime/engine.h"
#include "serve/protocol.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/pipeline_telemetry.h"

namespace qta::serve {

class SessionManager {
 public:
  /// Compaction bound: a park writes a full image once the cold chain
  /// holds this many deltas, so restore cost stays O(base + 4 deltas).
  static constexpr std::size_t kMaxDeltaChain = 4;

  /// A staged eviction: the session's engine stays alive (read-only,
  /// off the LRU) until the blob is serialized and committed. The
  /// delta/full decision is made at enqueue time on the control thread
  /// (from dirty_row_count() byte estimates); serialize_park() only
  /// renders v3 bytes, so distinct PendingParks are safe to serialize
  /// concurrently.
  struct PendingPark {
    SessionId id = 0;
    runtime::Engine* engine = nullptr;  // owned by the session, not us
    bool delta = false;
    std::string blob;             // filled by serialize_park
    std::uint64_t serialize_us = 0;  // filled by serialize_park
    int reason = 0;               // EvictReason, opaque to workers
  };

  /// `max_hot` bounds resident engines (>= 1). `metrics` may be null
  /// (no per-session telemetry, no eviction counters), as may `flight`
  /// (no eviction/restore flight-recorder events); both must outlive
  /// the manager.
  SessionManager(unsigned max_hot, telemetry::MetricsRegistry* metrics,
                 telemetry::FlightRecorder* flight = nullptr);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Registers a session for `spec` (the caller has validated it) and
  /// returns its id. Cheap: no engine is built until first acquire().
  SessionId create(const SessionSpec& spec);

  /// Ensures the session is hot (restoring from its cold snapshot and
  /// evicting the LRU resident session if needed) and returns its
  /// engine; nullptr for an unknown/closed id. Touches the LRU: the
  /// `max_hot` most recently acquired sessions are never evicted by a
  /// later acquire, so a caller may hold up to `max_hot` engines at
  /// once (the server's batch bound). When `restored` is non-null it is
  /// set to whether THIS call rebuilt the engine from a non-empty cold
  /// snapshot (false for hot hits and never-ran sessions) — the
  /// hot/restore path label on the server's latency metrics.
  runtime::Engine* acquire(SessionId id, bool* restored = nullptr);

  /// Takes the session out of the hot set now and stages its park; the
  /// snapshot is written and the engine torn down at the next
  /// commit_parks() / flush_parks(). Returns false for unknown ids; a
  /// no-op for sessions already cold or staged.
  bool evict(SessionId id);

  /// Destroys the session entirely. Returns false for unknown ids.
  bool close(SessionId id);

  bool exists(SessionId id) const { return sessions_.count(id) != 0; }
  bool is_hot(SessionId id) const;
  const SessionSpec* spec(SessionId id) const;

  /// The session's current machine state as QTACCEL-SNAPSHOT v2 text
  /// (serialized live for hot sessions; materialized on demand from the
  /// cold base+delta chain for cold ones, so clients always see v2 text;
  /// "" for a fresh session that never ran).
  /// Flushes any pending parks first. Unknown id aborts — gate on
  /// exists().
  std::string snapshot_text(SessionId id);

  /// Parking surface. pending_parks() exposes the staged queue so a
  /// caller can fan serialize_park() out across worker threads — items
  /// are independent; each worker must touch only its own element —
  /// then commit_parks() on the control thread stores blobs, tears down
  /// engines, and attributes counters. flush_parks() does both inline.
  std::vector<PendingPark>& pending_parks() { return pending_parks_; }
  static void serialize_park(PendingPark& park);
  void commit_parks();
  void flush_parks();

  std::size_t size() const { return sessions_.size(); }
  unsigned hot_count() const {
    return static_cast<unsigned>(lru_.size());
  }
  unsigned capacity() const { return max_hot_; }

  /// Capacity evictions performed since construction (the LRU tail
  /// being pushed out by acquire; explicit evict() is not counted).
  std::uint64_t lru_evictions() const { return lru_evictions_; }
  std::uint64_t restores() const { return restores_; }

  /// One session's state summary as a JSON object (the Introspect
  /// kSession payload; docs/serving.md documents the shape). Unknown
  /// id aborts — gate on exists().
  std::string summary_json(SessionId id) const;

  /// Migration surface (docs/sharding.md): export_session packs the
  /// session's portable state into `image` and removes the session.
  /// A hot session is parked inline first (reason "migrate", never
  /// staged — the image must be complete when this returns); the chain
  /// then moves VERBATIM (base + deltas ship as-is, no engine is built
  /// and nothing inflates to v2 text). A never-ran session exports an
  /// empty-base (fresh) image. Returns false for unknown ids, leaving
  /// `image` untouched.
  bool export_session(SessionId id, MigrationImage* image);

  /// The receiving half: registers `id` holding the image's chain as
  /// its cold state. Pure bookkeeping — no engine is built until first
  /// acquire(), so adopting N cold sessions costs what parking them
  /// did. Returns "" on success or a diagnostic (zero/duplicate id,
  /// invalid spec, bytes that are not snapshot material); full chain
  /// validation happens at restore like any other cold chain. Keeps
  /// create()'s id allocator ahead of adopted ids so the two can
  /// interleave.
  std::string adopt_session(SessionId id, const MigrationImage& image);

  std::uint64_t exports() const { return exports_; }
  std::uint64_t adopts() const { return adopts_; }

 private:
  /// A cold session's checkpoint chain: one full base image (v2 text or
  /// v3 binary, sniffed by the snapshot layer) plus v3 deltas in apply
  /// order. Empty base = never made hot.
  struct ColdChain {
    std::string base;
    std::vector<std::string> deltas;
    bool base_is_v3 = false;
    bool empty() const { return base.empty(); }
    std::size_t bytes() const {
      std::size_t n = base.size();
      for (const std::string& d : deltas) n += d.size();
      return n;
    }
    void clear() {
      base.clear();
      deltas.clear();
      base_is_v3 = false;
    }
  };

  struct Session {
    SessionSpec spec;
    qtaccel::PipelineConfig config;
    std::unique_ptr<env::GridWorld> env;
    std::unique_ptr<runtime::Engine> engine;  // non-null iff hot
    ColdChain cold;
    bool park_pending = false;  // engine alive but staged for parking
    std::unique_ptr<telemetry::PipelineTelemetry> sink;
    std::list<SessionId>::iterator lru_pos;  // valid iff hot
  };

  // Eviction attribution for qtserve_evictions_total{reason=...}: an
  // eviction lands under exactly ONE reason.
  //   kRequest — an explicit Evict request forced the session cold;
  //   kLru     — capacity pressure from an acquire making a never-ran
  //              session hot (fresh engine, nothing to restore);
  //   kRestore — capacity pressure from an acquire that was itself
  //              restoring a cold snapshot (previously this showed as
  //              "lru" while the same acquire also bumped restores,
  //              double-counting churn across the two reasons);
  //   kMigrate — export_session parking a hot session so its state can
  //              ship to another shard (not capacity pressure: excluded
  //              from lru_evictions()).
  enum class EvictReason { kRequest, kLru, kRestore, kMigrate };

  /// Stages a park of hot session `s` for `reason` (make_cold queues it,
  /// export_session renders it at once). Takes the session off the LRU.
  PendingPark stage_park(SessionId id, Session& s, EvictReason reason);
  void make_cold(SessionId id, Session& s, EvictReason reason);
  void make_hot(SessionId id, Session& s, bool* restored);
  /// Whether this park should be a v3 delta appended to the chain (vs a
  /// full image), from dirty_row_count() byte estimates and the
  /// compaction bound. Control-thread only; serializes nothing.
  bool should_park_delta(const Session& s) const;
  /// Stores a serialized blob on the session, tears the engine down,
  /// and attributes counters/flight events.
  void commit_park(PendingPark& park);
  /// Cancels a staged park for `id` (close/re-acquire races), leaving
  /// the engine alive. No counters fire — nothing happened.
  void cancel_pending_park(SessionId id);
  /// Decodes the cold chain (base + deltas) into the freshly built
  /// engine; counts restore bytes.
  void restore_chain(Session& s);
  /// Materializes v2 text from a cold chain without an engine.
  std::string chain_as_v2_text(const Session& s) const;

  unsigned max_hot_;
  telemetry::MetricsRegistry* metrics_;
  telemetry::FlightRecorder* flight_;
  std::map<SessionId, Session> sessions_;
  std::list<SessionId> lru_;  // front = least recently used, hot only
  std::vector<PendingPark> pending_parks_;
  SessionId next_id_ = 1;
  std::uint64_t lru_evictions_ = 0;
  std::uint64_t restores_ = 0;
  std::uint64_t exports_ = 0;
  std::uint64_t adopts_ = 0;
  telemetry::Counter* lru_eviction_counter_ = nullptr;
  telemetry::Counter* request_eviction_counter_ = nullptr;
  telemetry::Counter* restore_eviction_counter_ = nullptr;
  telemetry::Counter* migrate_eviction_counter_ = nullptr;
  telemetry::Counter* restore_counter_ = nullptr;
  telemetry::Counter* migrate_out_counter_ = nullptr;
  telemetry::Counter* migrate_in_counter_ = nullptr;
  // Park/restore byte accounting by {format, kind}. Parks are always
  // v3; a v2 base is only ever restored, from an adopted image.
  telemetry::Counter* park_bytes_v3_full_ = nullptr;
  telemetry::Counter* park_bytes_v3_delta_ = nullptr;
  telemetry::Counter* restore_bytes_v2_full_ = nullptr;
  telemetry::Counter* restore_bytes_v3_full_ = nullptr;
  telemetry::Counter* restore_bytes_v3_delta_ = nullptr;
  // Checkpoint serialization latency, observed at commit into the
  // server's qtserve_phase_us family under {phase=checkpoint}.
  telemetry::Histogram* checkpoint_phase_ = nullptr;
};

}  // namespace qta::serve
