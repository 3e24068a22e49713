// Sharding-tier contract tests (docs/sharding.md):
//   - HashRing: deterministic placement independent of insertion order,
//     distribution within bounds, minimal remap on membership change,
//     pins override raw placement.
//   - SessionManager migration surface: export/adopt round trips are
//     bit-exact, a cold session's v3 delta chain ships verbatim without
//     building an engine, and a v2 base (what router failover adopts)
//     takes v3 deltas and still ships verbatim.
//   - Worker-side MigrateOut/MigrateIn through a full serve::Server.
//   - Router end-to-end over LocalCluster: proxied lifecycle is
//     bit-identical to a standalone engine, live migration is invisible
//     mid-run, migrate-while-queued holds and replays in order, a
//     double migrate is refused, a dead migration target rolls back,
//     shard failure replays parked state bit-exactly, drain empties a
//     shard then shuts it down, and a Zipf-skewed stream over 48
//     sessions at 1, 2 and 4 shards stays bit-exact while it migrates.
//   - plan_rebalance / scrape_gauge planning helpers and the HTTP
//     plane's routes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "env/grid_world.h"
#include "rng/xoshiro.h"
#include "runtime/engine.h"
#include "runtime/snapshot.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session_manager.h"
#include "shard/hash_ring.h"
#include "shard/http_plane.h"
#include "shard/local_shard.h"
#include "shard/router.h"
#include "shard/shard_manager.h"
#include "telemetry/metrics.h"

namespace qta::shard {
namespace {

serve::SessionSpec small_spec(std::uint64_t seed = 7) {
  serve::SessionSpec spec;
  spec.width = 8;
  spec.height = 8;
  spec.actions = 4;
  spec.seed = seed;
  spec.max_episode_length = 64;
  return spec;
}

/// The standalone replay twin of a proxied session: the same spec run
/// with the same Step partitioning, snapshotted as v2 text.
std::string replay_snapshot(const serve::SessionSpec& spec,
                            const std::vector<std::uint64_t>& step_calls) {
  env::GridWorldConfig gc;
  gc.width = spec.width;
  gc.height = spec.height;
  gc.num_actions = spec.actions;
  env::GridWorld world(gc);
  runtime::Engine engine(world, serve::make_config(spec));
  for (const std::uint64_t steps : step_calls) {
    engine.run_samples(engine.stats().samples + steps);
  }
  std::ostringstream os;
  runtime::save_snapshot(engine, os);
  return os.str();
}

// --- HashRing -------------------------------------------------------

TEST(HashRing, PlacementIsDeterministicAndOrderIndependent) {
  HashRing forward(64);
  for (ShardId s = 0; s < 5; ++s) forward.add(s);
  HashRing backward(64);
  for (ShardId s = 5; s-- > 0;) backward.add(s);
  for (std::uint64_t key = 1; key <= 2000; ++key) {
    const auto a = forward.place(key);
    const auto b = backward.place(key);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(*a, *b) << "key " << key;
  }
  EXPECT_EQ(forward.shards(), (std::vector<ShardId>{0, 1, 2, 3, 4}));
}

TEST(HashRing, SpreadsSequentialKeysWithinBounds) {
  HashRing ring(64);
  for (ShardId s = 0; s < 4; ++s) ring.add(s);
  std::map<ShardId, unsigned> counts;
  const unsigned kKeys = 40000;
  for (std::uint64_t key = 1; key <= kKeys; ++key) {
    counts[*ring.place(key)]++;
  }
  // Fair share is 25%; 64 vnodes should hold every shard well within
  // [half, double] of it. (Deterministic hash, so this never flakes.)
  for (ShardId s = 0; s < 4; ++s) {
    EXPECT_GT(counts[s], kKeys / 8) << "shard " << s;
    EXPECT_LT(counts[s], kKeys / 2) << "shard " << s;
  }
  // Regression: vnode points are double-mixed so they never coincide
  // with mixed small keys. (With one round, shard 0's points equal
  // mix(replica) and every session id < vnodes lands on shard 0.)
  std::map<ShardId, unsigned> small;
  for (std::uint64_t key = 1; key <= 32; ++key) small[*ring.place(key)]++;
  EXPECT_GE(small.size(), 3u);
}

TEST(HashRing, MembershipChangeRemapsMinimally) {
  HashRing ring(64);
  for (ShardId s = 0; s < 3; ++s) ring.add(s);
  const unsigned kKeys = 10000;
  std::vector<ShardId> before(kKeys);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    before[key] = *ring.place(key);
  }
  ring.add(3);
  unsigned moved = 0;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const ShardId now = *ring.place(key);
    if (now != before[key]) {
      ++moved;
      // Every remapped key must land on the newcomer; survivors never
      // reshuffle among themselves.
      EXPECT_EQ(now, 3u) << "key " << key;
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, kKeys / 2);  // ~1/4 expected; never a wholesale move
  // Removing it again restores the original placement exactly.
  ring.remove(3);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_EQ(*ring.place(key), before[key]);
  }
}

TEST(HashRing, PinsOverridePlacementAndSurviveRemoval) {
  HashRing ring(64);
  ring.add(0);
  ring.add(1);
  std::uint64_t key = 1;
  while (*ring.place(key) != 0) ++key;  // a key that naturally lands on 0
  ring.pin(key, 1);
  EXPECT_EQ(*ring.lookup(key), 1u);
  EXPECT_EQ(*ring.place(key), 0u);  // raw placement ignores the pin
  // remove() leaves pins alone: the router owns session fate.
  ring.remove(1);
  EXPECT_EQ(*ring.lookup(key), 1u);
  EXPECT_EQ(ring.pinned(key), std::optional<ShardId>(1));
  ring.unpin(key);
  EXPECT_EQ(*ring.lookup(key), 0u);
  EXPECT_EQ(ring.pin_count(), 0u);
}

TEST(HashRing, EmptyRingPlacesNothing) {
  HashRing ring;
  EXPECT_FALSE(ring.place(1).has_value());
  ring.pin(5, 2);  // a pin still answers even with no members
  EXPECT_EQ(*ring.lookup(5), 2u);
  EXPECT_FALSE(ring.lookup(6).has_value());
}

// --- SessionManager export/adopt ------------------------------------

TEST(ShardMigration, HotExportAdoptsBitExact) {
  serve::SessionManager source(2, nullptr);
  const serve::SessionId id = source.create(small_spec(11));
  runtime::Engine* engine = source.acquire(id);
  ASSERT_NE(engine, nullptr);
  engine->run_samples(500);
  // run_samples overshoots to a batch boundary; the exact count is
  // whatever the engine retired.
  const std::uint64_t samples = engine->stats().samples;
  const std::string text = source.snapshot_text(id);

  serve::MigrationImage image;
  ASSERT_TRUE(source.export_session(id, &image));
  EXPECT_FALSE(source.exists(id));  // the state moved, it did not fork
  EXPECT_EQ(source.exports(), 1u);
  EXPECT_FALSE(image.base.empty());

  serve::SessionManager target(2, nullptr);
  ASSERT_EQ(target.adopt_session(id, image), "");
  EXPECT_EQ(target.adopts(), 1u);
  EXPECT_EQ(target.snapshot_text(id), text);
  // And it keeps running: the adopted engine is a live session.
  runtime::Engine* adopted = target.acquire(id);
  ASSERT_NE(adopted, nullptr);
  EXPECT_EQ(adopted->stats().samples, samples);
}

TEST(ShardMigration, ColdDeltaChainShipsVerbatimWithoutEngineBuild) {
  serve::SessionManager source(1, nullptr);
  const serve::SessionId a = source.create(small_spec(21));
  const serve::SessionId b = source.create(small_spec(22));
  // Build a base + delta chain on `a`: run, evict (full v3 park), run
  // again, evict (delta).
  source.acquire(a)->run_samples(300);
  source.acquire(b);  // max_hot=1: stages a full v3 park of `a`
  // Commit it now; otherwise acquire(a) would just cancel the staged
  // park and `a` would never go cold.
  source.flush_parks();
  runtime::Engine* hot = source.acquire(a);
  hot->run_samples(600);
  const std::uint64_t samples = hot->stats().samples;
  source.acquire(b);  // parks `a` again, this time as a delta
  const std::string text = source.snapshot_text(a);
  const std::uint64_t restores_before = source.restores();

  serve::MigrationImage image;
  ASSERT_TRUE(source.export_session(a, &image));
  // The satellite invariant: a cold session's chain moves AS-IS — v3
  // base, v3 delta, no engine build, nothing inflated to v2 text.
  EXPECT_TRUE(image.base_is_v3);
  EXPECT_EQ(image.deltas.size(), 1u);
  EXPECT_EQ(source.restores(), restores_before);

  serve::SessionManager target(2, nullptr);
  ASSERT_EQ(target.adopt_session(a, image), "");
  EXPECT_FALSE(target.is_hot(a));  // adoption is bookkeeping, not build
  EXPECT_EQ(target.snapshot_text(a), text);
  runtime::Engine* adopted = target.acquire(a);
  ASSERT_NE(adopted, nullptr);
  EXPECT_EQ(adopted->stats().samples, samples);
}

// What router failover hands a survivor: a session whose base is v2
// text (a Snapshot reply). Parking it after it runs appends a v3 delta
// to that v2 base; the mixed chain exports verbatim and still restores
// to its standalone twin's exact bytes on the next worker.
TEST(ShardMigration, V2BaseTakesV3DeltaAndShipsVerbatim) {
  const serve::SessionSpec spec = small_spec(31);
  serve::MigrationImage checkpoint;
  checkpoint.spec = spec;
  checkpoint.base = replay_snapshot(spec, {250});
  checkpoint.base_is_v3 = false;

  const serve::SessionId a = 5;
  serve::SessionManager source(1, nullptr);
  ASSERT_EQ(source.adopt_session(a, checkpoint), "");
  runtime::Engine* engine = source.acquire(a);
  ASSERT_NE(engine, nullptr);
  engine->run_samples(engine->stats().samples + 40);
  ASSERT_TRUE(source.evict(a));
  source.flush_parks();
  EXPECT_FALSE(source.is_hot(a));

  serve::MigrationImage image;
  ASSERT_TRUE(source.export_session(a, &image));
  EXPECT_FALSE(image.base_is_v3);
  EXPECT_EQ(image.base, checkpoint.base);  // the v2 base, untouched
  ASSERT_EQ(image.deltas.size(), 1u);      // plus one v3 delta
  EXPECT_EQ(image.deltas[0].rfind("QTACCEL-SNAPSHOT v3\n", 0), 0u);

  serve::SessionManager target(2, nullptr);
  ASSERT_EQ(target.adopt_session(a, image), "");
  EXPECT_EQ(target.snapshot_text(a), replay_snapshot(spec, {250, 40}));
  // Restoring the mixed chain into an engine resumes bit-exactly too.
  runtime::Engine* adopted = target.acquire(a);
  ASSERT_NE(adopted, nullptr);
  adopted->run_samples(adopted->stats().samples + 30);
  EXPECT_EQ(target.snapshot_text(a), replay_snapshot(spec, {250, 40, 30}));
}

TEST(ShardMigration, FreshSessionExportsEmptyBaseAndAdoptsAsCreate) {
  serve::SessionManager source(2, nullptr);
  const serve::SessionId id = source.create(small_spec(41));
  serve::MigrationImage image;
  ASSERT_TRUE(source.export_session(id, &image));
  EXPECT_TRUE(image.base.empty());
  EXPECT_TRUE(image.deltas.empty());

  serve::SessionManager target(2, nullptr);
  ASSERT_EQ(target.adopt_session(id, image), "");
  // Equivalent to CreateSession(spec): a fresh engine under the id.
  runtime::Engine* engine = target.acquire(id);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->stats().samples, 0u);
  // The id allocator stays ahead of adopted ids.
  EXPECT_NE(target.create(small_spec(42)), id);
}

TEST(ShardMigration, AdoptRejectsGarbageWithoutAborting) {
  serve::SessionManager manager(2, nullptr);
  serve::MigrationImage image;
  image.spec = small_spec(51);

  EXPECT_NE(manager.adopt_session(0, image), "");  // id 0 is reserved

  const serve::SessionId id = manager.create(small_spec(52));
  EXPECT_NE(manager.adopt_session(id, image), "");  // duplicate id

  serve::MigrationImage bad_spec = image;
  bad_spec.spec.actions = 0;
  EXPECT_NE(manager.adopt_session(id + 1, bad_spec), "");

  serve::MigrationImage foreign = image;
  foreign.base = "these bytes are not snapshot material";
  EXPECT_NE(manager.adopt_session(id + 1, foreign), "");

  serve::MigrationImage orphan_deltas = image;
  orphan_deltas.deltas = {"QTACCEL-SNAPSHOT v3-delta\n"};
  EXPECT_NE(manager.adopt_session(id + 1, orphan_deltas), "");

  EXPECT_EQ(manager.adopts(), 0u);
  EXPECT_FALSE(manager.exists(id + 1));
}

// --- worker-side MigrateOut / MigrateIn -----------------------------

serve::Response run_one(serve::Server& server, const serve::Request& req) {
  const serve::Ticket t = server.submit(req);
  server.drain();
  EXPECT_TRUE(server.done(t));
  return server.take(t);
}

TEST(ShardMigration, ServerMigrateRoundTripIsBitExact) {
  serve::ServerOptions options;
  options.workers = 2;
  serve::Server source(options);
  serve::Server target(options);

  serve::Request create;
  create.type = serve::RequestType::kCreateSession;
  create.spec = small_spec(61);
  const serve::Response created = run_one(source, create);
  ASSERT_EQ(created.status, serve::Status::kOk);
  const serve::SessionId id = created.session;

  serve::Request step;
  step.type = serve::RequestType::kStep;
  step.session = id;
  step.steps = 400;
  ASSERT_EQ(run_one(source, step).status, serve::Status::kOk);

  serve::Request snap;
  snap.type = serve::RequestType::kSnapshot;
  snap.session = id;
  const std::string text = run_one(source, snap).snapshot;

  // Export: the reply's snapshot field carries the encoded image, and
  // the source forgets the session.
  serve::Request out;
  out.type = serve::RequestType::kMigrateOut;
  out.session = id;
  const serve::Response exported = run_one(source, out);
  ASSERT_EQ(exported.status, serve::Status::kOk);
  EXPECT_FALSE(source.sessions().exists(id));
  ASSERT_TRUE(serve::decode_migration_image(exported.snapshot).has_value());

  serve::Request in;
  in.type = serve::RequestType::kMigrateIn;
  in.session = id;
  in.payload = exported.snapshot;
  ASSERT_EQ(run_one(target, in).status, serve::Status::kOk);
  EXPECT_EQ(run_one(target, snap).snapshot, text);

  // A second adopt under the same id is refused, as is exporting a
  // session that does not exist.
  EXPECT_EQ(run_one(target, in).status, serve::Status::kError);
  EXPECT_EQ(run_one(source, out).status, serve::Status::kError);

  // Workers answer the Shards probe with an error: topology lives in
  // the router.
  serve::Request probe;
  probe.type = serve::RequestType::kIntrospect;
  probe.probe = serve::IntrospectProbe::kShards;
  EXPECT_EQ(run_one(target, probe).status, serve::Status::kError);
}

// --- Router over LocalCluster ---------------------------------------

/// Decoded-response convenience around LocalCluster's raw payloads.
struct ClusterClient {
  LocalCluster* cluster;
  ClientId id;
  std::deque<serve::Response> inbox;

  void pump_inbox() {
    for (std::string& payload : cluster->take_responses(id)) {
      auto resp = serve::decode_response(payload);
      ASSERT_TRUE(resp.has_value());
      inbox.push_back(std::move(*resp));
    }
  }
  serve::Response call(const serve::Request& req) {
    cluster->client_request(id, serve::encode_request(req));
    pump_inbox();
    EXPECT_FALSE(inbox.empty());
    if (inbox.empty()) return serve::Response{};
    serve::Response resp = std::move(inbox.front());
    inbox.pop_front();
    return resp;
  }
  serve::SessionId create(const serve::SessionSpec& spec) {
    serve::Request req;
    req.type = serve::RequestType::kCreateSession;
    req.spec = spec;
    const serve::Response resp = call(req);
    EXPECT_EQ(resp.status, serve::Status::kOk) << resp.error;
    return resp.session;
  }
  serve::Response step(serve::SessionId session, std::uint64_t steps) {
    serve::Request req;
    req.type = serve::RequestType::kStep;
    req.session = session;
    req.steps = steps;
    return call(req);
  }
  std::string snapshot(serve::SessionId session) {
    serve::Request req;
    req.type = serve::RequestType::kSnapshot;
    req.session = session;
    const serve::Response resp = call(req);
    EXPECT_EQ(resp.status, serve::Status::kOk) << resp.error;
    return resp.snapshot;
  }
};

TEST(RouterCluster, ProxiedLifecycleIsBitExact) {
  RouterOptions options;
  options.checkpoint_every = 4;
  LocalCluster cluster(2, options);
  ClusterClient client{&cluster, 1, {}};

  const unsigned kSessions = 12;
  std::vector<serve::SessionId> ids;
  std::vector<serve::SessionSpec> specs;
  for (unsigned i = 0; i < kSessions; ++i) {
    specs.push_back(small_spec(100 + i));
    ids.push_back(client.create(specs.back()));
  }
  // Ids are router-allocated and unique; both shards own some.
  EXPECT_GT(cluster.router().sessions_on(0), 0u);
  EXPECT_GT(cluster.router().sessions_on(1), 0u);
  EXPECT_EQ(cluster.router().sessions_on(0) + cluster.router().sessions_on(1),
            kSessions);

  for (unsigned round = 0; round < 3; ++round) {
    for (unsigned i = 0; i < kSessions; ++i) {
      const serve::Response resp = client.step(ids[i], 64);
      ASSERT_EQ(resp.status, serve::Status::kOk) << resp.error;
      // run_samples overshoots to a batch boundary, so the retired
      // count is a lower bound — bit-exactness is proven against the
      // replay twin below, which partitions its Steps identically.
      EXPECT_GE(resp.samples, 64u * (round + 1));
    }
  }
  // Query decodes through the proxy too.
  serve::Request query;
  query.type = serve::RequestType::kQuery;
  query.session = ids[0];
  query.state = 0;
  const serve::Response q = client.call(query);
  ASSERT_EQ(q.status, serve::Status::kOk);
  EXPECT_EQ(q.q_row.size(), specs[0].actions);

  for (unsigned i = 0; i < kSessions; ++i) {
    EXPECT_EQ(client.snapshot(ids[i]),
              replay_snapshot(specs[i], {64, 64, 64}))
        << "session " << ids[i];
  }

  // Close removes the session from the fleet.
  serve::Request close;
  close.type = serve::RequestType::kClose;
  close.session = ids[0];
  EXPECT_EQ(client.call(close).status, serve::Status::kOk);
  EXPECT_EQ(cluster.router().session_count(), kSessions - 1);
  EXPECT_EQ(client.step(ids[0], 1).status, serve::Status::kError);
}

TEST(RouterCluster, LiveMigrationIsInvisibleMidRun) {
  RouterOptions options;
  options.checkpoint_every = 8;
  LocalCluster cluster(2, options);
  ClusterClient client{&cluster, 1, {}};

  const serve::SessionSpec spec = small_spec(71);
  const serve::SessionId id = client.create(spec);
  const ShardId home = *cluster.router().ring().lookup(id);
  const ShardId away = home == 0 ? 1 : 0;

  ASSERT_EQ(client.step(id, 64).status, serve::Status::kOk);
  ASSERT_TRUE(cluster.router().migrate(id, away));
  cluster.settle();
  EXPECT_EQ(cluster.router().migrations(), 1u);
  EXPECT_EQ(*cluster.router().ring().lookup(id), away);
  EXPECT_EQ(cluster.router().sessions_on(home), 0u);

  // Work continues on the new owner; the final state is byte-identical
  // to a never-migrated engine.
  ASSERT_EQ(client.step(id, 64).status, serve::Status::kOk);
  EXPECT_EQ(client.snapshot(id), replay_snapshot(spec, {64, 64}));

  // A hop back is equally invisible.
  ASSERT_TRUE(cluster.router().migrate(id, home));
  cluster.settle();
  ASSERT_EQ(client.step(id, 32).status, serve::Status::kOk);
  EXPECT_EQ(client.snapshot(id), replay_snapshot(spec, {64, 64, 32}));
  EXPECT_EQ(cluster.router().migrations(), 2u);
}

TEST(RouterCluster, AutoMigrateForcesMovesAndStaysBitExact) {
  RouterOptions options;
  options.checkpoint_every = 4;
  options.migrate_every = 2;  // hop after every other Step
  LocalCluster cluster(2, options);
  ClusterClient client{&cluster, 1, {}};

  const serve::SessionSpec spec = small_spec(81);
  const serve::SessionId id = client.create(spec);
  std::vector<std::uint64_t> calls;
  for (unsigned i = 0; i < 8; ++i) {
    ASSERT_EQ(client.step(id, 32).status, serve::Status::kOk);
    calls.push_back(32);
  }
  EXPECT_GE(cluster.router().migrations(), 3u);
  EXPECT_EQ(client.snapshot(id), replay_snapshot(spec, calls));
}

// A seeded Zipf(1) Step stream over 48 sessions at 1, 2 and 4 shards,
// with forced migrations and periodic checkpoints. The tests above drive
// one session, or evenly loaded ones, on two shards; here the hot head
// hops shards many times while the tail barely moves, and every touched
// session must still byte-match its standalone twin.
class RouterClusterZipf : public testing::TestWithParam<unsigned> {};

TEST_P(RouterClusterZipf, SkewedStreamStaysBitExactAndMigrates) {
  const unsigned shards = GetParam();
  RouterOptions options;
  options.checkpoint_every = 8;
  options.migrate_every = 16;  // Steps per session between forced hops
  LocalCluster cluster(shards, options);
  ClusterClient client{&cluster, 1, {}};

  constexpr unsigned kSessions = 48;
  constexpr unsigned kRequests = 2048;
  constexpr std::uint64_t kSteps = 32;
  // Inverse CDF over the harmonic prefix sums: rank k has weight
  // 1/(k+1). The same stream runs in every cell; only topology varies.
  std::vector<double> cdf;
  double total = 0;
  for (unsigned k = 0; k < kSessions; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf.push_back(total);
  }
  rng::Xoshiro256 rng(42);

  std::vector<serve::SessionId> ids(kSessions, 0);
  std::vector<std::vector<std::uint64_t>> calls(kSessions);
  for (unsigned i = 0; i < kRequests; ++i) {
    // uniform() < 1, so the draw never passes cdf.back() == total.
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.uniform() * total) -
        cdf.begin());
    if (ids[rank] == 0) ids[rank] = client.create(small_spec(200 + rank));
    ASSERT_EQ(client.step(ids[rank], kSteps).status, serve::Status::kOk);
    calls[rank].push_back(kSteps);
  }

  unsigned touched = 0;
  for (std::size_t rank = 0; rank < kSessions; ++rank) {
    if (calls[rank].empty()) continue;
    ++touched;
    EXPECT_EQ(client.snapshot(ids[rank]),
              replay_snapshot(small_spec(200 + rank), calls[rank]))
        << "rank " << rank << ", session " << ids[rank];
  }
  EXPECT_GE(touched, 32u);
  EXPECT_GT(cluster.router().checkpoints(), 0u);
  if (shards > 1) {
    EXPECT_GT(cluster.router().migrations(), 0u);
  } else {
    EXPECT_EQ(cluster.router().migrations(), 0u);  // nowhere to hop
  }
}

std::string shard_count_name(const testing::TestParamInfo<unsigned>& info) {
  return std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Shards, RouterClusterZipf,
                         testing::Values(1u, 2u, 4u), shard_count_name);

// A hand-cranked two-shard fleet: unlike LocalCluster::settle() (which
// runs every exchange to quiescence), each pump is explicit, so a test
// can freeze the fleet mid-migration and kill a shard at the worst
// possible moment.
struct ManualCluster : RouterHost {
  std::map<ShardId, std::unique_ptr<LocalShard>> shards;
  std::unique_ptr<Router> router;
  std::map<ClientId, std::vector<serve::Response>> responses;

  explicit ManualCluster(unsigned count, const RouterOptions& options = {}) {
    router = std::make_unique<Router>(options, this);
    for (ShardId id = 0; id < count; ++id) {
      shards.emplace(id, std::make_unique<LocalShard>());
      router->add_shard(id);
    }
  }
  void send_to_client(ClientId client, std::string payload) override {
    auto resp = serve::decode_response(payload);
    ASSERT_TRUE(resp.has_value());
    responses[client].push_back(std::move(*resp));
  }
  void send_to_shard(ShardId shard, std::string payload) override {
    auto it = shards.find(shard);
    if (it != shards.end()) it->second->submit(std::move(payload));
  }
  /// One pump of one shard: its ready responses reach the router (and
  /// may fan new work out to other shards, which stays queued).
  void pump(ShardId shard) {
    auto it = shards.find(shard);
    if (it == shards.end()) return;
    for (std::string& payload : it->second->poll()) {
      router->on_shard_payload(shard, std::move(payload));
    }
  }
  void settle() {
    bool moved = true;
    while (moved) {
      moved = false;
      for (auto& [id, shard] : shards) {
        for (std::string& payload : shard->poll()) {
          router->on_shard_payload(id, std::move(payload));
          moved = true;
        }
      }
    }
  }
  void kill(ShardId shard) {
    shards.erase(shard);
    router->on_shard_failed(shard);
  }
  void request(ClientId client, const serve::Request& req) {
    router->on_client_payload(client, serve::encode_request(req));
  }
  serve::SessionId create(const serve::SessionSpec& spec) {
    serve::Request req;
    req.type = serve::RequestType::kCreateSession;
    req.spec = spec;
    request(1, req);
    settle();
    EXPECT_FALSE(responses[1].empty());
    const serve::Response resp = responses[1].back();
    responses[1].clear();
    EXPECT_EQ(resp.status, serve::Status::kOk) << resp.error;
    return resp.session;
  }
  void step(serve::SessionId id, std::uint64_t steps) {
    serve::Request req;
    req.type = serve::RequestType::kStep;
    req.session = id;
    req.steps = steps;
    request(1, req);
  }
  std::string snapshot(serve::SessionId id) {
    serve::Request req;
    req.type = serve::RequestType::kSnapshot;
    req.session = id;
    request(1, req);
    settle();
    EXPECT_FALSE(responses[1].empty());
    const serve::Response resp = responses[1].back();
    responses[1].clear();
    EXPECT_EQ(resp.status, serve::Status::kOk) << resp.error;
    return resp.snapshot;
  }
};

TEST(RouterCluster, MigrateWhileQueuedHoldsAndReplaysInOrder) {
  ManualCluster cluster(2);
  const serve::SessionSpec spec = small_spec(91);
  const serve::SessionId id = cluster.create(spec);
  const ShardId home = *cluster.router->ring().lookup(id);
  const ShardId away = home == 0 ? 1 : 0;

  cluster.step(id, 64);
  cluster.settle();
  cluster.responses[1].clear();

  // Start the migration, then fire Steps while the image is in flight:
  // they must hold at the router and replay on the target in order.
  ASSERT_TRUE(cluster.router->migrate(id, away));
  cluster.step(id, 32);
  cluster.step(id, 16);
  cluster.pump(home);  // MigrateOut answers; adopt goes to `away`
  cluster.settle();    // adopt lands, held Steps flush and execute

  ASSERT_EQ(cluster.responses[1].size(), 2u);
  EXPECT_GE(cluster.responses[1][0].samples, 64u + 32u);
  EXPECT_GT(cluster.responses[1][1].samples,
            cluster.responses[1][0].samples);  // replayed in order
  cluster.responses[1].clear();
  EXPECT_EQ(*cluster.router->ring().lookup(id), away);
  EXPECT_EQ(cluster.snapshot(id), replay_snapshot(spec, {64, 32, 16}));
}

TEST(RouterCluster, SecondMigrateOfMovingSessionIsRefused) {
  ManualCluster cluster(2);
  const serve::SessionId id = cluster.create(small_spec(92));
  const ShardId home = *cluster.router->ring().lookup(id);
  const ShardId away = home == 0 ? 1 : 0;

  ASSERT_TRUE(cluster.router->migrate(id, away));
  EXPECT_FALSE(cluster.router->migrate(id, away));  // already in flight
  EXPECT_FALSE(cluster.router->migrate(id, home));  // either direction
  cluster.settle();
  // After it lands, a fresh migrate is fine again.
  EXPECT_EQ(*cluster.router->ring().lookup(id), away);
  EXPECT_TRUE(cluster.router->migrate(id, home));
  cluster.settle();

  // And migrate() validates its inputs: unknown session, unknown
  // target, target == current owner.
  EXPECT_FALSE(cluster.router->migrate(9999, away));
  EXPECT_FALSE(cluster.router->migrate(id, 7));
  EXPECT_FALSE(cluster.router->migrate(id, home));
}

TEST(RouterCluster, DeadMigrationTargetRollsBackToSource) {
  ManualCluster cluster(2);
  const serve::SessionSpec spec = small_spec(93);
  const serve::SessionId id = cluster.create(spec);
  const ShardId home = *cluster.router->ring().lookup(id);
  const ShardId away = home == 0 ? 1 : 0;

  cluster.step(id, 64);
  cluster.settle();
  cluster.responses[1].clear();

  ASSERT_TRUE(cluster.router->migrate(id, away));
  cluster.step(id, 32);  // held during the move
  cluster.pump(home);    // image exported; adopt now queued on `away`
  cluster.kill(away);    // ...which dies holding it

  // The image rolls back onto the source, the held Step replays there,
  // and the session never skips a beat.
  cluster.settle();
  ASSERT_EQ(cluster.responses[1].size(), 1u);
  EXPECT_EQ(cluster.responses[1][0].status, serve::Status::kOk);
  EXPECT_GE(cluster.responses[1][0].samples, 96u);
  cluster.responses[1].clear();
  EXPECT_EQ(*cluster.router->ring().lookup(id), home);
  EXPECT_GE(cluster.router->rollbacks(), 1u);
  EXPECT_EQ(cluster.router->migrations(), 0u);  // it never completed
  EXPECT_EQ(cluster.snapshot(id), replay_snapshot(spec, {64, 32}));
}

TEST(RouterCluster, ShardDeathReplaysParkedStateBitExact) {
  RouterOptions options;
  options.checkpoint_every = 2;  // park often so the log stays short
  LocalCluster cluster(3, options);
  ClusterClient client{&cluster, 1, {}};

  const unsigned kSessions = 6;
  std::vector<serve::SessionId> ids;
  std::vector<serve::SessionSpec> specs;
  for (unsigned i = 0; i < kSessions; ++i) {
    specs.push_back(small_spec(200 + i));
    ids.push_back(client.create(specs.back()));
  }
  std::vector<std::vector<std::uint64_t>> calls(kSessions);
  for (unsigned round = 0; round < 3; ++round) {
    for (unsigned i = 0; i < kSessions; ++i) {
      ASSERT_EQ(client.step(ids[i], 48).status, serve::Status::kOk);
      calls[i].push_back(48);
    }
  }

  // Kill a shard that owns sessions. Its parked images + replay logs
  // reconstruct every session on the survivors.
  ShardId victim = 0;
  while (cluster.router().sessions_on(victim) == 0) ++victim;
  cluster.kill(victim);
  EXPECT_EQ(cluster.router().failovers(), 1u);
  EXPECT_EQ(cluster.router().session_count(), kSessions);
  EXPECT_EQ(cluster.router().sessions_on(victim), 0u);

  // Every session — failed-over or not — continues bit-exactly.
  for (unsigned i = 0; i < kSessions; ++i) {
    ASSERT_EQ(client.step(ids[i], 48).status, serve::Status::kOk);
    calls[i].push_back(48);
    EXPECT_EQ(client.snapshot(ids[i]), replay_snapshot(specs[i], calls[i]))
        << "session " << ids[i];
  }
}

TEST(RouterCluster, DrainEmptiesShardThenShutsItDown) {
  RouterOptions options;
  options.checkpoint_every = 4;
  LocalCluster cluster(2, options);
  ClusterClient client{&cluster, 1, {}};

  const unsigned kSessions = 4;
  std::vector<serve::SessionId> ids;
  std::vector<serve::SessionSpec> specs;
  for (unsigned i = 0; i < kSessions; ++i) {
    specs.push_back(small_spec(300 + i));
    ids.push_back(client.create(specs.back()));
    ASSERT_EQ(client.step(ids[i], 40).status, serve::Status::kOk);
  }
  ShardId victim = 0;
  while (cluster.router().sessions_on(victim) == 0) ++victim;
  const ShardId survivor = victim == 0 ? 1 : 0;

  ASSERT_TRUE(cluster.router().drain(victim));
  cluster.settle();
  // Every resident migrated away and the empty worker was shut down
  // and dropped from the topology.
  EXPECT_EQ(cluster.router().session_count(), kSessions);
  EXPECT_EQ(cluster.router().sessions_on(victim), 0u);
  EXPECT_EQ(cluster.router().sessions_on(survivor), kSessions);
  EXPECT_NE(cluster.shard(victim), nullptr);  // process still exists...
  EXPECT_TRUE(cluster.shard(victim)->shutdown_requested());  // ...drained
  EXPECT_FALSE(cluster.router().ring().contains(victim));

  // Draining the last placeable shard is refused.
  EXPECT_FALSE(cluster.router().drain(survivor));

  // The fleet of one keeps serving, bit-exactly.
  for (unsigned i = 0; i < kSessions; ++i) {
    ASSERT_EQ(client.step(ids[i], 40).status, serve::Status::kOk);
    EXPECT_EQ(client.snapshot(ids[i]), replay_snapshot(specs[i], {40, 40}));
  }
}

TEST(RouterCluster, ControlPlaneAnswersLocally) {
  LocalCluster cluster(2, {});
  ClusterClient client{&cluster, 1, {}};

  serve::Request ping;
  ping.type = serve::RequestType::kPing;
  EXPECT_EQ(client.call(ping).status, serve::Status::kOk);

  serve::Request probe;
  probe.type = serve::RequestType::kIntrospect;
  probe.probe = serve::IntrospectProbe::kShards;
  const serve::Response topo = client.call(probe);
  ASSERT_EQ(topo.status, serve::Status::kOk);
  EXPECT_NE(topo.introspect_json.find("\"shards\":"), std::string::npos);

  serve::Request stats;
  stats.type = serve::RequestType::kStats;
  const serve::Response s = client.call(stats);
  ASSERT_EQ(s.status, serve::Status::kOk);
  EXPECT_NE(s.stats_prometheus.find("qtrouter_shards"), std::string::npos);
  EXPECT_NE(s.stats_prometheus.find("qtserve_sessions_live"),
            std::string::npos);

  // Clients cannot speak the shard control plane.
  serve::Request in;
  in.type = serve::RequestType::kMigrateIn;
  in.session = 1;
  EXPECT_EQ(client.call(in).status, serve::Status::kError);

  // Unknown-session requests fail fast at the router.
  serve::Request step;
  step.type = serve::RequestType::kStep;
  step.session = 4242;
  step.steps = 1;
  EXPECT_EQ(client.call(step).status, serve::Status::kError);
}

// --- rebalance planning / scraping ----------------------------------

TEST(ShardManager, BalancedFleetPlansNothing) {
  EXPECT_TRUE(plan_rebalance({{0, 10}, {1, 10}, {2, 10}}, 0.25).empty());
  EXPECT_TRUE(plan_rebalance({{0, 10}, {1, 12}}, 0.25).empty());
  EXPECT_TRUE(plan_rebalance({{0, 100}}, 0.0).empty());  // nowhere to go
  EXPECT_TRUE(plan_rebalance({}, 0.0).empty());
}

TEST(ShardManager, OverloadedShardDonatesTowardTheMean) {
  const std::vector<RebalanceMove> moves =
      plan_rebalance({{0, 100}, {1, 0}}, 0.25);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].from, 0u);
  EXPECT_EQ(moves[0].to, 1u);
  EXPECT_EQ(moves[0].count, 50u);

  // Deterministic: identical inputs, identical plan.
  EXPECT_EQ(plan_rebalance({{0, 100}, {1, 0}}, 0.25)[0].count, 50u);

  // Multiple takers fill lowest-first.
  const std::vector<RebalanceMove> spread =
      plan_rebalance({{0, 90}, {1, 0}, {2, 30}}, 0.1);
  ASSERT_FALSE(spread.empty());
  EXPECT_EQ(spread[0].from, 0u);
  EXPECT_EQ(spread[0].to, 1u);
}

TEST(ShardManager, ScrapeGaugeSumsFamiliesWithNameBoundaries) {
  const std::string text =
      "# HELP qtserve_sessions_live live\n"
      "# TYPE qtserve_sessions_live gauge\n"
      "qtserve_sessions_live 12\n"
      "qtserve_sessions_hot 3\n"
      "qtserve_requests_total{type=\"step\"} 100\n"
      "qtserve_requests_total{type=\"query\"} 7\n";
  EXPECT_EQ(scrape_gauge(text, "qtserve_sessions_live"), 12.0);
  EXPECT_EQ(scrape_gauge(text, "qtserve_sessions_hot"), 3.0);
  // Label sets sum; family-name prefixes do not bleed into longer
  // names.
  EXPECT_EQ(scrape_gauge(text, "qtserve_requests_total"), 107.0);
  EXPECT_EQ(scrape_gauge(text, "qtserve_sessions"), std::nullopt);
  EXPECT_EQ(scrape_gauge(text, "absent_family"), std::nullopt);
}

// --- HTTP plane -----------------------------------------------------

TEST(ShardHttpPlane, RoutesAgainstALiveRouter) {
  LocalCluster cluster(2, {});
  ClusterClient client{&cluster, 1, {}};
  const serve::SessionId id = client.create(small_spec(401));
  const ShardId home = *cluster.router().ring().lookup(id);
  const ShardId away = home == 0 ? 1 : 0;
  Router& router = cluster.router();

  EXPECT_NE(handle_router_http(router, "GET /healthz HTTP/1.0\r\n\r\n")
                .find("ok\n"),
            std::string::npos);
  EXPECT_NE(handle_router_http(router, "GET /metrics HTTP/1.0\r\n\r\n")
                .find("qtrouter_shards"),
            std::string::npos);
  EXPECT_NE(handle_router_http(router, "GET /shards HTTP/1.0\r\n\r\n")
                .find("\"draining\":false"),
            std::string::npos);

  // /migrate parses its query params and starts a real migration.
  const std::string migrate = handle_router_http(
      router, "GET /migrate?session=" + std::to_string(id) +
                  "&shard=" + std::to_string(away) + " HTTP/1.0\r\n\r\n");
  EXPECT_NE(migrate.find("{\"ok\":true}"), std::string::npos);
  cluster.settle();
  EXPECT_EQ(*router.ring().lookup(id), away);

  EXPECT_NE(handle_router_http(router, "GET /migrate?session=9 HTTP/1.0\r\n\r\n")
                .find("400"),
            std::string::npos);
  // Ids must be whole decimal numbers that fit their type: neither
  // "abc" nor 2^32 may wrap around to shard 0.
  for (const char* bad :
       {"/drain?shard=abc", "/drain?shard=4294967296", "/drain?shard=",
        "/drain?shard=-1", "/migrate?session=1x&shard=0"}) {
    EXPECT_EQ(handle_router_http(router, std::string("GET ") + bad +
                                             " HTTP/1.0\r\n\r\n")
                  .rfind("HTTP/1.0 400 Bad Request", 0),
              0u)
        << bad;
  }
  EXPECT_TRUE(router.ring().contains(0));
  EXPECT_TRUE(router.ring().contains(1));
  // checkpoint_all only snapshots sessions with replay-log entries;
  // give it one to park.
  ASSERT_EQ(client.step(id, 16).status, serve::Status::kOk);
  EXPECT_NE(handle_router_http(router, "GET /checkpoint HTTP/1.0\r\n\r\n")
                .find("{\"ok\":true}"),
            std::string::npos);
  cluster.settle();
  EXPECT_GE(router.checkpoints(), 1u);

  const std::string drain = handle_router_http(
      router,
      "GET /drain?shard=" + std::to_string(home) + " HTTP/1.0\r\n\r\n");
  EXPECT_NE(drain.find("{\"ok\":true}"), std::string::npos);
  cluster.settle();
  EXPECT_FALSE(router.ring().contains(home));

  // HEAD gets headers only; bad methods and routes get 405/404.
  const std::string head =
      handle_router_http(router, "HEAD /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(head.find("200 OK"), std::string::npos);
  EXPECT_EQ(head.find("ok\n"), std::string::npos);
  EXPECT_NE(handle_router_http(router, "POST /drain HTTP/1.0\r\n\r\n")
                .find("405"),
            std::string::npos);
  EXPECT_NE(handle_router_http(router, "GET /nope HTTP/1.0\r\n\r\n")
                .find("404"),
            std::string::npos);
  EXPECT_NE(handle_router_http(router, "garbage").find("400"),
            std::string::npos);
}

}  // namespace
}  // namespace qta::shard
