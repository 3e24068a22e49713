// qtscope serving-tier tracing tests (docs/observability.md):
//   - Span-chain completeness: every engine-executed request in a traced
//     run yields one enclosing span plus the five lifecycle children
//     (admission -> queue -> acquire -> execute -> reply) that tile it:
//     consecutive children abut, durations sum within the parent, and
//     the wire trace context (trace_id) rides on every span. Validated
//     by actually parsing the Chrome trace-event JSON.
//   - Lane-coalesced batches land as lane_group spans on their own
//     track.
//   - The observability-off differential: with tracing AND the flight
//     recorder disabled, every backend retires byte-identical snapshots,
//     stats, and Q rows versus a fully-instrumented server. Observation
//     must never perturb the datapath.
//   - Eviction attribution: capacity churn caused by restores is
//     labelled reason="restore", fresh-acquire pressure reason="lru",
//     explicit Evict reason="request" — and the three labels plus the
//     restore counter reconcile exactly.
//   - Introspect probes over the loopback transport (wire codec
//     included): metrics, flight recorder, per-session summary, and the
//     error replies for unknown sessions / disabled recorders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/transport.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "test_json.h"

namespace qta::serve {
namespace {

using testjson::JsonParser;
using testjson::JsonValue;

SessionSpec small_spec(std::uint64_t seed,
                       qtaccel::Backend backend = qtaccel::Backend::kFast) {
  SessionSpec spec;
  spec.width = 8;
  spec.height = 8;
  spec.actions = 4;
  spec.seed = seed;
  spec.backend = backend;
  spec.max_episode_length = 64;
  return spec;
}

struct Span {
  std::string name;
  double pid = 0;
  double tid = 0;
  double ts = 0;
  double dur = 0;
  std::map<std::string, double> args;
};

std::vector<Span> parse_spans(const std::string& trace_json) {
  JsonValue root;
  EXPECT_TRUE(JsonParser(trace_json).parse(&root));
  std::vector<Span> spans;
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (!e.has("ph") || e.at("ph").string != "X") continue;
    Span s;
    s.name = e.at("name").string;
    s.pid = e.at("pid").number;
    if (e.has("tid")) s.tid = e.at("tid").number;
    s.ts = e.at("ts").number;
    s.dur = e.at("dur").number;
    if (e.has("args")) {
      for (const auto& [k, v] : e.at("args").object) {
        s.args[k] = v.number;
      }
    }
    spans.push_back(std::move(s));
  }
  return spans;
}

bool is_phase_name(const std::string& name) {
  return name == "admission" || name == "queue" || name == "execute" ||
         name == "reply" || name == "acquire (hot)" ||
         name == "acquire (restore)";
}

TEST(ServeTrace, SpanChainConnectsEveryExecutedRequest) {
  ServerOptions options;
  options.max_hot = 2;  // 5 sessions through 2 slots: restores guaranteed
  options.workers = 2;
  options.trace = true;
  LoopbackTransport transport(options);

  constexpr std::uint64_t kTraceId = 77;
  constexpr std::size_t kSessions = 5;
  std::vector<SessionId> ids(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    Request req;
    req.type = RequestType::kCreateSession;
    req.spec = small_spec(10 + i);
    req.trace_id = kTraceId;
    ids[i] = transport.call(req).session;
  }
  std::size_t executed = 0;
  for (int round = 0; round < 2; ++round) {
    std::vector<Ticket> tickets;
    for (const SessionId id : ids) {
      Request req;
      req.type = RequestType::kStep;
      req.session = id;
      req.steps = 48;
      req.trace_id = kTraceId;
      tickets.push_back(transport.post(req));
    }
    for (const Ticket t : tickets) {
      ASSERT_EQ(transport.wait(t).status, Status::kOk);
      ++executed;
    }
  }
  for (const SessionId id : ids) {
    Request req;
    req.type = RequestType::kQuery;
    req.session = id;
    req.state = 0;
    req.trace_id = kTraceId;
    ASSERT_EQ(transport.call(req).status, Status::kOk);
    ++executed;
  }

  const std::vector<Span> spans =
      parse_spans(transport.server().trace()->json_text());
  std::map<double, std::vector<const Span*>> by_ticket;
  for (const Span& s : spans) {
    auto it = s.args.find("ticket");
    if (it != s.args.end()) by_ticket[it->second].push_back(&s);
  }

  std::size_t chains = 0;
  bool saw_restore = false;
  bool saw_hot = false;
  for (const auto& [ticket, group] : by_ticket) {
    const Span* enclosing = nullptr;
    std::vector<const Span*> children;
    for (const Span* s : group) {
      ASSERT_EQ(s->args.at("trace_id"), kTraceId) << s->name;
      if (is_phase_name(s->name)) children.push_back(s);
      else enclosing = s;
    }
    ASSERT_NE(enclosing, nullptr) << "ticket " << ticket;
    if (children.empty()) continue;  // control-plane: enclosing span only
    ++chains;

    // Exactly the five lifecycle phases, in wall-clock order.
    ASSERT_EQ(children.size(), 5u) << enclosing->name;
    std::sort(children.begin(), children.end(),
              [](const Span* a, const Span* b) { return a->ts < b->ts; });
    EXPECT_EQ(children[0]->name, "admission");
    EXPECT_EQ(children[1]->name, "queue");
    EXPECT_TRUE(children[2]->name == "acquire (hot)" ||
                children[2]->name == "acquire (restore)");
    saw_restore = saw_restore || children[2]->name == "acquire (restore)";
    saw_hot = saw_hot || children[2]->name == "acquire (hot)";
    EXPECT_EQ(children[3]->name, "execute");
    EXPECT_EQ(children[4]->name, "reply");

    // The chain is connected: each phase starts no earlier than the
    // previous one ended, all inside the enclosing span, and the phase
    // durations sum to no more than the enclosing duration.
    double phase_sum = 0;
    double cursor = enclosing->ts;
    for (const Span* c : children) {
      EXPECT_GE(c->ts, cursor) << c->name;
      EXPECT_LE(c->ts + c->dur, enclosing->ts + enclosing->dur) << c->name;
      EXPECT_EQ(c->tid, enclosing->tid);
      cursor = c->ts + c->dur;
      phase_sum += c->dur;
    }
    EXPECT_LE(phase_sum, enclosing->dur);
    // admission/queue/acquire abut exactly (stamped at the same instant
    // a control-thread handoff happens); only execute may start late
    // (worker scheduling) — so the first three tile with zero gaps.
    EXPECT_EQ(children[0]->ts + children[0]->dur, children[1]->ts);
    EXPECT_EQ(children[1]->ts + children[1]->dur, children[2]->ts);
    // reply runs to the enclosing span's end.
    EXPECT_EQ(children[4]->ts + children[4]->dur,
              enclosing->ts + enclosing->dur);
  }
  EXPECT_EQ(chains, executed);
  EXPECT_TRUE(saw_restore);  // 5 sessions through 2 hot slots must churn
  EXPECT_TRUE(saw_hot);
}

TEST(ServeTrace, LaneGroupSpansLandOnTheirOwnTrack) {
  ServerOptions options;
  options.max_hot = 4;
  options.workers = 2;
  options.trace = true;
  LoopbackTransport transport(options);

  std::vector<SessionId> ids(4);
  for (std::size_t i = 0; i < 4; ++i) {
    Request req;
    req.type = RequestType::kCreateSession;
    req.spec = small_spec(20 + i, qtaccel::Backend::kLanes);
    ids[i] = transport.call(req).session;
  }
  // All four posted before any pump: one batch, one coalesced group.
  std::vector<Ticket> tickets;
  for (const SessionId id : ids) {
    Request req;
    req.type = RequestType::kStep;
    req.session = id;
    req.steps = 64;
    tickets.push_back(transport.post(req));
  }
  for (const Ticket t : tickets) {
    ASSERT_EQ(transport.wait(t).status, Status::kOk);
  }

  const std::vector<Span> spans =
      parse_spans(transport.server().trace()->json_text());
  std::size_t groups = 0;
  for (const Span& s : spans) {
    if (s.name.rfind("lane_group[", 0) != 0) continue;
    ++groups;
    EXPECT_EQ(s.pid, 1) << "lane groups live on their own track";
    EXPECT_EQ(s.args.at("lanes"), 4);
    // Per-lane progress args: every lane advanced by at least the
    // requested 64 (episode drain may overshoot a little).
    for (int lane = 0; lane < 4; ++lane) {
      EXPECT_GE(s.args.at("lane" + std::to_string(lane) + "_samples"), 64)
          << "lane " << lane;
    }
  }
  EXPECT_EQ(groups, 1u);
}

// ---------------------------------------------------------------------
// Observability must not perturb the datapath.

struct WorkloadResult {
  std::vector<std::string> snapshots;
  std::vector<std::uint64_t> samples;
  std::vector<std::uint64_t> episodes;
  std::vector<std::uint64_t> cycles;
  std::vector<std::vector<double>> q_rows;
};

WorkloadResult run_workload(qtaccel::Backend backend, bool observed) {
  ServerOptions options;
  options.max_hot = 2;  // 6 sessions: heavy evict/restore churn
  options.workers = 2;
  options.trace = observed;
  options.flight_recorder_capacity = observed ? 32 : 0;
  LoopbackTransport transport(options);

  constexpr std::size_t kSessions = 6;
  std::vector<SessionId> ids(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    Request req;
    req.type = RequestType::kCreateSession;
    req.spec = small_spec(40 + i, backend);
    req.trace_id = observed ? 5 : 0;
    ids[i] = transport.call(req).session;
  }
  for (int round = 0; round < 3; ++round) {
    std::vector<Ticket> tickets;
    for (const SessionId id : ids) {
      Request req;
      req.type = RequestType::kStep;
      req.session = id;
      req.steps = 32;
      req.trace_id = observed ? 5 : 0;
      tickets.push_back(transport.post(req));
    }
    for (const Ticket t : tickets) {
      EXPECT_EQ(transport.wait(t).status, Status::kOk);
    }
  }

  WorkloadResult result;
  for (const SessionId id : ids) {
    Request snap;
    snap.type = RequestType::kSnapshot;
    snap.session = id;
    const Response sr = transport.call(snap);
    EXPECT_EQ(sr.status, Status::kOk);
    result.snapshots.push_back(sr.snapshot);
    result.samples.push_back(sr.samples);
    result.episodes.push_back(sr.episodes);
    result.cycles.push_back(sr.cycles);

    Request query;
    query.type = RequestType::kQuery;
    query.session = id;
    query.state = 3;
    const Response qr = transport.call(query);
    EXPECT_EQ(qr.status, Status::kOk);
    result.q_rows.push_back(qr.q_row);
  }
  return result;
}

TEST(ServeObservability, OffIsBitIdenticalToOnAcrossBackends) {
  for (const qtaccel::Backend backend :
       {qtaccel::Backend::kCycleAccurate, qtaccel::Backend::kFast,
        qtaccel::Backend::kLanes}) {
    const WorkloadResult off = run_workload(backend, false);
    const WorkloadResult on = run_workload(backend, true);
    EXPECT_EQ(off.snapshots, on.snapshots)
        << "backend " << qtaccel::backend_name(backend);
    EXPECT_EQ(off.samples, on.samples);
    EXPECT_EQ(off.episodes, on.episodes);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.q_rows, on.q_rows);
  }
}

TEST(ServeObservability, EvictionReasonsReconcileWithRestores) {
  ServerOptions options;
  options.max_hot = 1;  // every second acquire forces an eviction
  options.workers = 1;
  LoopbackTransport transport(options);
  Server& server = transport.server();

  SessionId a, b;
  {
    Request req;
    req.type = RequestType::kCreateSession;
    req.spec = small_spec(70);
    a = transport.call(req).session;
    req.spec = small_spec(71);
    b = transport.call(req).session;
  }
  const auto step = [&](SessionId id) {
    Request req;
    req.type = RequestType::kStep;
    req.session = id;
    req.steps = 16;
    ASSERT_EQ(transport.call(req).status, Status::kOk);
  };
  step(a);  // a hot, slot was free: no eviction
  step(b);  // b fresh (never evicted): evicts a, reason=lru
  step(a);  // a restores from its snapshot: evicts b, reason=restore
  {
    Request req;  // explicit Evict on the hot session: reason=request
    req.type = RequestType::kEvict;
    req.session = a;
    ASSERT_EQ(transport.call(req).status, Status::kOk);
  }

  telemetry::MetricsRegistry& m = server.metrics();
  const std::uint64_t lru =
      m.counter("qtserve_evictions_total", {{"reason", "lru"}}).value();
  const std::uint64_t restore =
      m.counter("qtserve_evictions_total", {{"reason", "restore"}}).value();
  const std::uint64_t request =
      m.counter("qtserve_evictions_total", {{"reason", "request"}}).value();
  EXPECT_EQ(lru, 1u);
  EXPECT_EQ(restore, 1u);
  EXPECT_EQ(request, 1u);
  // The plain capacity-eviction counter spans lru + restore (the CI
  // churn gate keys off it), and restores reconcile with the restore
  // that caused the restore-reason eviction.
  EXPECT_EQ(server.sessions().lru_evictions(), lru + restore);
  EXPECT_EQ(server.sessions().restores(), 1u);
}

// ---------------------------------------------------------------------
// Introspect probes, through the wire codec via loopback.

TEST(ServeIntrospect, MetricsFlightAndSessionProbes) {
  ServerOptions options;
  options.max_hot = 2;
  options.flight_recorder_capacity = 16;
  LoopbackTransport transport(options);

  SessionId id;
  {
    Request req;
    req.type = RequestType::kCreateSession;
    req.spec = small_spec(90);
    req.spec.telemetry = true;
    id = transport.call(req).session;
  }
  {
    Request req;
    req.type = RequestType::kStep;
    req.session = id;
    req.steps = 32;
    ASSERT_EQ(transport.call(req).status, Status::kOk);
  }

  {
    Request req;
    req.type = RequestType::kIntrospect;
    req.probe = IntrospectProbe::kMetrics;
    const Response resp = transport.call(req);
    ASSERT_EQ(resp.status, Status::kOk);
    JsonValue root;
    ASSERT_TRUE(JsonParser(resp.introspect_json).parse(&root));
  }
  {
    Request req;
    req.type = RequestType::kIntrospect;
    req.probe = IntrospectProbe::kFlightRecorder;
    const Response resp = transport.call(req);
    ASSERT_EQ(resp.status, Status::kOk);
    JsonValue root;
    ASSERT_TRUE(JsonParser(resp.introspect_json).parse(&root));
    EXPECT_EQ(root.at("capacity").number, 16.0);
    EXPECT_GE(root.at("events").array.size(), 2u);  // created + request
  }
  {
    Request req;
    req.type = RequestType::kIntrospect;
    req.probe = IntrospectProbe::kSession;
    req.session = id;
    const Response resp = transport.call(req);
    ASSERT_EQ(resp.status, Status::kOk);
    JsonValue root;
    ASSERT_TRUE(JsonParser(resp.introspect_json).parse(&root));
    EXPECT_EQ(root.at("session").number, static_cast<double>(id));
    EXPECT_EQ(root.at("hot").boolean, true);
    EXPECT_EQ(root.at("telemetry").boolean, true);
    EXPECT_EQ(root.at("spec").at("backend").string, "fast");
    EXPECT_GE(root.at("stats").at("samples").number, 32.0);
  }
  {
    Request req;  // unknown session: error reply, not an abort
    req.type = RequestType::kIntrospect;
    req.probe = IntrospectProbe::kSession;
    req.session = 999;
    const Response resp = transport.call(req);
    EXPECT_EQ(resp.status, Status::kError);
    EXPECT_FALSE(resp.error.empty());
  }
}

TEST(ServeIntrospect, FlightProbeErrorsWhenRecorderDisabled) {
  ServerOptions options;
  options.flight_recorder_capacity = 0;
  LoopbackTransport transport(options);
  Request req;
  req.type = RequestType::kIntrospect;
  req.probe = IntrospectProbe::kFlightRecorder;
  const Response resp = transport.call(req);
  EXPECT_EQ(resp.status, Status::kError);
  EXPECT_NE(resp.error.find("disabled"), std::string::npos);
}

}  // namespace
}  // namespace qta::serve
