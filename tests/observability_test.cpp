// qtscope observability-plane tests (docs/observability.md):
//   - FlightRecorder ring semantics: bounded, overwrite-oldest, seq
//     monotone from 1, deterministic overflow accounting, and a JSON
//     dump that parses and matches the recorded tail — including under
//     concurrent recording from many threads.
//   - MetricsRegistry::metric_names() enumerates the registered surface,
//     and every registered qtserve_*/qta_* family appears in the metric
//     catalog (docs/serving.md + docs/observability.md) — the drift test
//     that keeps docs and code from diverging silently.
//   - The HTTP introspection endpoint (serve/http_endpoint.h) as a pure
//     function: routes, status codes, content types, error paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/http_endpoint.h"
#include "serve/server.h"
#include "telemetry/event_log.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "test_json.h"

namespace qta::telemetry {
namespace {

using testjson::JsonParser;
using testjson::JsonValue;

ServeEvent make_event(ServeEventKind kind, std::uint64_t session,
                      const char* label, std::uint64_t value) {
  ServeEvent e;
  e.kind = kind;
  e.session = session;
  e.label = label;
  e.value = value;
  return e;
}

// ---------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorder, FillsThenOverwritesOldestWithMonotoneSeq) {
  FlightRecorder fr(4);
  EXPECT_EQ(fr.capacity(), 4u);
  EXPECT_EQ(fr.size(), 0u);

  for (std::uint64_t i = 1; i <= 3; ++i) {
    fr.record(make_event(ServeEventKind::kRequest, i, "step", i * 10));
  }
  EXPECT_EQ(fr.size(), 3u);
  EXPECT_EQ(fr.recorded(), 3u);
  EXPECT_EQ(fr.dropped(), 0u);
  {
    const std::vector<ServeEvent> events = fr.events();
    ASSERT_EQ(events.size(), 3u);
    for (std::uint64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(events[i].seq, i + 1);        // assigned by the recorder
      EXPECT_EQ(events[i].session, i + 1);    // oldest first
      EXPECT_EQ(events[i].value, (i + 1) * 10);
    }
  }

  // 7 more pushes through a 4-slot ring: only the last 4 survive, and
  // the accounting states exactly how many fell off.
  for (std::uint64_t i = 4; i <= 10; ++i) {
    fr.record(make_event(ServeEventKind::kEviction, i, "lru", i));
  }
  EXPECT_EQ(fr.size(), 4u);
  EXPECT_EQ(fr.recorded(), 10u);
  EXPECT_EQ(fr.dropped(), 6u);
  const std::vector<ServeEvent> events = fr.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 7 + i);  // seq 7..10, oldest-first
    EXPECT_EQ(events[i].session, 7 + i);
  }
}

TEST(FlightRecorder, OverflowAccountingIsDeterministic) {
  // Same event stream, two recorders, different capacities: the
  // surviving window is a pure function of (stream, capacity).
  FlightRecorder small(3);
  FlightRecorder large(100);
  for (std::uint64_t i = 1; i <= 50; ++i) {
    const ServeEvent e =
        make_event(ServeEventKind::kRequest, i % 7, "query", i);
    small.record(e);
    large.record(e);
  }
  EXPECT_EQ(small.recorded(), 50u);
  EXPECT_EQ(small.dropped(), 47u);
  EXPECT_EQ(large.recorded(), 50u);
  EXPECT_EQ(large.dropped(), 0u);
  const std::vector<ServeEvent> tail = small.events();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].seq, 48u);
  EXPECT_EQ(tail[1].seq, 49u);
  EXPECT_EQ(tail[2].seq, 50u);
  // The large recorder holds the same three events at the same seqs.
  const std::vector<ServeEvent> all = large.events();
  ASSERT_EQ(all.size(), 50u);
  EXPECT_EQ(all[47].value, tail[0].value);
  EXPECT_EQ(all[49].value, tail[2].value);
}

TEST(FlightRecorder, CapacityOneKeepsOnlyTheNewest) {
  FlightRecorder fr(1);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    fr.record(make_event(ServeEventKind::kOverload, 0, "step", i));
  }
  const std::vector<ServeEvent> events = fr.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 5u);
  EXPECT_EQ(events[0].value, 5u);
  EXPECT_EQ(fr.dropped(), 4u);
}

TEST(FlightRecorder, JsonDumpParsesAndMatchesTheTail) {
  FlightRecorder fr(4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    fr.record(make_event(i % 2 == 0 ? ServeEventKind::kRestore
                                    : ServeEventKind::kEviction,
                         i, i % 2 == 0 ? "" : "restore", i * 3));
  }
  const std::string text = fr.json_text();
  JsonValue root;
  ASSERT_TRUE(JsonParser(text).parse(&root)) << text;
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  EXPECT_EQ(root.at("capacity").number, 4.0);
  EXPECT_EQ(root.at("recorded").number, 6.0);
  EXPECT_EQ(root.at("dropped").number, 2.0);
  const JsonValue& events = root.at("events");
  ASSERT_EQ(events.type, JsonValue::Type::kArray);
  ASSERT_EQ(events.array.size(), 4u);
  EXPECT_EQ(events.array[0].at("seq").number, 3.0);
  EXPECT_EQ(events.array[0].at("kind").string, "eviction");
  EXPECT_EQ(events.array[0].at("label").string, "restore");
  EXPECT_EQ(events.array[1].at("kind").string, "restore");
  EXPECT_EQ(events.array[3].at("seq").number, 6.0);
  EXPECT_EQ(events.array[3].at("value").number, 18.0);
  // Timestamps are recorder-clock and non-decreasing oldest-first.
  double last_ts = -1.0;
  for (const JsonValue& e : events.array) {
    EXPECT_GE(e.at("ts_us").number, last_ts);
    last_ts = e.at("ts_us").number;
  }
}

TEST(FlightRecorder, ConcurrentRecordNeverLosesAccounting) {
  // TSan-facing: hammer one recorder from several threads. The ring
  // content interleaving is nondeterministic, but the invariants are
  // not: recorded == total pushes, size == capacity, the surviving
  // window is `capacity` events with distinct seqs, each recorded
  // payload intact.
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  FlightRecorder fr(64);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fr, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        fr.record(make_event(ServeEventKind::kRequest, t, "step", i));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(fr.recorded(), kThreads * kPerThread);
  EXPECT_EQ(fr.dropped(), kThreads * kPerThread - 64);
  const std::vector<ServeEvent> events = fr.events();
  ASSERT_EQ(events.size(), 64u);
  std::set<std::uint64_t> seqs;
  for (const ServeEvent& e : events) {
    seqs.insert(e.seq);
    EXPECT_LT(e.session, kThreads);
    EXPECT_LT(e.value, kPerThread);
  }
  EXPECT_EQ(seqs.size(), 64u);  // no duplicated or torn slots
}

// ---------------------------------------------------------------------
// Registered-name enumeration + docs catalog drift

TEST(MetricNames, EnumeratesDistinctRegisteredFamilies) {
  MetricsRegistry registry;
  registry.counter("b_total", {{"x", "1"}});
  registry.counter("b_total", {{"x", "2"}});  // same family, new series
  registry.gauge("a_gauge", {});
  registry.histogram("c_hist", {});
  const std::vector<std::string> names = registry.metric_names();
  EXPECT_EQ(names, (std::vector<std::string>{"a_gauge", "b_total", "c_hist"}));
}

// Every metric family a fully-exercised server registers must be listed
// in the docs catalog. Registering a new series without documenting it
// fails HERE, not in a reviewer's memory.
TEST(MetricNames, EveryRegisteredMetricIsInTheDocsCatalog) {
  serve::ServerOptions options;
  options.max_hot = 2;
  options.workers = 2;
  options.trace = true;
  serve::Server server(options);

  // Exercise enough of the surface to materialize the lazy series:
  // telemetry-enabled engine sessions (qta_* families), steps across
  // more sessions than hot slots (restore + phase + latency series),
  // an overload refusal, and an introspect.
  std::vector<serve::SessionId> ids;
  for (std::uint64_t i = 0; i < 4; ++i) {
    serve::Request req;
    req.type = serve::RequestType::kCreateSession;
    req.spec.width = 8;
    req.spec.height = 8;
    req.spec.actions = 4;
    req.spec.seed = 1 + i;
    req.spec.telemetry = true;
    const serve::Ticket t = server.submit(req);
    ids.push_back(server.take(t).session);
  }
  for (int round = 0; round < 2; ++round) {
    std::vector<serve::Ticket> tickets;
    for (const serve::SessionId id : ids) {
      serve::Request req;
      req.type = serve::RequestType::kStep;
      req.session = id;
      req.steps = 64;
      tickets.push_back(server.submit(req));
    }
    server.drain();
    for (const serve::Ticket t : tickets) server.take(t);
  }
  {
    serve::Request req;
    req.type = serve::RequestType::kIntrospect;
    req.probe = serve::IntrospectProbe::kMetrics;
    server.take(server.submit(req));
  }

  std::string catalog;
  for (const char* doc : {"/serving.md", "/observability.md"}) {
    std::ifstream in(std::string(QTA_DOCS_DIR) + doc);
    ASSERT_TRUE(in.good()) << "missing doc " << doc;
    std::ostringstream os;
    os << in.rdbuf();
    catalog += os.str();
  }
  const std::vector<std::string> names = server.metrics().metric_names();
  EXPECT_FALSE(names.empty());
  for (const std::string& name : names) {
    EXPECT_NE(catalog.find("`" + name + "`"), std::string::npos)
        << "metric family `" << name
        << "` is registered but missing from the docs metric catalog "
           "(docs/serving.md or docs/observability.md)";
  }
}

// ---------------------------------------------------------------------
// HTTP introspection endpoint (pure request -> response function)

std::string status_line(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

// A HEAD reply: the headers end the response, with no body after them.
bool headers_only(const std::string& response) {
  const std::size_t end = response.find("\r\n\r\n");
  return end != std::string::npos && end + 4 == response.size();
}

TEST(HttpEndpoint, HealthzMetricsAndUnknownRoutes) {
  serve::ServerOptions options;
  serve::Server server(options);

  const std::string healthz =
      serve::handle_http(server, "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_line(healthz), "HTTP/1.0 200 OK");
  EXPECT_NE(healthz.find("ok\n"), std::string::npos);

  const std::string metrics =
      serve::handle_http(server, "GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_line(metrics), "HTTP/1.0 200 OK");
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("qtserve_requests_total"), std::string::npos);

  // Query strings are ignored for routing.
  EXPECT_EQ(status_line(serve::handle_http(
                server, "GET /healthz?verbose=1 HTTP/1.1\r\n\r\n")),
            "HTTP/1.0 200 OK");

  EXPECT_EQ(status_line(serve::handle_http(server,
                                           "GET /nope HTTP/1.1\r\n\r\n")),
            "HTTP/1.0 404 Not Found");
}

TEST(HttpEndpoint, FlightRecorderRouteDumpsJson) {
  serve::ServerOptions options;
  options.flight_recorder_capacity = 8;
  serve::Server server(options);
  {
    serve::Request req;
    req.type = serve::RequestType::kCreateSession;
    req.spec.width = 4;
    req.spec.height = 4;
    req.spec.actions = 4;
    req.spec.seed = 3;
    server.take(server.submit(req));
  }
  const std::string response =
      serve::handle_http(server, "GET /flightrecorder HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_line(response), "HTTP/1.0 200 OK");
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  JsonValue root;
  ASSERT_TRUE(JsonParser(response.substr(body_at + 4)).parse(&root));
  ASSERT_EQ(root.at("events").type, JsonValue::Type::kArray);
  EXPECT_GE(root.at("events").array.size(), 1u);
  EXPECT_EQ(root.at("events").array[0].at("kind").string, "session_created");
}

TEST(HttpEndpoint, FlightRecorderRouteIs404WhenDisabled) {
  serve::ServerOptions options;
  options.flight_recorder_capacity = 0;
  serve::Server server(options);
  EXPECT_EQ(status_line(serve::handle_http(
                server, "GET /flightrecorder HTTP/1.1\r\n\r\n")),
            "HTTP/1.0 404 Not Found");
  const std::string head =
      serve::handle_http(server, "HEAD /flightrecorder HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_line(head), "HTTP/1.0 404 Not Found");
  EXPECT_TRUE(headers_only(head)) << head;
}

TEST(HttpEndpoint, RejectsMalformedAndNonGetRequests) {
  serve::ServerOptions options;
  serve::Server server(options);
  EXPECT_EQ(status_line(serve::handle_http(server, "garbage")),
            "HTTP/1.0 400 Bad Request");
  EXPECT_EQ(status_line(serve::handle_http(server, "\r\n\r\n")),
            "HTTP/1.0 400 Bad Request");
  EXPECT_EQ(status_line(serve::handle_http(
                server, "POST /metrics HTTP/1.1\r\n\r\n")),
            "HTTP/1.0 405 Method Not Allowed");
  // HEAD gets status + headers and no body.
  const std::string head =
      serve::handle_http(server, "HEAD /healthz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_line(head), "HTTP/1.0 200 OK");
  EXPECT_TRUE(headers_only(head)) << head;
  // So does a HEAD the plane answers with an error.
  const std::string head_404 =
      serve::handle_http(server, "HEAD /nope HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_line(head_404), "HTTP/1.0 404 Not Found");
  EXPECT_TRUE(headers_only(head_404)) << head_404;
}

}  // namespace
}  // namespace qta::telemetry
