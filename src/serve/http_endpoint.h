// Minimal HTTP/1.0 introspection plane, shared by qtserved and
// qtrouterd (shard/http_plane.h).
//
// Prometheus and load balancers speak HTTP, not QTSERVE-WIRE, so each
// daemon exposes a second listener (serve/socket_loop.h) whose request
// handling is a pure function: given the raw request head (everything
// up to the blank line), produce the complete response bytes. Keeping it
// pure keeps the sockets in the loop and makes every route
// unit-testable without one.
//
// Both planes answer (GET only; HEAD gets the same status line without
// a body):
//   /healthz        -> 200 "ok\n"
//   /metrics        -> 200 Prometheus text exposition (version 0.0.4)
//   /flightrecorder -> 200 flight-recorder JSON dump, 404 when disabled
// Non-GET/HEAD methods are 405 and an unparsable request line is 400.
// qtserved has no other route (404). Every response closes the
// connection (Connection: close) — scrapes are one-shot by design.
#pragma once

#include <optional>
#include <string>

namespace qta::telemetry {
class FlightRecorder;
class MetricsRegistry;
}  // namespace qta::telemetry

namespace qta::serve {

class Server;

/// A parsed request line: METHOD SP TARGET [SP VERSION].
struct HttpRequest {
  std::string method;
  std::string target;  // the path, without the query
  std::string query;   // after '?', raw (empty when absent)
  bool head = false;   // HEAD: answer with the headers only
};

/// Parses the request line of `request_text`; nullopt when it has no
/// method and target.
std::optional<HttpRequest> parse_http_request(const std::string& request_text);

/// Complete HTTP/1.0 response bytes with `Connection: close`. The
/// Content-Length always counts `body`; HEAD replies leave it out
/// (`include_body` false).
std::string http_response(const char* status_line, const std::string& body,
                          const char* content_type, bool include_body = true);

/// The answers both planes share: 400 when `request` is nullopt, 405
/// for a method other than GET/HEAD, and the /healthz, /metrics and
/// /flightrecorder routes (`flight` null answers 404). nullopt when the
/// request names another route, for the plane to answer.
std::optional<std::string> shared_http_answer(
    const std::optional<HttpRequest>& request,
    const telemetry::MetricsRegistry& metrics,
    const telemetry::FlightRecorder* flight);

/// qtserved's plane: the shared answers, 404 for anything else.
/// `request_text` is the request head (request line + headers, with or
/// without the trailing blank line).
std::string handle_http(Server& server, const std::string& request_text);

}  // namespace qta::serve
