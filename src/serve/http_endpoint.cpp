#include "serve/http_endpoint.h"

#include <cstddef>

#include "serve/server.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"

namespace qta::serve {

std::optional<HttpRequest> parse_http_request(
    const std::string& request_text) {
  // Tolerate a bare "METHOD TARGET" (no HTTP version) — curl never
  // sends it but the parse costs nothing.
  const std::string line =
      request_text.substr(0, request_text.find_first_of("\r\n"));
  const std::size_t method_end = line.find(' ');
  if (method_end == std::string::npos || method_end == 0) return std::nullopt;
  HttpRequest request;
  request.method = line.substr(0, method_end);
  request.head = request.method == "HEAD";
  std::size_t target_end = line.find(' ', method_end + 1);
  if (target_end == std::string::npos) target_end = line.size();
  request.target = line.substr(method_end + 1, target_end - method_end - 1);
  const std::size_t query = request.target.find('?');
  if (query != std::string::npos) {
    request.query = request.target.substr(query + 1);
    request.target.resize(query);
  }
  return request;
}

std::string http_response(const char* status_line, const std::string& body,
                          const char* content_type, bool include_body) {
  std::string out = "HTTP/1.0 ";
  out += status_line;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  if (include_body) out += body;
  return out;
}

std::optional<std::string> shared_http_answer(
    const std::optional<HttpRequest>& request,
    const telemetry::MetricsRegistry& metrics,
    const telemetry::FlightRecorder* flight) {
  if (!request.has_value()) {
    return http_response("400 Bad Request", "bad request\n", "text/plain");
  }
  if (request->method != "GET" && !request->head) {
    return http_response("405 Method Not Allowed", "only GET here\n",
                         "text/plain");
  }
  const bool body = !request->head;
  if (request->target == "/healthz") {
    return http_response("200 OK", "ok\n", "text/plain", body);
  }
  if (request->target == "/metrics") {
    return http_response("200 OK", metrics.prometheus_text(),
                         "text/plain; version=0.0.4", body);
  }
  if (request->target == "/flightrecorder") {
    if (flight == nullptr) {
      return http_response("404 Not Found", "flight recorder disabled\n",
                           "text/plain");
    }
    return http_response("200 OK", flight->json_text(), "application/json",
                         body);
  }
  return std::nullopt;
}

std::string handle_http(Server& server, const std::string& request_text) {
  // Scrapers may append query strings (?format=...); the routes ignore
  // them.
  std::optional<std::string> answer = shared_http_answer(
      parse_http_request(request_text), server.metrics(), server.flight());
  if (answer.has_value()) return *answer;
  return http_response("404 Not Found", "no such route\n", "text/plain");
}

}  // namespace qta::serve
