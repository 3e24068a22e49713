// qtserved — the TCP frontend of the serving layer (docs/serving.md).
//
// The daemon runs on serve::SocketLoop, which owns every socket; this
// file owns the serve::Server control plane and, per connection, the
// FIFO of tickets still in flight. Engine work fans out onto the
// server's ThreadPool from inside Server::pump(). Responses go back in
// request order, which is also the protocol's per-session ordering
// guarantee as long as a session stays on one connection.
//
// Usage: qtserved [--port=7477] [--port-file=path]
//                 [--max-hot=8] [--workers=4] [--max-queue=64]
//                 [--trace=out.json] [--verbose]
//                 [--http-port=N] [--http-port-file=path]
//                 [--flight-capacity=256]
//
// --port=0 lets the kernel pick; --port-file writes the bound port for
// scripts. --http-port opens a second listener speaking plain HTTP
// (serve/http_endpoint.h: /metrics for Prometheus, /healthz,
// /flightrecorder) on the same loop — scrape connections are one-shot
// and never touch engine state. --flight-capacity sizes the
// flight-recorder ring (0 disables it). --verbose logs each closed
// connection. Cold sessions park as v3 base + dirty-row delta chains,
// serialized on the worker pool alongside each batch; MigrateOut ships
// a session's chain verbatim (docs/serving.md).
// Ports must lie in 0..65535, --max-hot, --workers and --max-queue must
// be at least 1, and no count may be negative or overflow its field; an
// out-of-range value or an unknown flag exits 2 before anything binds
// (a value that is not a number at all aborts in CliFlags).
// A Shutdown request drains every staged request and output buffer,
// optionally writes the trace, and exits 0.
#include <deque>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "serve/http_endpoint.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket_loop.h"

using namespace qta;

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::int64_t max_hot = flags.get_int("max-hot", 8);
  const std::int64_t workers = flags.get_int("workers", 4);
  const std::int64_t max_queue = flags.get_int("max-queue", 64);
  const std::string trace_path = flags.get_string("trace", "");
  const std::int64_t flight_capacity = flags.get_int("flight-capacity", 256);
  const std::int64_t port_flag = flags.get_int("port", 7477);
  const std::string port_file = flags.get_string("port-file", "");
  const std::int64_t http_port_flag = flags.get_int("http-port", -1);
  const std::string http_port_file = flags.get_string("http-port-file", "");
  const bool verbose = flags.get_bool("verbose", false);
  for (const auto& unused : flags.unused()) {
    std::cerr << "qtserved: unknown flag --" << unused << "\n";
    return 2;
  }
  if (!flag_fits<std::uint16_t>(port_flag) ||
      (flags.has("http-port") && !flag_fits<std::uint16_t>(http_port_flag))) {
    std::cerr << "qtserved: --port and --http-port must be in 0..65535\n";
    return 2;
  }
  if (!flag_fits<unsigned>(max_hot, 1) || !flag_fits<unsigned>(workers, 1)) {
    std::cerr << "qtserved: --max-hot and --workers must be in 1.."
              << std::numeric_limits<unsigned>::max() << "\n";
    return 2;
  }
  if (!flag_fits<std::size_t>(max_queue, 1) ||
      !flag_fits<std::size_t>(flight_capacity)) {
    std::cerr << "qtserved: --max-queue must be at least 1 and "
                 "--flight-capacity at least 0\n";
    return 2;
  }
  serve::ServerOptions options;
  options.max_hot = static_cast<unsigned>(max_hot);
  options.workers = static_cast<unsigned>(workers);
  options.max_queue = static_cast<std::size_t>(max_queue);
  options.trace = !trace_path.empty();
  options.flight_recorder_capacity =
      static_cast<std::size_t>(flight_capacity);
  serve::Server server(options);

  // Per connection, the tickets still owed a response, in request order.
  std::map<serve::ConnId, std::deque<serve::Ticket>> in_flight;
  std::vector<serve::Ticket> orphans;  // tickets of closed connections
  serve::SocketLoop loop({
      .on_frame =
          [&](serve::ConnId conn, std::string payload) {
            std::string why;
            std::optional<serve::Request> req =
                serve::decode_request(payload, &why);
            if (!req.has_value()) {
              serve::Response resp;
              resp.status = serve::Status::kError;
              resp.error = "bad request: " + why;
              loop.send(conn, serve::encode_response(resp));
              return;
            }
            in_flight[conn].push_back(server.submit(*req));
          },
      // Unfinished tickets become orphans that still need take()ing
      // once they complete.
      .on_closed =
          [&](serve::ConnId conn, bool oversized) {
            std::size_t owed = 0;
            if (const auto it = in_flight.find(conn); it != in_flight.end()) {
              owed = it->second.size();
              orphans.insert(orphans.end(), it->second.begin(),
                             it->second.end());
              in_flight.erase(it);
            }
            if (oversized) {
              std::cerr << "qtserved: dropped connection " << conn
                        << " (oversized frame)\n";
            } else if (verbose) {
              std::cerr << "qtserved: connection " << conn << " closed, "
                        << owed << " requests in flight\n";
            }
          },
      // Registry and flight-recorder reads on the control thread: by
      // design a scrape cannot touch sessions or engines.
      .on_http =
          [&](const std::string& head) {
            return serve::handle_http(server, head);
          },
  });

  std::string error;
  const std::optional<std::uint16_t> bound_port = loop.listen(
      static_cast<std::uint16_t>(port_flag), false, port_file, &error);
  if (!bound_port.has_value()) {
    std::cerr << "qtserved: " << error << "\n";
    return 1;
  }
  std::optional<std::uint16_t> http_port;
  if (http_port_flag >= 0) {
    http_port = loop.listen(static_cast<std::uint16_t>(http_port_flag), true,
                            http_port_file, &error);
    if (!http_port.has_value()) {
      std::cerr << "qtserved: http listener: " << error << "\n";
      return 1;
    }
  }
  std::cout << "qtserved listening on 127.0.0.1:" << *bound_port
            << " (max-hot=" << options.max_hot
            << " workers=" << options.workers
            << " max-queue=" << options.max_queue << ")" << std::endl;
  if (http_port.has_value()) {
    std::cout << "qtserved http on 127.0.0.1:" << *http_port
              << " (/metrics /healthz /flightrecorder)" << std::endl;
  }

  while (true) {
    const bool draining = server.shutdown_requested();
    if (draining && !server.pending() && orphans.empty() &&
        in_flight.empty() && loop.flushed()) {
      break;
    }
    // A pass takes in every readable connection's frames before the
    // pump: a burst from many sessions lands in one queue generation
    // and batches across sessions.
    const int timeout_ms =
        (server.pending() || !orphans.empty() || draining) ? 0 : -1;
    if (!loop.run_once(timeout_ms)) {
      std::cerr << "qtserved: poll failed\n";
      return 1;
    }
    if (server.pending()) server.pump();

    // Deliver finished responses in per-connection FIFO order.
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      std::deque<serve::Ticket>& tickets = it->second;
      while (!tickets.empty() && server.done(tickets.front())) {
        loop.send(it->first,
                  serve::encode_response(server.take(tickets.front())));
        tickets.pop_front();
      }
      it = tickets.empty() ? in_flight.erase(it) : std::next(it);
    }
    std::erase_if(orphans, [&server](serve::Ticket t) {
      if (!server.done(t)) return false;
      (void)server.take(t);
      return true;
    });
  }

  if (!trace_path.empty() && server.trace() != nullptr) {
    if (!server.trace()->write_file(trace_path)) {
      std::cerr << "qtserved: failed to write " << trace_path << "\n";
      return 1;
    }
  }
  std::cout << "qtserved: drained, exiting ("
            << server.sessions().lru_evictions() << " LRU evictions, "
            << server.sessions().restores() << " restores)" << std::endl;
  return 0;
}
