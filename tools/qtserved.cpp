// qtserved — the TCP frontend of the serving layer (docs/serving.md).
//
// A single-threaded poll() loop owns all sockets and the serve::Server
// control plane; engine work fans out onto the server's ThreadPool from
// inside Server::pump(). Per connection the loop keeps an input buffer
// (unframed with serve/protocol.h), an output buffer (nonblocking
// sends, partial writes carried over), and the FIFO of tickets still in
// flight — responses go back in request order, which is also the
// protocol's per-session ordering guarantee as long as a session stays
// on one connection.
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
// /flightrecorder) on the same poll loop — scrape connections are
// one-shot and never touch engine state. --flight-capacity sizes the
// flight-recorder ring (0 disables it). Cold sessions park as v3 base +
// dirty-row delta chains, serialized on the worker pool alongside each
// batch; MigrateOut ships a session's chain verbatim (docs/serving.md).
// Ports must lie in 0..65535 and --max-hot must be at least 1; an
// out-of-range value or an unknown flag exits 2 before anything binds
// (a value that is not a number at all aborts in CliFlags).
// A Shutdown request stops the accept loop, drains every staged
// request and output buffer, optionally writes the trace, and exits 0.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <deque>
#include <fstream>
#include <iostream>
#include <limits>
#include <list>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.h"
#include "serve/http_endpoint.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/tcp.h"

using namespace qta;

namespace {

struct Connection {
  int fd = serve::kInvalidSocket;
  std::string inbuf;
  std::string outbuf;
  std::deque<serve::Ticket> in_flight;  // response order == request order
  bool dead = false;
};

// Drains the socket into conn.inbuf. Returns false when the peer hung
// up or errored.
bool read_some(Connection& conn) {
  char chunk[65536];
  while (true) {
    const ssize_t r = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (r > 0) {
      conn.inbuf.append(chunk, static_cast<std::size_t>(r));
      continue;
    }
    if (r == 0) return false;  // orderly EOF
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
}

// Pushes conn.outbuf to the socket without blocking. Returns false on a
// hard send error.
bool write_some(Connection& conn) {
  while (!conn.outbuf.empty()) {
    const ssize_t r = ::send(conn.fd, conn.outbuf.data(), conn.outbuf.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (r < 0) {
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
    conn.outbuf.erase(0, static_cast<std::size_t>(r));
  }
  return true;
}

// One HTTP scrape: read until the blank line ending the request head,
// answer, flush, close. No keep-alive, no pipelining — Prometheus is
// happy with that and the loop stays trivial.
struct HttpConnection {
  int fd = serve::kInvalidSocket;
  std::string inbuf;
  std::string outbuf;
  bool responded = false;
  bool dead = false;
};

bool http_read_some(HttpConnection& conn) {
  char chunk[4096];
  while (true) {
    const ssize_t r = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (r > 0) {
      conn.inbuf.append(chunk, static_cast<std::size_t>(r));
      if (conn.inbuf.size() > (64u << 10)) return false;  // absurd head
      continue;
    }
    if (r == 0) return false;
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
}

bool http_write_some(HttpConnection& conn) {
  while (!conn.outbuf.empty()) {
    const ssize_t r = ::send(conn.fd, conn.outbuf.data(), conn.outbuf.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (r < 0) {
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
    conn.outbuf.erase(0, static_cast<std::size_t>(r));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  serve::ServerOptions options;
  const std::int64_t max_hot = flags.get_int("max-hot", 8);
  options.workers = static_cast<unsigned>(flags.get_int("workers", 4));
  options.max_queue =
      static_cast<std::size_t>(flags.get_int("max-queue", 64));
  const std::string trace_path = flags.get_string("trace", "");
  options.trace = !trace_path.empty();
  options.flight_recorder_capacity =
      static_cast<std::size_t>(flags.get_int("flight-capacity", 256));
  const std::int64_t port_flag = flags.get_int("port", 7477);
  const std::string port_file = flags.get_string("port-file", "");
  const std::int64_t http_port_flag = flags.get_int("http-port", -1);
  const std::string http_port_file = flags.get_string("http-port-file", "");
  const bool verbose = flags.get_bool("verbose", false);
  for (const auto& unused : flags.unused()) {
    std::cerr << "qtserved: unknown flag --" << unused << "\n";
    return 2;
  }
  if (!serve::valid_port(port_flag) ||
      (flags.has("http-port") && !serve::valid_port(http_port_flag))) {
    std::cerr << "qtserved: --port and --http-port must be in 0..65535\n";
    return 2;
  }
  if (max_hot < 1 || max_hot > std::numeric_limits<unsigned>::max()) {
    std::cerr << "qtserved: --max-hot must be in 1.."
              << std::numeric_limits<unsigned>::max() << "\n";
    return 2;
  }
  options.max_hot = static_cast<unsigned>(max_hot);
  const auto port = static_cast<std::uint16_t>(port_flag);

  std::string error;
  std::uint16_t bound_port = 0;
  int listen_fd = serve::tcp_listen(port, &bound_port, &error);
  if (listen_fd == serve::kInvalidSocket) {
    std::cerr << "qtserved: " << error << "\n";
    return 1;
  }
  // Nonblocking accepts: the loop drains the backlog after each POLLIN
  // and must not park inside accept() waiting for the next peer.
  ::fcntl(listen_fd, F_SETFL, O_NONBLOCK);
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << bound_port << "\n";
    if (!pf) {
      std::cerr << "qtserved: cannot write " << port_file << "\n";
      return 1;
    }
  }

  int http_fd = serve::kInvalidSocket;
  std::uint16_t http_port = 0;
  if (http_port_flag >= 0) {
    http_fd = serve::tcp_listen(static_cast<std::uint16_t>(http_port_flag),
                                &http_port, &error);
    if (http_fd == serve::kInvalidSocket) {
      std::cerr << "qtserved: http listener: " << error << "\n";
      return 1;
    }
    ::fcntl(http_fd, F_SETFL, O_NONBLOCK);
    if (!http_port_file.empty()) {
      std::ofstream pf(http_port_file);
      pf << http_port << "\n";
      if (!pf) {
        std::cerr << "qtserved: cannot write " << http_port_file << "\n";
        return 1;
      }
    }
  }

  serve::Server server(options);
  std::cout << "qtserved listening on 127.0.0.1:" << bound_port
            << " (max-hot=" << options.max_hot
            << " workers=" << options.workers
            << " max-queue=" << options.max_queue << ")" << std::endl;
  if (http_fd != serve::kInvalidSocket) {
    std::cout << "qtserved http on 127.0.0.1:" << http_port
              << " (/metrics /healthz /flightrecorder)" << std::endl;
  }

  std::list<Connection> conns;
  std::list<HttpConnection> http_conns;
  std::vector<serve::Ticket> orphans;  // tickets of closed connections

  while (true) {
    // Assemble the poll set: the listener (while accepting) + sockets.
    // `polled` mirrors the connection entries of `fds` — connections
    // accepted later this iteration are not in either (std::list keeps
    // the pointers stable across the push_backs).
    std::vector<pollfd> fds;
    std::vector<Connection*> polled;
    if (listen_fd != serve::kInvalidSocket) {
      fds.push_back(pollfd{listen_fd, POLLIN, 0});
    }
    for (Connection& conn : conns) {
      const short events = static_cast<short>(
          conn.outbuf.empty() ? POLLIN : (POLLIN | POLLOUT));
      fds.push_back(pollfd{conn.fd, events, 0});
      polled.push_back(&conn);
    }
    std::size_t http_listen_idx = fds.size();
    if (http_fd != serve::kInvalidSocket) {
      fds.push_back(pollfd{http_fd, POLLIN, 0});
    }
    std::vector<HttpConnection*> http_polled;
    for (HttpConnection& conn : http_conns) {
      const short events = static_cast<short>(
          conn.outbuf.empty() ? POLLIN : (POLLIN | POLLOUT));
      fds.push_back(pollfd{conn.fd, events, 0});
      http_polled.push_back(&conn);
    }
    const bool draining = server.shutdown_requested();
    if (draining && !server.pending() && orphans.empty()) {
      bool flushed = true;
      for (Connection& conn : conns) {
        if (!conn.outbuf.empty() || !conn.in_flight.empty()) {
          flushed = false;
        }
      }
      if (flushed) break;
    }
    const int timeout_ms =
        (server.pending() || !orphans.empty() || draining) ? 0 : -1;
    if (fds.empty() && timeout_ms < 0) break;  // nothing left to wait on
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n < 0 && errno != EINTR) {
      std::cerr << "qtserved: poll failed\n";
      return 1;
    }

    // Accept new peers.
    std::size_t idx = 0;
    if (listen_fd != serve::kInvalidSocket) {
      if ((fds[idx].revents & POLLIN) != 0) {
        while (true) {
          const int fd = ::accept(listen_fd, nullptr, nullptr);
          if (fd < 0) break;
          Connection conn;
          conn.fd = fd;
          conns.push_back(std::move(conn));
          if (verbose) std::cerr << "qtserved: accepted fd " << fd << "\n";
        }
      }
      ++idx;
    }

    // Ingest every readable connection fully, submitting each decoded
    // frame, BEFORE pumping: a burst from many sessions lands in one
    // queue generation and batches across sessions.
    for (Connection* conn_ptr : polled) {
      Connection& conn = *conn_ptr;
      const short revents = fds[idx++].revents;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (!read_some(conn)) conn.dead = true;
        while (!conn.dead) {
          bool oversized = false;
          std::optional<std::string> payload =
              serve::unframe(conn.inbuf, &oversized);
          if (oversized) {
            std::cerr << "qtserved: dropping peer (oversized frame)\n";
            conn.dead = true;
            break;
          }
          if (!payload.has_value()) break;
          std::string why;
          std::optional<serve::Request> req =
              serve::decode_request(*payload, &why);
          if (!req.has_value()) {
            serve::Response resp;
            resp.status = serve::Status::kError;
            resp.error = "bad request: " + why;
            conn.outbuf += serve::frame(serve::encode_response(resp));
            continue;
          }
          conn.in_flight.push_back(server.submit(*req));
        }
      }
    }

    // HTTP plane: accept scrapers, answer complete request heads. All
    // of it is registry/flight-recorder reads on the control thread —
    // by design it cannot touch sessions or engines.
    if (http_fd != serve::kInvalidSocket) {
      if ((fds[http_listen_idx].revents & POLLIN) != 0) {
        while (true) {
          const int fd = ::accept(http_fd, nullptr, nullptr);
          if (fd < 0) break;
          HttpConnection conn;
          conn.fd = fd;
          http_conns.push_back(std::move(conn));
        }
      }
    }
    {
      std::size_t http_idx =
          http_listen_idx + (http_fd != serve::kInvalidSocket ? 1 : 0);
      for (HttpConnection* conn_ptr : http_polled) {
        HttpConnection& conn = *conn_ptr;
        const short revents = fds[http_idx++].revents;
        if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
            !conn.responded) {
          if (!http_read_some(conn)) conn.dead = true;
          const std::size_t head_end = conn.inbuf.find("\r\n\r\n");
          if (head_end != std::string::npos ||
              conn.inbuf.find("\n\n") != std::string::npos) {
            conn.outbuf = serve::handle_http(server, conn.inbuf);
            conn.responded = true;
          }
        }
      }
    }
    for (HttpConnection& conn : http_conns) {
      if (!conn.dead && !http_write_some(conn)) conn.dead = true;
    }
    http_conns.remove_if([](HttpConnection& conn) {
      const bool finished =
          conn.dead || (conn.responded && conn.outbuf.empty());
      if (finished) serve::tcp_close(conn.fd);
      return finished;
    });

    if (server.pending()) server.pump();

    // Deliver finished responses in per-connection FIFO order, then
    // flush what the sockets will take.
    for (Connection& conn : conns) {
      while (!conn.in_flight.empty() &&
             server.done(conn.in_flight.front())) {
        serve::Response resp = server.take(conn.in_flight.front());
        conn.in_flight.pop_front();
        conn.outbuf += serve::frame(serve::encode_response(resp));
      }
      if (!conn.dead && !write_some(conn)) conn.dead = true;
    }

    // Reap dead connections; their unfinished tickets become orphans
    // that still need take()ing once they complete.
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->dead) {
        for (const serve::Ticket t : it->in_flight) orphans.push_back(t);
        serve::tcp_close(it->fd);
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
    std::erase_if(orphans, [&server](serve::Ticket t) {
      if (!server.done(t)) return false;
      (void)server.take(t);
      return true;
    });
  }

  serve::tcp_close(listen_fd);
  if (http_fd != serve::kInvalidSocket) serve::tcp_close(http_fd);
  for (Connection& conn : conns) serve::tcp_close(conn.fd);
  for (HttpConnection& conn : http_conns) serve::tcp_close(conn.fd);

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
