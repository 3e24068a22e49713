// qtrouterd — the shard router daemon (docs/sharding.md).
//
// Presents one QTSERVE-WIRE endpoint backed by a fleet of qtserved
// workers. The same single-threaded poll() discipline as qtserved: one
// loop owns the client listener, the outbound worker connections, and
// the HTTP plane; shard::Router is the transport-agnostic core and this
// file only moves bytes. A worker connection erroring or reaching EOF
// is a shard failure — the router fails its sessions over to the
// survivors from parked checkpoints and the replay log.
//
// Usage: qtrouterd --shards=host:port[:httpport],...
//                  [--port=7478] [--port-file=path]
//                  [--http-port=N] [--http-port-file=path]
//                  [--vnodes=64] [--checkpoint-every=64]
//                  [--migrate-every=0] [--flight-capacity=256]
//                  [--rebalance-interval-ms=0] [--rebalance-tolerance=0.25]
//                  [--verbose]
//
// --shards lists the workers, one id per entry in listing order. The
// optional third component is the worker's HTTP port; when every entry
// has one and --rebalance-interval-ms > 0, the manager loop scrapes
// each worker's qtserve_sessions_live / qtserve_sessions_hot gauges on
// that cadence, feeds hot totals into the router's own gauge, and
// executes plan_rebalance moves via live migration. The HTTP plane
// serves shard/http_plane.h routes plus /rebalance (an immediate
// scrape-and-plan pass, daemon-side because it needs sockets).
//
// A client Shutdown request shuts down the whole fleet: the router
// relays Shutdown to every worker and the daemon exits once every
// output buffer drains.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <list>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/json_writer.h"
#include "serve/protocol.h"
#include "serve/tcp.h"
#include "shard/http_plane.h"
#include "shard/router.h"
#include "shard/shard_manager.h"

using namespace qta;

namespace {

struct ShardEndpoint {
  std::string host;
  std::uint16_t port = 0;
  std::uint16_t http_port = 0;  // 0 = not scrapable
};

/// "host:port[:httpport],..." -> endpoints; nullopt on a malformed
/// entry.
std::optional<std::vector<ShardEndpoint>> parse_shards(
    const std::string& spec) {
  std::vector<ShardEndpoint> out;
  std::istringstream is(spec);
  std::string entry;
  while (std::getline(is, entry, ',')) {
    if (entry.empty()) continue;
    ShardEndpoint ep;
    const std::size_t first = entry.find(':');
    if (first == std::string::npos || first == 0) return std::nullopt;
    ep.host = entry.substr(0, first);
    const std::size_t second = entry.find(':', first + 1);
    try {
      const unsigned long port =
          std::stoul(entry.substr(first + 1, second - first - 1));
      const unsigned long http_port =
          second == std::string::npos ? 0
                                      : std::stoul(entry.substr(second + 1));
      if (port > 65535 || http_port > 65535) return std::nullopt;
      ep.port = static_cast<std::uint16_t>(port);
      ep.http_port = static_cast<std::uint16_t>(http_port);
    } catch (...) {
      return std::nullopt;
    }
    out.push_back(std::move(ep));
  }
  if (out.empty()) return std::nullopt;
  return out;
}

struct Peer {
  int fd = serve::kInvalidSocket;
  std::string inbuf;
  std::string outbuf;
  bool dead = false;
};

bool read_some(Peer& peer) {
  char chunk[65536];
  while (true) {
    const ssize_t r = ::recv(peer.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (r > 0) {
      peer.inbuf.append(chunk, static_cast<std::size_t>(r));
      continue;
    }
    if (r == 0) return false;  // orderly EOF
    return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  }
}

bool write_some(Peer& peer) {
  while (!peer.outbuf.empty()) {
    const ssize_t r = ::send(peer.fd, peer.outbuf.data(), peer.outbuf.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (r < 0) {
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
    peer.outbuf.erase(0, static_cast<std::size_t>(r));
  }
  return true;
}

struct HttpConnection {
  int fd = serve::kInvalidSocket;
  std::string inbuf;
  std::string outbuf;
  bool responded = false;
  bool dead = false;
};

/// Byte mover between the Router core and the socket buffers. Client
/// ids are daemon-assigned and map to live connections; shard ids index
/// the worker table.
class SocketHost : public shard::RouterHost {
 public:
  void send_to_client(shard::ClientId client, std::string payload) override {
    auto it = clients->find(client);
    if (it == clients->end()) return;  // hung up; drop
    it->second->outbuf += serve::frame(payload);
  }
  void send_to_shard(shard::ShardId shard, std::string payload) override {
    Peer& peer = *(*workers)[shard];
    if (peer.dead) return;
    peer.outbuf += serve::frame(payload);
  }
  std::map<shard::ClientId, Peer*>* clients = nullptr;
  std::vector<Peer*>* workers = nullptr;
};

/// One scrape-and-plan pass. Returns the executed plan as JSON.
std::string rebalance_pass(shard::Router& router,
                           const std::vector<ShardEndpoint>& endpoints,
                           double tolerance, bool verbose) {
  std::vector<shard::ShardLoad> loads;
  double hot_total = 0;
  bool scraped_any = false;
  for (shard::ShardId id = 0;
       id < static_cast<shard::ShardId>(endpoints.size()); ++id) {
    const ShardEndpoint& ep = endpoints[id];
    if (ep.http_port == 0 || router.sessions_on(id) == 0) {
      // Not scrapable or empty: it can still receive sessions, so it
      // participates with the router's own count.
      loads.push_back(shard::ShardLoad{
          id, static_cast<double>(router.sessions_on(id))});
      continue;
    }
    const std::optional<std::string> body =
        shard::http_get(ep.host, ep.http_port, "/metrics");
    if (!body.has_value()) continue;  // scrape failure: skip this shard
    scraped_any = true;
    loads.push_back(shard::ShardLoad{
        id,
        shard::scrape_gauge(*body, "qtserve_sessions_live").value_or(0)});
    hot_total +=
        shard::scrape_gauge(*body, "qtserve_sessions_hot").value_or(0);
  }
  if (scraped_any) router.set_hot_sessions(hot_total);
  const std::vector<shard::RebalanceMove> moves =
      shard::plan_rebalance(loads, tolerance);

  qta::JsonWriter json;
  json.begin_object();
  json.key("moves").begin_array();
  for (const shard::RebalanceMove& move : moves) {
    unsigned started = 0;
    for (const serve::SessionId id : router.sessions_of(move.from)) {
      if (started >= move.count) break;
      if (router.migrate(id, move.to)) ++started;
    }
    if (verbose) {
      std::cerr << "qtrouterd: rebalance " << started << " sessions "
                << move.from << " -> " << move.to << "\n";
    }
    json.begin_object();
    json.field("from", static_cast<std::uint64_t>(move.from));
    json.field("to", static_cast<std::uint64_t>(move.to));
    json.field("planned", static_cast<std::uint64_t>(move.count));
    json.field("started", static_cast<std::uint64_t>(started));
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const std::string shards_flag = flags.get_string("shards", "");
  shard::RouterOptions options;
  options.vnodes = static_cast<unsigned>(flags.get_int("vnodes", 64));
  options.checkpoint_every =
      static_cast<unsigned>(flags.get_int("checkpoint-every", 64));
  options.migrate_every =
      static_cast<unsigned>(flags.get_int("migrate-every", 0));
  options.flight_recorder_capacity =
      static_cast<std::size_t>(flags.get_int("flight-capacity", 256));
  const std::int64_t port_flag = flags.get_int("port", 7478);
  const std::string port_file = flags.get_string("port-file", "");
  const std::int64_t http_port_flag = flags.get_int("http-port", -1);
  const std::string http_port_file = flags.get_string("http-port-file", "");
  const std::int64_t rebalance_ms = flags.get_int("rebalance-interval-ms", 0);
  const double rebalance_tolerance =
      flags.get_double("rebalance-tolerance", 0.25);
  const bool verbose = flags.get_bool("verbose", false);
  for (const auto& unused : flags.unused()) {
    std::cerr << "qtrouterd: unknown flag --" << unused << "\n";
    return 2;
  }
  if (!serve::valid_port(port_flag) ||
      (flags.has("http-port") && !serve::valid_port(http_port_flag))) {
    std::cerr << "qtrouterd: --port and --http-port must be in 0..65535\n";
    return 2;
  }
  const auto port = static_cast<std::uint16_t>(port_flag);
  const std::optional<std::vector<ShardEndpoint>> endpoints =
      parse_shards(shards_flag);
  if (!endpoints.has_value()) {
    std::cerr << "qtrouterd: --shards=host:port[:httpport],... is required\n";
    return 2;
  }

  // Connect to every worker up front: a fleet that cannot assemble is a
  // deployment error, not a failover.
  std::vector<std::unique_ptr<Peer>> workers;
  for (const ShardEndpoint& ep : *endpoints) {
    std::string error;
    auto peer = std::make_unique<Peer>();
    peer->fd = serve::tcp_connect(ep.host, ep.port, &error);
    if (peer->fd == serve::kInvalidSocket) {
      std::cerr << "qtrouterd: shard " << ep.host << ":" << ep.port << ": "
                << error << "\n";
      return 1;
    }
    ::fcntl(peer->fd, F_SETFL, O_NONBLOCK);
    workers.push_back(std::move(peer));
  }

  std::string error;
  std::uint16_t bound_port = 0;
  int listen_fd = serve::tcp_listen(port, &bound_port, &error);
  if (listen_fd == serve::kInvalidSocket) {
    std::cerr << "qtrouterd: " << error << "\n";
    return 1;
  }
  ::fcntl(listen_fd, F_SETFL, O_NONBLOCK);
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << bound_port << "\n";
    if (!pf) {
      std::cerr << "qtrouterd: cannot write " << port_file << "\n";
      return 1;
    }
  }
  int http_fd = serve::kInvalidSocket;
  std::uint16_t http_port = 0;
  if (http_port_flag >= 0) {
    http_fd = serve::tcp_listen(static_cast<std::uint16_t>(http_port_flag),
                                &http_port, &error);
    if (http_fd == serve::kInvalidSocket) {
      std::cerr << "qtrouterd: http listener: " << error << "\n";
      return 1;
    }
    ::fcntl(http_fd, F_SETFL, O_NONBLOCK);
    if (!http_port_file.empty()) {
      std::ofstream pf(http_port_file);
      pf << http_port << "\n";
      if (!pf) {
        std::cerr << "qtrouterd: cannot write " << http_port_file << "\n";
        return 1;
      }
    }
  }

  std::map<shard::ClientId, std::unique_ptr<Peer>> client_conns;
  std::map<shard::ClientId, Peer*> client_ptrs;
  std::vector<Peer*> worker_ptrs;
  for (auto& w : workers) worker_ptrs.push_back(w.get());

  SocketHost host;
  host.clients = &client_ptrs;
  host.workers = &worker_ptrs;
  shard::Router router(options, &host);
  for (shard::ShardId id = 0;
       id < static_cast<shard::ShardId>(workers.size()); ++id) {
    router.add_shard(id);
  }

  std::cout << "qtrouterd listening on 127.0.0.1:" << bound_port << " ("
            << workers.size() << " shards, checkpoint-every="
            << options.checkpoint_every
            << " migrate-every=" << options.migrate_every << ")"
            << std::endl;
  if (http_fd != serve::kInvalidSocket) {
    std::cout << "qtrouterd http on 127.0.0.1:" << http_port
              << " (/metrics /healthz /shards /migrate /drain /checkpoint "
                 "/rebalance /flightrecorder)"
              << std::endl;
  }

  const bool scrapable = [&] {
    for (const ShardEndpoint& ep : *endpoints) {
      if (ep.http_port == 0) return false;
    }
    return true;
  }();
  auto next_rebalance = std::chrono::steady_clock::now();
  if (rebalance_ms > 0) {
    next_rebalance += std::chrono::milliseconds(rebalance_ms);
  }

  std::list<HttpConnection> http_conns;
  shard::ClientId next_client = 1;

  while (true) {
    std::vector<pollfd> fds;
    // Layout: [listener] [clients...] [workers...] [http listener]
    // [http conns...]. std::map/list keep pointers stable across the
    // iteration's inserts.
    if (listen_fd != serve::kInvalidSocket) {
      fds.push_back(pollfd{listen_fd, POLLIN, 0});
    }
    std::vector<std::pair<shard::ClientId, Peer*>> polled_clients;
    for (auto& [id, conn] : client_conns) {
      const short events = static_cast<short>(
          conn->outbuf.empty() ? POLLIN : (POLLIN | POLLOUT));
      fds.push_back(pollfd{conn->fd, events, 0});
      polled_clients.emplace_back(id, conn.get());
    }
    std::vector<std::pair<shard::ShardId, Peer*>> polled_workers;
    for (shard::ShardId id = 0;
         id < static_cast<shard::ShardId>(workers.size()); ++id) {
      Peer& peer = *workers[id];
      if (peer.dead) continue;
      const short events = static_cast<short>(
          peer.outbuf.empty() ? POLLIN : (POLLIN | POLLOUT));
      fds.push_back(pollfd{peer.fd, events, 0});
      polled_workers.emplace_back(id, &peer);
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

    if (router.shutdown_requested()) {
      bool flushed = true;
      for (auto& [id, conn] : client_conns) {
        if (!conn->outbuf.empty()) flushed = false;
      }
      for (auto& w : workers) {
        if (!w->dead && !w->outbuf.empty()) flushed = false;
      }
      if (flushed) break;
    }

    int timeout_ms = router.shutdown_requested() ? 0 : -1;
    if (rebalance_ms > 0 && scrapable && timeout_ms != 0) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
          next_rebalance - std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(std::max<std::int64_t>(
          0, std::min<std::int64_t>(until.count(), 60'000)));
    }
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n < 0 && errno != EINTR) {
      std::cerr << "qtrouterd: poll failed\n";
      return 1;
    }

    std::size_t idx = 0;
    if (listen_fd != serve::kInvalidSocket) {
      if ((fds[idx].revents & POLLIN) != 0) {
        while (true) {
          const int fd = ::accept(listen_fd, nullptr, nullptr);
          if (fd < 0) break;
          auto conn = std::make_unique<Peer>();
          conn->fd = fd;
          const shard::ClientId id = next_client++;
          client_ptrs[id] = conn.get();
          client_conns[id] = std::move(conn);
          if (verbose) {
            std::cerr << "qtrouterd: client " << id << " connected\n";
          }
        }
      }
      ++idx;
    }

    // Clients: ingest full frames, hand each payload to the router.
    for (auto& [id, conn] : polled_clients) {
      const short revents = fds[idx++].revents;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!read_some(*conn)) conn->dead = true;
      while (true) {
        bool oversized = false;
        std::optional<std::string> payload =
            serve::unframe(conn->inbuf, &oversized);
        if (oversized) {
          std::cerr << "qtrouterd: dropping client (oversized frame)\n";
          conn->dead = true;
          break;
        }
        if (!payload.has_value()) break;
        router.on_client_payload(id, std::move(*payload));
      }
    }

    // Workers: responses feed the router; EOF/error is a shard failure.
    for (auto& [id, peer] : polled_workers) {
      const short revents = fds[idx++].revents;
      if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool alive = read_some(*peer);
      while (true) {
        bool oversized = false;
        std::optional<std::string> payload =
            serve::unframe(peer->inbuf, &oversized);
        if (oversized) {
          alive = false;
          break;
        }
        if (!payload.has_value()) break;
        router.on_shard_payload(id, std::move(*payload));
      }
      if (!alive && !peer->dead) {
        // During fleet shutdown the workers close their side once
        // drained — that is completion, not failure.
        peer->dead = true;
        serve::tcp_close(peer->fd);
        peer->fd = serve::kInvalidSocket;
        if (!router.shutdown_requested()) {
          std::cerr << "qtrouterd: shard " << id << " failed, "
                    << router.sessions_on(id) << " sessions to recover\n";
          router.on_shard_failed(id);
        }
      }
    }

    // HTTP plane.
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
          char chunk[4096];
          while (true) {
            const ssize_t r =
                ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
            if (r > 0) {
              conn.inbuf.append(chunk, static_cast<std::size_t>(r));
              if (conn.inbuf.size() > (64u << 10)) {
                conn.dead = true;
                break;
              }
              continue;
            }
            if (r == 0) conn.dead = true;
            break;
          }
          if (conn.inbuf.find("\r\n\r\n") != std::string::npos ||
              conn.inbuf.find("\n\n") != std::string::npos) {
            // /rebalance is daemon-side (it scrapes workers over HTTP);
            // everything else is the pure plane.
            if (conn.inbuf.compare(0, 15, "GET /rebalance ") == 0 ||
                conn.inbuf.compare(0, 14, "GET /rebalance?") == 0) {
              const std::string body = rebalance_pass(
                  router, *endpoints, rebalance_tolerance, verbose);
              conn.outbuf = "HTTP/1.0 200 OK\r\nContent-Type: "
                            "application/json\r\nContent-Length: " +
                            std::to_string(body.size()) +
                            "\r\nConnection: close\r\n\r\n" + body;
            } else {
              conn.outbuf = shard::handle_router_http(router, conn.inbuf);
            }
            conn.responded = true;
          }
        }
      }
    }
    for (HttpConnection& conn : http_conns) {
      if (conn.dead) continue;
      Peer shim;  // reuse the nonblocking writer
      shim.fd = conn.fd;
      shim.outbuf = std::move(conn.outbuf);
      if (!write_some(shim)) conn.dead = true;
      conn.outbuf = std::move(shim.outbuf);
    }
    http_conns.remove_if([](HttpConnection& conn) {
      const bool finished =
          conn.dead || (conn.responded && conn.outbuf.empty());
      if (finished) serve::tcp_close(conn.fd);
      return finished;
    });

    // Periodic manager pass.
    if (rebalance_ms > 0 && scrapable &&
        std::chrono::steady_clock::now() >= next_rebalance) {
      (void)rebalance_pass(router, *endpoints, rebalance_tolerance, verbose);
      next_rebalance = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(rebalance_ms);
    }

    // Flush and reap.
    for (auto& [id, peer] : polled_workers) {
      if (!peer->dead && !write_some(*peer)) {
        peer->dead = true;
        serve::tcp_close(peer->fd);
        peer->fd = serve::kInvalidSocket;
        if (!router.shutdown_requested()) router.on_shard_failed(id);
      }
    }
    for (auto it = client_conns.begin(); it != client_conns.end();) {
      Peer& conn = *it->second;
      if (!conn.dead && !write_some(conn)) conn.dead = true;
      if (conn.dead) {
        serve::tcp_close(conn.fd);
        router.on_client_closed(it->first);
        client_ptrs.erase(it->first);
        it = client_conns.erase(it);
      } else {
        ++it;
      }
    }
  }

  serve::tcp_close(listen_fd);
  if (http_fd != serve::kInvalidSocket) serve::tcp_close(http_fd);
  for (auto& [id, conn] : client_conns) serve::tcp_close(conn->fd);
  for (auto& w : workers) {
    if (!w->dead) serve::tcp_close(w->fd);
  }
  for (HttpConnection& conn : http_conns) serve::tcp_close(conn.fd);
  std::cout << "qtrouterd: drained, exiting (" << router.migrations()
            << " migrations, " << router.failovers() << " failovers, "
            << router.checkpoints() << " checkpoints)" << std::endl;
  return 0;
}
