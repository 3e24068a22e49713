// qtrouterd — the shard router daemon (docs/sharding.md).
//
// Presents one QTSERVE-WIRE endpoint backed by a fleet of qtserved
// workers. Like qtserved it runs on serve::SocketLoop, which owns the
// client listener, the worker links and the HTTP plane; shard::Router
// is the transport-agnostic core and this file only wires the two
// together. A worker link erroring or reaching EOF is a shard failure —
// the router fails its sessions over to the survivors from parked
// checkpoints and the replay log.
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
// --verbose logs client closes and rebalance moves. Ports must lie in
// 0..65535 and no count may be negative or overflow its field; an
// out-of-range value, a malformed --shards or an unknown flag exits 2
// before anything connects.
//
// A client Shutdown request shuts down the whole fleet: the router
// relays Shutdown to every worker and the daemon exits once every
// output buffer drains.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/json_writer.h"
#include "serve/http_endpoint.h"
#include "serve/socket_loop.h"
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

/// Byte mover between the Router core and the SocketLoop. Client ids
/// are the loop's connection ids; shard ids index the worker links.
class SocketHost : public shard::RouterHost {
 public:
  void send_to_client(shard::ClientId client, std::string payload) override {
    loop->send(client, payload);
  }
  void send_to_shard(shard::ShardId shard, std::string payload) override {
    loop->send(workers[shard], payload);
  }
  /// The shard whose link is `conn`; nullopt for a client.
  std::optional<shard::ShardId> shard_of(serve::ConnId conn) const {
    const auto it = std::find(workers.begin(), workers.end(), conn);
    if (it == workers.end()) return std::nullopt;
    return static_cast<shard::ShardId>(it - workers.begin());
  }
  serve::SocketLoop* loop = nullptr;
  std::vector<serve::ConnId> workers;  // shard id -> its link
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
  const std::int64_t vnodes = flags.get_int("vnodes", 64);
  const std::int64_t checkpoint_every = flags.get_int("checkpoint-every", 64);
  const std::int64_t migrate_every = flags.get_int("migrate-every", 0);
  const std::int64_t flight_capacity = flags.get_int("flight-capacity", 256);
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
  if (!flag_fits<std::uint16_t>(port_flag) ||
      (flags.has("http-port") && !flag_fits<std::uint16_t>(http_port_flag))) {
    std::cerr << "qtrouterd: --port and --http-port must be in 0..65535\n";
    return 2;
  }
  if (!flag_fits<unsigned>(vnodes) || !flag_fits<unsigned>(checkpoint_every) ||
      !flag_fits<unsigned>(migrate_every) ||
      !flag_fits<std::size_t>(flight_capacity)) {
    std::cerr << "qtrouterd: --vnodes, --checkpoint-every and --migrate-every "
                 "must be in 0.."
              << std::numeric_limits<unsigned>::max()
              << " and --flight-capacity at least 0\n";
    return 2;
  }
  const std::optional<std::vector<ShardEndpoint>> endpoints =
      parse_shards(shards_flag);
  if (!endpoints.has_value()) {
    std::cerr << "qtrouterd: --shards=host:port[:httpport],... is required\n";
    return 2;
  }
  shard::RouterOptions options;
  options.vnodes = static_cast<unsigned>(vnodes);
  options.checkpoint_every = static_cast<unsigned>(checkpoint_every);
  options.migrate_every = static_cast<unsigned>(migrate_every);
  options.flight_recorder_capacity =
      static_cast<std::size_t>(flight_capacity);

  SocketHost host;
  shard::Router router(options, &host);
  serve::SocketLoop loop({
      .on_frame =
          [&](serve::ConnId conn, std::string payload) {
            if (const auto shard = host.shard_of(conn)) {
              router.on_shard_payload(*shard, std::move(payload));
            } else {
              router.on_client_payload(conn, std::move(payload));
            }
          },
      .on_closed =
          [&](serve::ConnId conn, bool oversized) {
            const std::optional<shard::ShardId> shard = host.shard_of(conn);
            if (!shard.has_value()) {
              if (oversized) {
                std::cerr << "qtrouterd: dropped client " << conn
                          << " (oversized frame)\n";
              } else if (verbose) {
                std::cerr << "qtrouterd: client " << conn << " closed\n";
              }
              router.on_client_closed(conn);
              return;
            }
            // A worker link closing is a shard failure, unless the fleet
            // is shutting down: then the workers close their side once
            // drained. A drained shard's worker closes after the router
            // has already let go of it.
            if (router.shutdown_requested() || !router.has_shard(*shard)) {
              return;
            }
            std::cerr << "qtrouterd: shard " << *shard << " failed, "
                      << router.sessions_on(*shard) << " sessions to recover\n";
            router.on_shard_failed(*shard);
          },
      // /rebalance is daemon-side (it scrapes the workers over HTTP);
      // everything else is the pure plane.
      .on_http =
          [&](const std::string& head) {
            const std::optional<serve::HttpRequest> request =
                serve::parse_http_request(head);
            if (request.has_value() && request->target == "/rebalance" &&
                (request->method == "GET" || request->head)) {
              return serve::http_response(
                  "200 OK",
                  rebalance_pass(router, *endpoints, rebalance_tolerance,
                                 verbose),
                  "application/json", !request->head);
            }
            return shard::handle_router_http(router, head);
          },
  });
  host.loop = &loop;

  // Connect to every worker up front: a fleet that cannot assemble is a
  // deployment error, not a failover.
  std::string error;
  for (const ShardEndpoint& ep : *endpoints) {
    const int fd = serve::tcp_connect(ep.host, ep.port, &error);
    if (fd == serve::kInvalidSocket) {
      std::cerr << "qtrouterd: shard " << ep.host << ":" << ep.port << ": "
                << error << "\n";
      return 1;
    }
    host.workers.push_back(loop.adopt(fd));
    router.add_shard(static_cast<shard::ShardId>(host.workers.size() - 1));
  }

  const std::optional<std::uint16_t> bound_port = loop.listen(
      static_cast<std::uint16_t>(port_flag), false, port_file, &error);
  if (!bound_port.has_value()) {
    std::cerr << "qtrouterd: " << error << "\n";
    return 1;
  }
  std::optional<std::uint16_t> http_port;
  if (http_port_flag >= 0) {
    http_port = loop.listen(static_cast<std::uint16_t>(http_port_flag), true,
                            http_port_file, &error);
    if (!http_port.has_value()) {
      std::cerr << "qtrouterd: http listener: " << error << "\n";
      return 1;
    }
  }

  std::cout << "qtrouterd listening on 127.0.0.1:" << *bound_port << " ("
            << host.workers.size() << " shards, checkpoint-every="
            << options.checkpoint_every
            << " migrate-every=" << options.migrate_every << ")"
            << std::endl;
  if (http_port.has_value()) {
    std::cout << "qtrouterd http on 127.0.0.1:" << *http_port
              << " (/metrics /healthz /shards /migrate /drain /checkpoint "
                 "/rebalance /flightrecorder)"
              << std::endl;
  }

  const bool scrapable =
      std::all_of(endpoints->begin(), endpoints->end(),
                  [](const ShardEndpoint& ep) { return ep.http_port != 0; });
  auto next_rebalance = std::chrono::steady_clock::now();
  if (rebalance_ms > 0) {
    next_rebalance += std::chrono::milliseconds(rebalance_ms);
  }

  while (true) {
    if (router.shutdown_requested() && loop.flushed()) break;
    int timeout_ms = router.shutdown_requested() ? 0 : -1;
    if (rebalance_ms > 0 && scrapable && timeout_ms != 0) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
          next_rebalance - std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(std::max<std::int64_t>(
          0, std::min<std::int64_t>(until.count(), 60'000)));
    }
    if (!loop.run_once(timeout_ms)) {
      std::cerr << "qtrouterd: poll failed\n";
      return 1;
    }
    // Periodic manager pass.
    if (rebalance_ms > 0 && scrapable &&
        std::chrono::steady_clock::now() >= next_rebalance) {
      (void)rebalance_pass(router, *endpoints, rebalance_tolerance, verbose);
      next_rebalance = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(rebalance_ms);
    }
  }

  std::cout << "qtrouterd: drained, exiting (" << router.migrations()
            << " migrations, " << router.failovers() << " failovers, "
            << router.checkpoints() << " checkpoints)" << std::endl;
  return 0;
}
