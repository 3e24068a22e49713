// LocalShard + LocalCluster: an in-process shard fleet.
//
// LocalShard wraps one serve::Server behind qtserved's connection
// semantics — raw request payloads in, raw response payloads out, in
// arrival order (the per-connection FIFO invariant the Router's
// response correlation rests on). Undecodable payloads synthesize the
// same error reply the daemon would send, slotted at their arrival
// position.
//
// LocalCluster glues a Router to N LocalShards through an in-memory
// RouterHost: client payloads go in via client_request(), responses
// come back ordered per client, and settle() spins the
// shard-pump/response loop until the system is quiescent. kill()
// drops a shard on the floor — undelivered bytes and all — and feeds
// the router the same on_shard_failed a daemon would derive from a
// dead socket, which is exactly the failover path the CI smoke kills
// a real worker to exercise. Tests drive the router through this
// harness so migration/failover behavior is pinned without sockets.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/server.h"
#include "shard/router.h"

namespace qta::shard {

class LocalShard {
 public:
  explicit LocalShard(const serve::ServerOptions& options = {});

  /// Accepts one raw request payload (arrival order = reply order).
  void submit(std::string payload);
  /// Pumps the server dry and returns every response payload that is
  /// ready, in submission order (stalls behind an unfinished earlier
  /// request, exactly like a daemon connection).
  std::vector<std::string> poll();

  bool shutdown_requested() const { return server_.shutdown_requested(); }
  serve::Server& server() { return server_; }

 private:
  struct Slot {
    bool ready = false;      // synthesized locally (decode error)
    serve::Ticket ticket = 0;
    std::string payload;
  };

  serve::Server server_;
  std::deque<Slot> slots_;
};

/// In-memory Router + fleet harness. Shard ids are 0..count-1.
class LocalCluster : public RouterHost {
 public:
  LocalCluster(unsigned shard_count, const RouterOptions& router_options,
               const serve::ServerOptions& shard_options = {});
  ~LocalCluster() override;

  /// Sends one client request payload into the router.
  void client_request(ClientId client, std::string payload);
  /// Responses delivered to `client` so far, in order (consumed).
  std::vector<std::string> take_responses(ClientId client);
  /// Spins shards and response plumbing until nothing moves.
  void settle();
  /// Simulates a worker crash: the shard's queued work is lost and the
  /// router sees the failure.
  void kill(ShardId shard);

  Router& router() { return *router_; }
  LocalShard* shard(ShardId id);

  // RouterHost:
  void send_to_client(ClientId client, std::string payload) override;
  void send_to_shard(ShardId shard, std::string payload) override;

 private:
  std::map<ShardId, std::unique_ptr<LocalShard>> shards_;
  std::unique_ptr<Router> router_;
  std::map<ClientId, std::vector<std::string>> responses_;
  bool moved_bytes_ = false;  // did the last settle pass do anything?
};

}  // namespace qta::shard
