// The traced in-process replica of the serving tier.
//
// It runs the daemons' code paths without sockets: one shard::Router
// wired to two serve::Servers through this file's RouterHost, each
// worker driven like qtserved's poll loop (take every inbound frame,
// pump once, deliver finished replies in order). Every hop frames and
// unframes like the TCP path does, and every call into a layer's public
// functions sits inside a span: wire.encode / wire.decode (the codec
// plus frame/unframe), router.ingress / router.egress
// (Router::on_client_payload / on_shard_payload), server.submit,
// server.pump and server.take.
//
// The replay keeps the TCP run's concurrency: a request goes out once
// the replica's client has as many replies as the TCP client had when
// it sent it, and the workers poll only while the client waits for
// one. So a pump batches the requests that were outstanding together
// in the TCP run. That is an upper bound on what the daemons batched:
// some of those requests had already been served there, their replies
// still in transit.
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "serve.h"
#include "shard/router.h"

namespace qta::qtbench {

namespace {

using Clock = std::chrono::steady_clock;

class Replica final : public shard::RouterHost {
 public:
  Replica(const ServeShape& shape, Spans& spans) : spans_(spans) {
    for (unsigned i = 0; i < kShards; ++i) {
      shards_.push_back(std::make_unique<Shard>(server_options(shape)));
    }
    router_ = std::make_unique<shard::Router>(shard::RouterOptions{}, this);
    for (shard::ShardId id = 0; id < kShards; ++id) router_->add_shard(id);
  }

  /// Client `conn` sends `req`, tagged `id` (the client request id).
  void send(unsigned conn, std::uint64_t id, const serve::Request& req) {
    std::string frame;
    {
      Spans::Scope span(spans_, "wire.encode", id);
      frame = serve::frame(serve::encode_request(req));
    }
    client_bytes_ += frame.size();
    std::string payload = unframe(frame, id);
    const std::string verbatim = payload;
    forwarding_ = &verbatim;
    current_ = id;
    const shard::ClientId client = conn + 1;
    order_[client].push_back(id);
    {
      Spans::Scope span(spans_, "router.ingress", id);
      router_->on_client_payload(client, std::move(payload));
    }
    forwarding_ = nullptr;
    current_ = 0;
  }

  using Replies = std::vector<std::pair<std::uint64_t, serve::Response>>;

  /// One pass of every worker's poll loop; appends the client replies
  /// it produced to `replies` as (request id, response). False when
  /// nothing moved.
  bool poll(Replies& replies) {
    bool moved = false;
    for (shard::ShardId id = 0; id < kShards; ++id) {
      moved |= run_shard(id, *shards_[id]);
    }
    for (auto& [client, frame] : to_client_) {
      const std::uint64_t id = order_[client].front();
      order_[client].pop_front();
      client_bytes_ += frame.size();
      std::optional<serve::Response> resp;
      {
        Spans::Scope span(spans_, "wire.decode", id);
        std::optional<std::string> payload = serve::unframe(frame);
        resp = serve::decode_response(*payload);
      }
      QTA_CHECK_MSG(resp.has_value(), "replica: undecodable client reply");
      replies.emplace_back(id, std::move(*resp));
    }
    to_client_.clear();
    return moved;
  }

  /// Polls until nothing moves: every request sent has its reply.
  Replies settle() {
    Replies replies;
    while (poll(replies)) {
    }
    return replies;
  }

  void send_to_client(shard::ClientId client, std::string payload) override {
    Spans::Scope span(spans_, "wire.encode", current_);
    to_client_.emplace_back(client, serve::frame(payload));
  }

  void send_to_shard(shard::ShardId shard, std::string payload) override {
    const bool forward = forwarding_ != nullptr && payload == *forwarding_;
    if (!forward) {
      ++injected_;
      injected_bytes_ += payload.size();
    }
    Spans::Scope span(spans_, "wire.encode", current_);
    shards_[shard]->inbox.push_back(
        Inbound{serve::frame(payload), forward ? current_ : 0});
  }

  std::vector<serve::Server*> servers() {
    std::vector<serve::Server*> out;
    for (auto& s : shards_) out.push_back(&s->server);
    return out;
  }
  std::uint64_t client_bytes() const { return client_bytes_; }
  std::uint64_t injected() const { return injected_; }
  std::uint64_t injected_bytes() const { return injected_bytes_; }

 private:
  struct Inbound {
    std::string frame;
    std::uint64_t id;  // client request id; 0 = router-originated
  };
  struct Shard {
    explicit Shard(const serve::ServerOptions& options) : server(options) {}
    serve::Server server;
    std::deque<Inbound> inbox;
    std::deque<std::pair<serve::Ticket, std::uint64_t>> in_flight;
  };

  std::string unframe(std::string frame, std::uint64_t id) {
    Spans::Scope span(spans_, "wire.decode", id);
    std::optional<std::string> payload = serve::unframe(frame);
    QTA_CHECK_MSG(payload.has_value(), "replica: incomplete frame");
    return std::move(*payload);
  }

  bool run_shard(shard::ShardId id, Shard& shard) {
    bool moved = false;
    while (!shard.inbox.empty()) {
      moved = true;
      Inbound in = std::move(shard.inbox.front());
      shard.inbox.pop_front();
      std::optional<serve::Request> req;
      {
        Spans::Scope span(spans_, "wire.decode", in.id);
        std::optional<std::string> payload = serve::unframe(in.frame);
        req = serve::decode_request(*payload);
      }
      QTA_CHECK_MSG(req.has_value(), "replica: undecodable worker request");
      Spans::Scope span(spans_, "server.submit", in.id);
      shard.in_flight.emplace_back(shard.server.submit(*req), in.id);
    }
    if (shard.server.pending()) {
      moved = true;
      Spans::Scope span(spans_, "server.pump", 0);
      shard.server.pump();
    }
    while (!shard.in_flight.empty() &&
           shard.server.done(shard.in_flight.front().first)) {
      moved = true;
      const auto [ticket, request] = shard.in_flight.front();
      shard.in_flight.pop_front();
      serve::Response resp;
      {
        Spans::Scope span(spans_, "server.take", request);
        resp = shard.server.take(ticket);
      }
      std::string frame;
      {
        Spans::Scope span(spans_, "wire.encode", request);
        frame = serve::frame(serve::encode_response(resp));
      }
      std::string payload = unframe(std::move(frame), request);
      current_ = request;
      {
        Spans::Scope span(spans_, "router.egress", request);
        router_->on_shard_payload(id, std::move(payload));
      }
      current_ = 0;
    }
    return moved;
  }

  Spans& spans_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<shard::Router> router_;
  std::vector<std::pair<shard::ClientId, std::string>> to_client_;
  std::map<shard::ClientId, std::deque<std::uint64_t>> order_;
  const std::string* forwarding_ = nullptr;  // client bytes being routed
  std::uint64_t current_ = 0;                // request being routed
  std::uint64_t client_bytes_ = 0;
  std::uint64_t injected_ = 0;
  std::uint64_t injected_bytes_ = 0;
};

/// Counter totals over both servers, diffed around the measured requests.
struct ServerTotals {
  std::map<std::string, std::pair<double, double>> phases;
  std::pair<double, double> batch;
  std::uint64_t restores = 0;
  std::uint64_t park_bytes = 0;
  std::uint64_t delta_park_bytes = 0;

  static ServerTotals read(const std::vector<serve::Server*>& servers) {
    ServerTotals t;
    for (serve::Server* s : servers) {
      telemetry::MetricsRegistry& m = s->metrics();
      for (const char* phase :
           {"queue_wait", "restore", "execute", "checkpoint", "reply"}) {
        const telemetry::Histogram& h =
            m.histogram("qtserve_phase_us", {{"phase", phase}});
        t.phases[phase].first += static_cast<double>(h.sum());
        t.phases[phase].second += static_cast<double>(h.count());
      }
      const telemetry::Histogram& b = m.histogram("qtserve_batch_size");
      t.batch.first += static_cast<double>(b.sum());
      t.batch.second += static_cast<double>(b.count());
      t.restores += s->sessions().restores();
      for (const char* format : {"v2", "v3"}) {
        t.park_bytes += m.counter("qtserve_park_bytes_total",
                                  {{"format", format}, {"kind", "full"}})
                            .value();
      }
      t.delta_park_bytes +=
          m.counter("qtserve_park_bytes_total",
                    {{"format", "v3"}, {"kind", "delta"}})
              .value();
    }
    t.park_bytes += t.delta_park_bytes;
    return t;
  }
};

}  // namespace

ReplicaRun run_replica(const ServeShape& shape,
                       const std::vector<serve::SessionSpec>& specs,
                       const Plan& warmup, const Plan& load, Spans& spans,
                       Outcome& outcome) {
  const bool record = spans.enabled();
  spans.set_enabled(false);
  Replica replica(shape, spans);
  std::vector<serve::SessionId> ids(specs.size());
  std::vector<std::uint64_t> steps_done(specs.size(), 0);
  std::uint64_t next_id = 1;

  // Creates ride one connection, so the router numbers sessions in
  // index order exactly as the TCP run's creates do.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    serve::Request req;
    req.type = serve::RequestType::kCreateSession;
    req.spec = specs[i];
    replica.send(0, next_id++, req);
  }
  std::uint64_t created = 0;
  for (auto& [id, resp] : replica.settle()) {
    QTA_CHECK_MSG(resp.status == serve::Status::kOk, "replica: create failed");
    ids[created++] = resp.session;
  }

  // Replays plan.ops[from, to) after every op before `from` has its
  // reply, then waits for every reply of the range.
  const std::uint64_t first_op_id = next_id;
  std::vector<std::uint32_t> session_of;  // by request id - first_op_id
  const auto book = [&](const Replica::Replies& replies) {
    for (const auto& [id, resp] : replies) {
      if (resp.status == serve::Status::kOk &&
          resp.type == serve::RequestType::kStep) {
        ++steps_done[session_of[id - first_op_id]];
      }
    }
    return replies.size();
  };
  const auto replay = [&](const Plan& plan, std::size_t from,
                          std::size_t to) {
    std::uint64_t answered = from;
    for (std::size_t k = from; k < to; ++k) {
      const Op& op = plan.ops[k];
      while (answered < op.answered) {
        Replica::Replies replies;
        QTA_CHECK_MSG(replica.poll(replies), "replica: the tier stalled");
        answered += book(replies);
      }
      session_of.push_back(op.session);
      replica.send(op.session % kConnections, next_id++,
                   make_request(op, ids, shape));
    }
    book(replica.settle());
  };
  replay(warmup, 0, warmup.ops.size());
  replay(load, 0, load.measured_from);

  // The measured part: spans are recorded and counters diffed over
  // exactly the requests the TCP run measured.
  const std::uint64_t first_measured = next_id;
  const std::uint64_t bytes0 = replica.client_bytes();
  const std::uint64_t injected0 = replica.injected();
  const std::uint64_t injected_bytes0 = replica.injected_bytes();
  const ServerTotals before = ServerTotals::read(replica.servers());
  spans.set_enabled(record);
  const Clock::time_point t0 = Clock::now();
  replay(load, load.measured_from, load.ops.size());
  ReplicaRun run;
  run.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  run.layers = spans.totals();
  run.requests = next_id - first_measured;
  run.client_bytes = replica.client_bytes() - bytes0;
  run.injected = replica.injected() - injected0;
  run.injected_bytes = replica.injected_bytes() - injected_bytes0;
  const ServerTotals after = ServerTotals::read(replica.servers());
  for (const auto& [phase, total] : after.phases) {
    run.phases[phase] = {total.first - before.phases.at(phase).first,
                         total.second - before.phases.at(phase).second};
  }
  run.batch = {after.batch.first - before.batch.first,
               after.batch.second - before.batch.second};
  run.executed = static_cast<std::uint64_t>(run.phases["execute"].second);
  run.parks = static_cast<std::uint64_t>(run.phases["checkpoint"].second);
  run.restores = after.restores - before.restores;
  run.park_bytes = after.park_bytes - before.park_bytes;
  run.delta_park_bytes = after.delta_park_bytes - before.delta_park_bytes;

  // Correctness gate on the replica's own sessions (spans on, so the
  // twins' Engine::run_samples calls land in the trace).
  for (const std::uint32_t i : gate_sessions(steps_done)) {
    serve::Request req;
    req.type = serve::RequestType::kSnapshot;
    req.session = ids[i];
    replica.send(i % kConnections, next_id++, req);
    const auto replies = replica.settle();
    if (replies.size() != 1 ||
        replies[0].second.status != serve::Status::kOk ||
        replies[0].second.snapshot !=
            twin_snapshot(specs[i], shape.step, steps_done[i], spans)) {
      outcome.divergences.push_back(
          "replica session " + std::to_string(i) +
          ": snapshot differs from its local twin");
    }
  }
  return run;
}

}  // namespace qta::qtbench
