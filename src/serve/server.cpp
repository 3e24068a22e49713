#include "serve/server.h"

#include <sstream>
#include <utility>
#include <vector>

#include "common/check.h"
#include "runtime/lane_coalescer.h"
#include "runtime/snapshot.h"

namespace qta::serve {

namespace {

Response error_response(const Request& req, std::string message) {
  Response resp;
  resp.status = Status::kError;
  resp.type = req.type;
  resp.session = req.session;
  resp.error = std::move(message);
  return resp;
}

bool is_session_scoped(RequestType type) {
  switch (type) {
    case RequestType::kStep:
    case RequestType::kQuery:
    case RequestType::kSnapshot:
    case RequestType::kEvict:
    case RequestType::kClose:
    case RequestType::kMigrateOut:
      // Queued like Evict/Close so a migration drains the session's
      // earlier staged requests first (FIFO quiesce).
      return true;
    default:
      return false;
  }
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      flight_(options.flight_recorder_capacity > 0
                  ? std::make_unique<telemetry::FlightRecorder>(
                        options.flight_recorder_capacity)
                  : nullptr),
      sessions_(options.max_hot, &metrics_, flight_.get()),
      queue_(options.max_queue),
      pool_(options.workers == 0 ? 1 : options.workers),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.trace) {
    trace_ = std::make_unique<telemetry::TraceSession>();
    trace_->set_process_name(0, "qtserved requests");
    trace_->set_process_name(1, "qtserved lane groups");
  }
  for (unsigned t = 0; t <= static_cast<unsigned>(RequestType::kMigrateIn);
       ++t) {
    requests_by_type_[t] = &metrics_.counter(
        "qtserve_requests_total",
        {{"type", request_type_name(static_cast<RequestType>(t))}},
        "requests accepted, by request type");
  }
  overloads_ = &metrics_.counter(
      "qtserve_overload_total", {},
      "session requests refused by admission control");
  errors_ = &metrics_.counter("qtserve_errors_total", {},
                              "requests answered with an error status");
  sessions_created_ =
      &metrics_.counter("qtserve_sessions_created_total", {});
  sessions_closed_ = &metrics_.counter("qtserve_sessions_closed_total", {});
  sessions_live_ = &metrics_.gauge("qtserve_sessions_live", {},
                                   "logical sessions currently registered");
  sessions_hot_ = &metrics_.gauge("qtserve_sessions_hot", {},
                                  "sessions with a resident engine");
  queue_depth_ = &metrics_.histogram(
      "qtserve_queue_depth", {}, "staged requests, observed at admission");
  batch_size_ = &metrics_.histogram(
      "qtserve_batch_size", {}, "engine requests executed per pump batch");
}

Server::~Server() = default;

std::uint64_t Server::now_us() const {
  // When tracing, the trace session's clock IS the server clock, so
  // span timestamps stamped here and spans emitted inside the runtime
  // (lane-group attribution) share one epoch.
  if (trace_ != nullptr) return trace_->now_us();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Server::update_gauges() {
  sessions_live_->set(static_cast<double>(sessions_.size()));
  sessions_hot_->set(static_cast<double>(sessions_.hot_count()));
}

Ticket Server::submit(const Request& req) {
  const Ticket ticket = next_ticket_++;
  requests_by_type_[static_cast<unsigned>(req.type)]->inc();
  QueuedRequest qr;
  qr.ticket = ticket;
  qr.request = req;
  qr.submit_us = now_us();

  if (is_session_scoped(req.type)) {
    if (!sessions_.exists(req.session)) {
      finish(qr, error_response(req, "unknown session"));
      return ticket;
    }
    qr.enqueue_us = now_us();
    if (!queue_.push(qr)) {
      overloads_->inc();
      if (flight_ != nullptr) {
        telemetry::ServeEvent event;
        event.kind = telemetry::ServeEventKind::kOverload;
        event.session = req.session;
        event.label = request_type_name(req.type);
        event.value = queue_.depth();
        flight_->record(event);
      }
      Response resp;
      resp.status = Status::kOverloaded;
      resp.type = req.type;
      resp.session = req.session;
      resp.error = "admission queue full; retry";
      finish(qr, std::move(resp));
      return ticket;
    }
    queue_depth_->observe(queue_.depth());
    return ticket;
  }

  Response resp;
  resp.type = req.type;
  resp.session = req.session;
  switch (req.type) {
    case RequestType::kCreateSession: {
      const std::string problem = validate_spec(req.spec);
      if (!problem.empty()) {
        resp = error_response(req, problem);
        break;
      }
      resp.session = sessions_.create(req.spec);
      sessions_created_->inc();
      if (flight_ != nullptr) {
        telemetry::ServeEvent event;
        event.kind = telemetry::ServeEventKind::kSessionCreated;
        event.session = resp.session;
        flight_->record(event);
      }
      break;
    }
    case RequestType::kStats:
      resp.stats_json = metrics_.json_text();
      resp.stats_prometheus = metrics_.prometheus_text();
      break;
    case RequestType::kIntrospect:
      resp = introspect(req);
      break;
    case RequestType::kMigrateIn: {
      std::string image_error;
      std::optional<MigrationImage> image =
          decode_migration_image(req.payload, &image_error);
      if (!image.has_value()) {
        resp = error_response(req, "migrate_in: " + image_error);
        break;
      }
      const std::string problem =
          sessions_.adopt_session(req.session, *image);
      if (!problem.empty()) resp = error_response(req, problem);
      break;
    }
    case RequestType::kPing:
      break;
    case RequestType::kShutdown:
      shutdown_ = true;
      break;
    default:
      resp = error_response(req, "request type cannot be submitted");
      break;
  }
  update_gauges();
  finish(qr, std::move(resp));
  return ticket;
}

Response Server::introspect(const Request& req) {
  Response resp;
  resp.type = req.type;
  resp.session = req.session;
  switch (req.probe) {
    case IntrospectProbe::kMetrics:
      resp.introspect_json = metrics_.json_text();
      resp.stats_json = resp.introspect_json;
      resp.stats_prometheus = metrics_.prometheus_text();
      break;
    case IntrospectProbe::kFlightRecorder:
      if (flight_ == nullptr) {
        return error_response(req, "flight recorder disabled");
      }
      resp.introspect_json = flight_->json_text();
      break;
    case IntrospectProbe::kSession:
      if (!sessions_.exists(req.session)) {
        return error_response(req, "unknown session");
      }
      resp.introspect_json = sessions_.summary_json(req.session);
      break;
    case IntrospectProbe::kShards:
      // Topology lives on the router; a worker knows only itself.
      return error_response(req, "shards probe: this is a worker, not a router");
  }
  return resp;
}

Response Server::execute(const Request& req, runtime::Engine& engine) {
  Response resp;
  resp.type = req.type;
  resp.session = req.session;
  switch (req.type) {
    case RequestType::kStep: {
      // run_samples takes an absolute sample target; Step(n) advances
      // the session BY n. The pipeline may overshoot by its depth when
      // draining, so the base is whatever the session retired so far.
      engine.run_samples(engine.stats().samples + req.steps);
      const qtaccel::PipelineStats& stats = engine.stats();
      resp.samples = stats.samples;
      resp.episodes = stats.episodes;
      resp.cycles = stats.cycles;
      break;
    }
    case RequestType::kQuery: {
      const env::Environment& env = engine.environment();
      if (req.state >= env.num_states()) {
        return error_response(req, "state id out of range");
      }
      const ActionId actions = env.num_actions();
      resp.q_row.reserve(actions);
      ActionId best = 0;
      fixed::raw_t best_raw = engine.q_raw(req.state, 0);
      for (ActionId a = 0; a < actions; ++a) {
        resp.q_row.push_back(engine.q_value(req.state, a));
        const fixed::raw_t raw = engine.q_raw(req.state, a);
        if (raw > best_raw) {  // ties keep the lowest action id
          best_raw = raw;
          best = a;
        }
      }
      resp.action = best;
      const qtaccel::PipelineStats& stats = engine.stats();
      resp.samples = stats.samples;
      resp.episodes = stats.episodes;
      resp.cycles = stats.cycles;
      break;
    }
    case RequestType::kSnapshot: {
      std::ostringstream os;
      runtime::save_snapshot(engine, os);
      resp.snapshot = std::move(os).str();
      break;
    }
    default:
      return error_response(req, "request type is not engine work");
  }
  return resp;
}

bool Server::pump() {
  std::vector<QueuedRequest> popped = queue_.pop_batch(options_.max_hot);

  // Split control work (inline) from engine work (pool). Evict/Close
  // mutate the LRU and session map, so they run here on the control
  // thread; the engine requests are acquired hot afterwards — at most
  // max_hot of them, so acquiring one cannot evict another batch member.
  struct Item {
    QueuedRequest qr;
    runtime::Engine* engine;
    Response resp;
  };
  std::vector<Item> batch;
  batch.reserve(popped.size());
  for (QueuedRequest& qr : popped) {
    qr.pop_us = now_us();
    const Request& req = qr.request;
    if (!sessions_.exists(req.session)) {
      // Closed while staged (Close is FIFO like everything else).
      finish(qr, error_response(req, "unknown session"));
      continue;
    }
    if (req.type == RequestType::kMigrateOut) {
      // Runs on the control thread like Evict/Close: export_session
      // parks inline (never staged) so the image in this reply is the
      // session's final state on this worker.
      MigrationImage image;
      sessions_.export_session(req.session, &image);
      Response resp;
      resp.type = req.type;
      resp.session = req.session;
      resp.snapshot = encode_migration_image(image);
      finish(qr, std::move(resp));
      continue;
    }
    if (req.type == RequestType::kEvict) {
      sessions_.evict(req.session);
      Response resp;
      resp.type = req.type;
      resp.session = req.session;
      finish(qr, std::move(resp));
      continue;
    }
    if (req.type == RequestType::kClose) {
      sessions_.close(req.session);
      sessions_closed_->inc();
      if (flight_ != nullptr) {
        telemetry::ServeEvent event;
        event.kind = telemetry::ServeEventKind::kSessionClosed;
        event.session = req.session;
        flight_->record(event);
      }
      Response resp;
      resp.type = req.type;
      resp.session = req.session;
      finish(qr, std::move(resp));
      continue;
    }
    bool restored = false;
    runtime::Engine* engine = sessions_.acquire(req.session, &restored);
    QTA_CHECK_MSG(engine != nullptr, "acquire failed for a live session");
    qr.restored = restored;
    qr.executed = true;
    qr.acquire_us = now_us();
    batch.push_back(Item{std::move(qr), engine, Response{}});
  }

  batch_size_->observe(batch.size());
  // Evictions above (explicit Evict requests and acquire-forced LRU
  // victims) staged PendingParks: those serialize on the pool as extra
  // work items alongside the batch, then commit back on this thread in
  // the same pump — checkpoint rendering overlaps engine work and never
  // outlives the pump (victim engines stay alive, off the LRU, until
  // commit).
  std::vector<SessionManager::PendingPark>& parks =
      sessions_.pending_parks();
  if (!batch.empty() || !parks.empty()) {
    // Partition the batch into execution units. A unit is either one
    // session's request, or a lane group: Step requests whose sessions
    // run the lanes backend with compatible configs coalesce, so the
    // whole group advances in one LaneEngine round loop instead of one
    // engine at a time (greedy first-fit — at most max_hot members, so
    // the scan is tiny).
    struct Unit {
      std::vector<std::size_t> members;  // indices into batch
    };
    std::vector<Unit> units;
    units.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      bool grouped = false;
      if (batch[i].qr.request.type == RequestType::kStep &&
          runtime::is_lane_backend(*batch[i].engine)) {
        for (Unit& u : units) {
          const Item& head = batch[u.members.front()];
          if (head.qr.request.type == RequestType::kStep &&
              runtime::can_coalesce(*head.engine, *batch[i].engine)) {
            u.members.push_back(i);
            grouped = true;
            break;
          }
        }
      }
      if (!grouped) units.push_back(Unit{{i}});
    }

    const std::size_t unit_count = units.size();
    pool_.parallel_for(
        unit_count + parks.size(),
        [&units, &batch, &parks, unit_count, this](std::size_t u) {
      // Workers touch only their own unit: its sessions' engines, its
      // response slots (exec timestamps included), or its own staged
      // park. All shared state waits for the control thread.
      if (u >= unit_count) {
        SessionManager::serialize_park(parks[u - unit_count]);
        return;
      }
      const Unit& unit = units[u];
      const std::uint64_t exec_start = now_us();
      if (unit.members.size() == 1) {
        Item& item = batch[unit.members.front()];
        item.qr.exec_start_us = exec_start;
        item.resp = execute(item.qr.request, *item.engine);
        item.qr.exec_end_us = now_us();
        return;
      }
      std::vector<runtime::Engine*> engines;
      std::vector<std::uint64_t> steps;
      engines.reserve(unit.members.size());
      steps.reserve(unit.members.size());
      for (const std::size_t idx : unit.members) {
        engines.push_back(batch[idx].engine);
        steps.push_back(batch[idx].qr.request.steps);
      }
      {
        runtime::LaneGroupRunner runner(std::move(engines));
        if (trace_ != nullptr) {
          // Lane-group spans land on their own track (pid 1) keyed by
          // the head session, so a coalesced batch shows up as one
          // span the member request spans overlap with.
          runner.set_trace(trace_.get(), /*pid=*/1,
                           /*tid=*/static_cast<std::uint32_t>(
                               batch[unit.members.front()]
                                   .qr.request.session));
        }
        runner.run_steps(steps);
      }  // runner destruction hands each engine its state back
      const std::uint64_t exec_end = now_us();
      for (const std::size_t idx : unit.members) {
        Item& item = batch[idx];
        item.qr.exec_start_us = exec_start;
        item.qr.exec_end_us = exec_end;
        Response resp;
        resp.type = item.qr.request.type;
        resp.session = item.qr.request.session;
        const qtaccel::PipelineStats& stats = item.engine->stats();
        resp.samples = stats.samples;
        resp.episodes = stats.episodes;
        resp.cycles = stats.cycles;
        item.resp = std::move(resp);
      }
    });
    // Control thread again: store the serialized blobs, tear the parked
    // engines down, and attribute eviction counters/flight events.
    sessions_.commit_parks();
    for (Item& item : batch) {
      finish(item.qr, std::move(item.resp));
    }
  }
  update_gauges();
  return !queue_.empty();
}

void Server::drain() {
  while (pump()) {
  }
}

void Server::finish(const QueuedRequest& qr, Response resp) {
  if (resp.status == Status::kError) errors_->inc();
  const std::uint64_t end = now_us();
  const std::uint64_t latency = end - qr.submit_us;

  // One latency series per (type, path): engine requests split by
  // whether their acquire hit a resident engine or restored a snapshot;
  // everything answered without an engine (control plane, Evict/Close,
  // rejections) is "inline".
  const char* path =
      qr.executed ? (qr.restored ? "restore" : "hot") : "inline";
  metrics_
      .histogram("qtserve_request_latency_us",
                 {{"path", path},
                  {"type", request_type_name(qr.request.type)}},
                 "request latency, admission to completion (us), by "
                 "request type and hot/restore/inline path")
      .observe(latency);
  if (qr.executed) {
    metrics_
        .histogram("qtserve_phase_us", {{"phase", "queue_wait"}},
                   "engine-request phase durations (us): queue_wait, "
                   "restore, execute, reply, plus checkpoint (park "
                   "serialization)")
        .observe(qr.pop_us - qr.enqueue_us);
    if (qr.restored) {
      metrics_.histogram("qtserve_phase_us", {{"phase", "restore"}})
          .observe(qr.acquire_us - qr.pop_us);
    }
    metrics_.histogram("qtserve_phase_us", {{"phase", "execute"}})
        .observe(qr.exec_end_us - qr.exec_start_us);
    metrics_.histogram("qtserve_phase_us", {{"phase", "reply"}})
        .observe(end - qr.exec_end_us);
  }

  if (flight_ != nullptr) {
    telemetry::ServeEvent event;
    event.session = qr.request.session;
    event.label = request_type_name(qr.request.type);
    switch (resp.status) {
      case Status::kOk:
        event.kind = telemetry::ServeEventKind::kRequest;
        event.value = latency;
        flight_->record(event);
        break;
      case Status::kError:
        event.kind = telemetry::ServeEventKind::kError;
        event.value = latency;
        flight_->record(event);
        break;
      case Status::kOverloaded:
        break;  // recorded at refusal, with the queue depth
    }
  }

  if (trace_ != nullptr) emit_spans(qr, end);
  resp.span_id = qr.ticket;
  done_.emplace(qr.ticket, std::move(resp));
}

void Server::emit_spans(const QueuedRequest& qr, std::uint64_t end_us) {
  // The request's track is its session (pid 0); the enclosing span is
  // the whole lifecycle, its children the phases. Every span carries
  // the ticket (and the client's trace context when present) as args,
  // which is what lets a test — or a human in Perfetto — reconnect the
  // chain.
  const std::uint32_t tid = static_cast<std::uint32_t>(qr.request.session);
  telemetry::TraceSession::SpanArgs args{{"ticket", qr.ticket}};
  if (qr.request.trace_id != 0) {
    args.emplace_back("trace_id", qr.request.trace_id);
    args.emplace_back("parent_span", qr.request.parent_span);
  }
  trace_->complete_event(0, tid, request_type_name(qr.request.type),
                         qr.submit_us, end_us - qr.submit_us, args);
  if (!qr.executed) return;
  trace_->complete_event(0, tid, "admission", qr.submit_us,
                         qr.enqueue_us - qr.submit_us, args);
  trace_->complete_event(0, tid, "queue", qr.enqueue_us,
                         qr.pop_us - qr.enqueue_us, args);
  trace_->complete_event(0, tid,
                         qr.restored ? "acquire (restore)" : "acquire (hot)",
                         qr.pop_us, qr.acquire_us - qr.pop_us, args);
  trace_->complete_event(0, tid, "execute", qr.exec_start_us,
                         qr.exec_end_us - qr.exec_start_us, args);
  trace_->complete_event(0, tid, "reply", qr.exec_end_us,
                         end_us - qr.exec_end_us, args);
}

Response Server::take(Ticket ticket) {
  auto it = done_.find(ticket);
  QTA_CHECK_MSG(it != done_.end(), "take(): ticket is not done");
  Response resp = std::move(it->second);
  done_.erase(it);
  return resp;
}

}  // namespace qta::serve
