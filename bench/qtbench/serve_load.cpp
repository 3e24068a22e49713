// The serve workloads over real loopback TCP: client -> qtrouterd ->
// 2x qtserved -> engine. One thread generates the load over
// kConnections connections; every timing is taken here, client-side,
// from raw samples.
//
// serve-steady is a closed loop at the round level, like a vectorized
// RL environment: each round sends one Step(2048) per session and waits
// for all 64 replies. serve-churn is an open loop of independent actors:
// requests go out at their scheduled (Poisson) times whatever the
// replies do, and latency counts from the scheduled time, so a stall
// also charges the requests queued behind it.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "daemons.h"
#include "env/grid_world.h"
#include "rng/xoshiro.h"
#include "runtime/snapshot.h"
#include "serve.h"
#include "serve/tcp.h"

namespace qta::qtbench {

namespace {

using Clock = std::chrono::steady_clock;

// serve-churn's arrival rate R (requests/s): about half the closed-loop
// capacity measured for this mix on the reference host (README.md,
// "Host and sizing").
constexpr double kChurnRate = 4700.0;
// serve-churn's open-loop warm period before measuring, at rate R.
constexpr double kChurnWarmS = 1.0;
constexpr unsigned kWarmRounds = 4;
// Each untraced run sets up this many times and reports the median; the
// last set-up is the one that gets measured.
constexpr unsigned kSetups = 5;
// Requests in flight during set-up and the gate: under each worker's
// --max-queue, so nothing is refused, yet enough to keep the
// transport's stalls from setting the pace.
constexpr std::size_t kWindow = 192;
constexpr std::chrono::milliseconds kReapTimeout{5000};
constexpr std::chrono::seconds kStallLimit{30};
constexpr double kInf = std::numeric_limits<double>::infinity();

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

using ReplyFn = std::function<void(std::uint64_t tag, serve::Response& resp)>;

/// The load generator's connections to qtrouterd: nonblocking sockets
/// drained by one ppoll loop. Replies come back in request order per
/// connection, so each connection keeps the tags of its requests.
class Wire {
 public:
  Wire() = default;
  ~Wire() { close(); }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  bool connect(std::uint16_t port, std::string* error) {
    for (unsigned c = 0; c < kConnections; ++c) {
      const int fd = serve::tcp_connect("127.0.0.1", port, error);
      if (fd == serve::kInvalidSocket) return false;
      ::fcntl(fd, F_SETFL, O_NONBLOCK);
      conns_.push_back(Conn{fd, {}, {}, {}});
    }
    return true;
  }

  void close() {
    for (Conn& c : conns_) serve::tcp_close(c.fd);
    conns_.clear();
  }

  void send(unsigned conn, const serve::Request& req, std::uint64_t tag) {
    Conn& c = conns_[conn];
    c.out += serve::frame(serve::encode_request(req));
    c.tags.push_back(tag);
    ++in_flight_;
  }

  /// Writes what is queued, then waits until `until` at most for
  /// replies, handing each to `on_reply`. False when a connection fails.
  bool pump(Clock::time_point until, const ReplyFn& on_reply,
            std::string* error) {
    for (Conn& c : conns_) {
      if (!flush(c, error)) return false;
    }
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      fds.push_back(pollfd{
          c.fd, static_cast<short>(c.out.empty() ? POLLIN : POLLIN | POLLOUT),
          0});
    }
    const auto wait = std::max(Clock::duration::zero(), until - Clock::now());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    const timespec ts{static_cast<time_t>(ns / 1000000000),
                      static_cast<long>(ns % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      *error = std::string("ppoll: ") + std::strerror(errno);
      return false;
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & POLLOUT) != 0 && !flush(conns_[i], error)) {
        return false;
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !receive(conns_[i], on_reply, error)) {
        return false;
      }
    }
    return true;
  }

  std::size_t in_flight() const { return in_flight_; }
  /// Replies received so far, on every connection.
  std::uint64_t answered() const { return answered_; }

 private:
  struct Conn {
    int fd;
    std::string out;
    std::string in;
    std::deque<std::uint64_t> tags;
  };

  static bool flush(Conn& c, std::string* error) {
    while (!c.out.empty()) {
      const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(),
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        *error = std::string("send: ") + std::strerror(errno);
        return false;
      }
      c.out.erase(0, static_cast<std::size_t>(n));
    }
    return true;
  }

  bool receive(Conn& c, const ReplyFn& on_reply, std::string* error) {
    char buf[65536];
    bool closed = false;
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) closed = true;
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        *error = std::string("recv: ") + std::strerror(errno);
        return false;
      }
      break;
    }
    bool oversized = false;
    while (std::optional<std::string> payload =
               serve::unframe(c.in, &oversized)) {
      std::optional<serve::Response> resp =
          serve::decode_response(*payload, error);
      if (!resp.has_value() || c.tags.empty()) {
        *error = "undecodable or unexpected reply: " + *error;
        return false;
      }
      const std::uint64_t tag = c.tags.front();
      c.tags.pop_front();
      --in_flight_;
      ++answered_;
      on_reply(tag, *resp);
    }
    if (oversized) {
      *error = "oversized reply frame";
      return false;
    }
    if (closed && !c.tags.empty()) {
      *error = "qtrouterd closed a connection with requests unanswered";
      return false;
    }
    return true;
  }

  std::vector<Conn> conns_;
  std::size_t in_flight_ = 0;
  std::uint64_t answered_ = 0;
};

using MakeFn =
    std::function<std::pair<unsigned, serve::Request>(std::size_t index)>;

/// Sends requests 0..n-1 in order (make(i) names the connection), with
/// at most `window` in flight, and hands reply i to on_reply(i, resp).
bool closed_loop(Wire& wire, std::size_t n, std::size_t window,
                 const MakeFn& make, const ReplyFn& on_reply,
                 std::string* error) {
  std::size_t next = 0, done = 0;
  const ReplyFn counted = [&](std::uint64_t tag, serve::Response& resp) {
    ++done;
    on_reply(tag, resp);
  };
  const Clock::time_point deadline = Clock::now() + kStallLimit;
  while (done < n) {
    while (next < n && wire.in_flight() < window) {
      auto [conn, req] = make(next);
      wire.send(conn, req, next);
      ++next;
    }
    if (!wire.pump(Clock::now() + std::chrono::milliseconds(100), counted,
                   error)) {
      return false;
    }
    if (Clock::now() > deadline) {
      *error = "closed loop stalled";
      return false;
    }
  }
  return true;
}

/// One running tier plus the client's view of its sessions.
struct Stack {
  Fleet fleet;
  Wire wire;
  std::vector<serve::SessionId> ids;
  std::vector<std::uint64_t> steps_done;    // OK Step replies per session
  std::vector<std::uint64_t> last_samples;  // retired samples per session

  /// Books an OK Step reply for session i; returns the samples retired.
  /// A total below the session's cumulative Step target is a divergence.
  std::uint64_t book_step(std::uint32_t i, const serve::Response& resp,
                          std::uint64_t step, Outcome& outcome) {
    ++steps_done[i];
    if (resp.samples < step * steps_done[i]) {
      outcome.divergences.push_back(
          "session " + std::to_string(i) + " retired " +
          std::to_string(resp.samples) + " samples, expected at least " +
          std::to_string(step * steps_done[i]));
    }
    const std::uint64_t delta = resp.samples - last_samples[i];
    last_samples[i] = resp.samples;
    return delta;
  }
};

/// Starts the tier, creates every session (all on connection 0, so the
/// router numbers them in index order), and runs the fixed warm-up.
bool start_stack(const ServeShape& shape,
                 const std::vector<serve::SessionSpec>& specs,
                 const RunOptions& options, Stack& stack, double* warmup_s,
                 Outcome& outcome, std::string* error) {
  FleetOptions fleet;
  fleet.bin_dir = options.bin_dir;
  fleet.work_dir = options.work_dir;
  fleet.shards = kShards;
  fleet.max_hot = shape.max_hot;
  fleet.max_queue = shape.max_queue;
  if (!stack.fleet.start(fleet, error) ||
      !stack.wire.connect(stack.fleet.router_port(), error)) {
    return false;
  }
  const std::size_t n = specs.size();
  stack.ids.assign(n, 0);
  stack.steps_done.assign(n, 0);
  stack.last_samples.assign(n, 0);
  std::size_t refused = 0;
  if (!closed_loop(
          stack.wire, n, kWindow,
          [&](std::size_t i) {
            serve::Request req;
            req.type = serve::RequestType::kCreateSession;
            req.spec = specs[i];
            return std::pair<unsigned, serve::Request>{0, req};
          },
          [&](std::uint64_t i, serve::Response& resp) {
            if (resp.status != serve::Status::kOk) ++refused;
            stack.ids[i] = resp.session;
          },
          error)) {
    return false;
  }
  const std::vector<Op> warm = warmup_plan(shape).ops;
  const Clock::time_point t0 = Clock::now();
  if (!closed_loop(
          stack.wire, warm.size(), kWindow,
          [&](std::size_t k) {
            return std::pair<unsigned, serve::Request>{
                warm[k].session % kConnections,
                make_request(warm[k], stack.ids, shape)};
          },
          [&](std::uint64_t k, serve::Response& resp) {
            if (resp.status != serve::Status::kOk) {
              ++refused;
              return;
            }
            stack.book_step(warm[k].session, resp, shape.step, outcome);
          },
          error)) {
    return false;
  }
  *warmup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (refused != 0) {
    *error = std::to_string(refused) + " set-up requests were refused";
    return false;
  }
  return true;
}

/// Reads the daemons' VmHWM, sends Shutdown through the router, and
/// reaps every daemon (SIGKILL after kReapTimeout, reported).
bool stop_stack(Stack& stack, std::uint64_t* daemons_hwm_kib,
                std::string* error) {
  *daemons_hwm_kib = stack.fleet.vm_hwm_kib();
  const bool ok = closed_loop(
      stack.wire, 1, 1,
      [](std::size_t) {
        serve::Request req;
        req.type = serve::RequestType::kShutdown;
        return std::pair<unsigned, serve::Request>{0, req};
      },
      [](std::uint64_t, serve::Response&) {}, error);
  stack.wire.close();
  for (const std::string& line : stack.fleet.reap(kReapTimeout)) {
    std::cerr << "qtbench: " << line << "\n";
  }
  return ok;
}

struct LoadResult {
  double window_s = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;       // measured requests answered OK
  std::uint64_t failed = 0;   // any load request refused or failed
  std::uint64_t samples = 0;  // retired by measured Steps
  // step_us is what an RL client waits for per env step: a whole round
  // on serve-steady (a vectorized step), one Step request on
  // serve-churn. request_us holds every measured request.
  std::vector<double> step_us, request_us, query_us, late_us;
  std::size_t inflight_max = 0;
  Plan plan;  // what was sent, for the replica
};

bool steady_load(Stack& stack, const ServeShape& shape, double seconds,
                 LoadResult& load, Outcome& outcome, std::string* error) {
  const std::uint64_t answered0 = stack.wire.answered();
  const Clock::time_point t0 = Clock::now();
  do {
    const Clock::time_point r0 = Clock::now();
    for (std::uint32_t i = 0; i < shape.sessions; ++i) {
      const Op op{serve::RequestType::kStep, i, 0, 0.0,
                  stack.wire.answered() - answered0};
      stack.wire.send(i % kConnections, make_request(op, stack.ids, shape), i);
      load.plan.ops.push_back(op);
    }
    load.inflight_max = std::max(load.inflight_max, stack.wire.in_flight());
    std::size_t got = 0;
    bool round_failed = false;
    const ReplyFn on_reply = [&](std::uint64_t i, serve::Response& resp) {
      ++got;
      if (resp.status != serve::Status::kOk) {
        ++load.failed;
        round_failed = true;
        load.request_us.push_back(kInf);
        return;
      }
      ++load.ok;
      load.samples += stack.book_step(static_cast<std::uint32_t>(i), resp,
                                      shape.step, outcome);
      load.request_us.push_back(us_between(r0, Clock::now()));
    };
    while (got < shape.sessions) {
      if (!stack.wire.pump(Clock::now() + std::chrono::seconds(1), on_reply,
                           error)) {
        return false;
      }
      if (Clock::now() - r0 > kStallLimit) {
        *error = "serve-steady: a round did not complete";
        return false;
      }
    }
    load.step_us.push_back(round_failed ? kInf
                                        : us_between(r0, Clock::now()));
    load.sent += shape.sessions;
  } while (Clock::now() - t0 < std::chrono::duration<double>(seconds));
  load.window_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return true;
}

/// serve-churn: sends `schedule` at its due times and measures what is
/// due after the warm period.
bool churn_load(Stack& stack, const ServeShape& shape,
                const std::vector<Op>& schedule, double seconds,
                LoadResult& load, Outcome& outcome, std::string* error) {
  const std::uint64_t answered0 = stack.wire.answered();
  const Clock::time_point t0 = Clock::now();
  const auto at = [t0](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const Clock::time_point measure_from = at(kChurnWarmS);
  const Clock::time_point end = at(kChurnWarmS + seconds);
  std::vector<Clock::time_point> origin(schedule.size());
  std::vector<char> measured(schedule.size(), 0);
  Clock::time_point last_reply = measure_from;

  const ReplyFn on_reply = [&](std::uint64_t k, serve::Response& resp) {
    const Op& op = schedule[k];
    const Clock::time_point now = Clock::now();
    const bool ok = resp.status == serve::Status::kOk;
    if (!ok) ++load.failed;
    if (ok && op.type == serve::RequestType::kQuery &&
        (resp.q_row.size() != 4 || resp.action >= 4)) {
      outcome.divergences.push_back("query reply with a malformed Q row");
    }
    if (ok && op.type == serve::RequestType::kSnapshot &&
        resp.snapshot.rfind("QTACCEL-SNAPSHOT", 0) != 0) {
      outcome.divergences.push_back("snapshot reply is not a snapshot");
    }
    std::uint64_t samples = 0;
    if (ok && op.type == serve::RequestType::kStep) {
      samples = stack.book_step(op.session, resp, shape.step, outcome);
    }
    if (measured[k] == 0) return;
    last_reply = now;
    const double us = ok ? us_between(origin[k], now) : kInf;
    load.request_us.push_back(us);
    if (op.type == serve::RequestType::kStep) load.step_us.push_back(us);
    if (op.type == serve::RequestType::kQuery) load.query_us.push_back(us);
    if (ok) ++load.ok;
    load.samples += samples;
  };

  std::size_t next = 0;
  while (true) {
    Clock::time_point now = Clock::now();
    while (next < schedule.size() && at(schedule[next].due_s) <= now) {
      Op op = schedule[next];
      op.answered = stack.wire.answered() - answered0;
      // Open loop: latency counts from the scheduled send time.
      origin[next] = at(op.due_s);
      measured[next] = op.due_s >= kChurnWarmS;
      if (measured[next] != 0) {
        if (load.plan.measured_from == 0) load.plan.measured_from = next;
        load.late_us.push_back(us_between(origin[next], now));
      }
      stack.wire.send(op.session % kConnections,
                      make_request(op, stack.ids, shape), next);
      load.plan.ops.push_back(op);
      ++load.sent;
      ++next;
      now = Clock::now();
    }
    load.inflight_max = std::max(load.inflight_max, stack.wire.in_flight());
    const bool sending = next < schedule.size();
    if (!sending && stack.wire.in_flight() == 0) break;
    const Clock::time_point until =
        sending ? at(schedule[next].due_s) : now + std::chrono::milliseconds(10);
    if (!stack.wire.pump(until, on_reply, error)) return false;
    if (Clock::now() > end + kStallLimit) {
      *error = "serve-churn: replies stopped arriving";
      return false;
    }
  }
  load.window_s = std::max(
      seconds, std::chrono::duration<double>(last_reply - measure_from).count());
  return true;
}

/// Snapshots the gate sessions through the tier and byte-compares each
/// with its local twin.
bool gate(Stack& stack, const ServeShape& shape,
          const std::vector<serve::SessionSpec>& specs, Spans& spans,
          Outcome& outcome, std::string* error) {
  const std::vector<std::uint32_t> sessions = gate_sessions(stack.steps_done);
  return closed_loop(
      stack.wire, sessions.size(), kWindow,
      [&](std::size_t k) {
        serve::Request req;
        req.type = serve::RequestType::kSnapshot;
        req.session = stack.ids[sessions[k]];
        return std::pair<unsigned, serve::Request>{
            sessions[k] % kConnections, req};
      },
      [&](std::uint64_t k, serve::Response& resp) {
        const std::uint32_t i = sessions[k];
        if (resp.status != serve::Status::kOk ||
            resp.snapshot != twin_snapshot(specs[i], shape.step,
                                           stack.steps_done[i], spans)) {
          outcome.divergences.push_back(
              "session " + std::to_string(i) +
              ": server snapshot differs from its local twin");
        }
      },
      error);
}

double finite_mean(const std::vector<double>& v) {
  std::vector<double> finite;
  for (const double x : v) {
    if (std::isfinite(x)) finite.push_back(x);
  }
  return mean(finite);
}

/// The per-layer rows of a traced serve run: the replica's self times
/// per client request against the TCP run's mean latency.
LayerValues serve_layer_values(const ServeShape& shape,
                               const LoadResult& load,
                               const ReplicaRun& run, const ReplicaRun& bare) {
  LayerValues v;
  const std::uint64_t n = run.requests;
  const double per_req = n == 0 ? 0.0 : 1.0 / static_cast<double>(n);
  const auto self_us = [&](const char* layer) {
    const auto it = run.layers.find(layer);
    return it == run.layers.end() ? 0.0 : it->second.self_ns / 1000.0 * per_req;
  };
  const auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
  const double encode = self_us("wire.encode");
  const double decode = self_us("wire.decode");
  const double router = self_us("router.ingress") + self_us("router.egress");
  const double submit = self_us("server.submit");
  const double pump = self_us("server.pump");
  const double take = self_us("server.take");
  const double sum = encode + decode + router + submit + pump + take;
  const double client_mean = finite_mean(load.request_us);

  v["serve.wire.encode_ns"] = {encode * 1000.0, n};
  v["serve.wire.decode_ns"] = {decode * 1000.0, n};
  v["serve.wire.bytes_per_req"] = {static_cast<double>(run.client_bytes) * per_req, n};
  v["shard.router.us_per_req"] = {router, n};
  v["shard.router.injected_per_req"] = {static_cast<double>(run.injected) * per_req, n};
  v["shard.router.injected_bytes_per_req"] = {
      static_cast<double>(run.injected_bytes) * per_req, n};
  v["serve.server.submit_us"] = {submit, n};
  v["serve.server.pump_us_per_req"] = {pump, n};
  v["serve.server.take_us"] = {take, n};
  v["serve.server.batch_size_mean"] = {
      ratio(run.batch.first, run.batch.second),
      static_cast<std::uint64_t>(run.batch.second)};
  for (const auto& [phase, sum_count] : run.phases) {
    v["serve.server." + phase + "_us"] = {
        ratio(sum_count.first, sum_count.second),
        static_cast<std::uint64_t>(sum_count.second)};
  }
  v["serve.session.hot_hit_frac"] = {
      run.executed == 0 ? 0.0
                        : 1.0 - ratio(static_cast<double>(run.restores),
                                      static_cast<double>(run.executed)),
      run.executed};
  v["serve.session.parks_per_req"] = {static_cast<double>(run.parks) * per_req, n};
  v["serve.session.restores_per_req"] = {static_cast<double>(run.restores) * per_req, n};
  v["serve.session.park_bytes_per_park"] = {
      ratio(static_cast<double>(run.park_bytes), static_cast<double>(run.parks)),
      run.parks};
  v["serve.session.delta_park_bytes_frac"] = {
      ratio(static_cast<double>(run.delta_park_bytes),
            static_cast<double>(run.park_bytes)),
      run.parks};
  v["bench.layers.sum_us"] = {sum, n};
  const std::uint64_t measured = load.request_us.size();
  v["bench.client.mean_us"] = {client_mean, measured};
  v["tools.transport.residual_us"] = {client_mean - sum, measured};
  v["tools.transport.residual_frac"] = {ratio(client_mean - sum, client_mean),
                                        measured};
  v["bench.client.step_p99_us"] = {percentile(load.step_us, 0.99),
                                   load.step_us.size()};
  v["bench.client.request_p50_us"] = {percentile(load.request_us, 0.50), measured};
  v["bench.client.request_p99_us"] = {percentile(load.request_us, 0.99), measured};
  if (shape.open_loop) {
    v["bench.client.query_p50_us"] = {percentile(load.query_us, 0.50), load.query_us.size()};
    v["bench.client.query_p99_us"] = {percentile(load.query_us, 0.99), load.query_us.size()};
    v["bench.loadgen.late_p99_us"] = {percentile(load.late_us, 0.99), load.late_us.size()};
  }
  v["bench.loadgen.inflight_max"] = {static_cast<double>(load.inflight_max), load.sent};
  v["bench.trace.overhead_frac"] = {ratio(run.wall_s - bare.wall_s, bare.wall_s), n};
  return v;
}

}  // namespace

ServeShape serve_shape(Kind kind) {
  if (kind == Kind::kServeSteady) {
    return ServeShape{64, 64, 64, 256, 2048, false};
  }
  // A worker queues ~1.7 s of serve-churn's arrivals, so a stall of the
  // host delays requests instead of refusing them: a 256-deep queue
  // refused some during a stall of the reference host.
  return ServeShape{4096, 32, 16, 4096, 64, true};
}

serve::ServerOptions server_options(const ServeShape& shape) {
  serve::ServerOptions options;
  options.max_hot = shape.max_hot;
  options.workers = 1;
  options.max_queue = shape.max_queue;
  return options;
}

std::vector<serve::SessionSpec> session_specs(const ServeShape& shape,
                                              std::uint64_t seed) {
  std::vector<serve::SessionSpec> specs(shape.sessions);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].width = shape.side;
    specs[i].height = shape.side;
    specs[i].actions = 4;
    specs[i].algorithm = kAlgorithms[i % 4];
    specs[i].backend = qtaccel::Backend::kFast;
    specs[i].seed = derive_seed(seed, 5, i);
  }
  return specs;
}

std::vector<Op> churn_schedule(const ServeShape& shape, std::uint64_t seed,
                               double rate, double duration_s) {
  rng::Xoshiro256 rng(derive_seed(seed, 6, 0));
  std::vector<std::uint32_t> by_rank(shape.sessions);
  std::iota(by_rank.begin(), by_rank.end(), 0u);
  for (std::size_t i = by_rank.size() - 1; i > 0; --i) {
    std::swap(by_rank[i], by_rank[rng.below(i + 1)]);
  }
  std::vector<double> cdf(shape.sessions);
  double total = 0.0;
  for (std::size_t k = 0; k < cdf.size(); ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }
  std::vector<Op> ops;
  const StateId states = StateId{shape.side} * shape.side;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration_s) break;
    Op op;
    op.due_s = t;
    const double u = rng.uniform() * total;
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    op.session = by_rank[std::min(rank, cdf.size() - 1)];
    const double mix = rng.uniform();
    if (mix < 0.80) {
      op.type = serve::RequestType::kStep;
    } else if (mix < 0.95) {
      op.type = serve::RequestType::kQuery;
      op.state = static_cast<StateId>(rng.below(states));
    } else {
      op.type = serve::RequestType::kSnapshot;
    }
    ops.push_back(op);
  }
  return ops;
}

serve::Request make_request(const Op& op,
                            const std::vector<serve::SessionId>& ids,
                            const ServeShape& shape) {
  serve::Request req;
  req.type = op.type;
  req.session = ids[op.session];
  if (op.type == serve::RequestType::kStep) req.steps = shape.step;
  if (op.type == serve::RequestType::kQuery) req.state = op.state;
  return req;
}

Plan warmup_plan(const ServeShape& shape) {
  Plan plan;
  const unsigned rounds = shape.open_loop ? 1 : kWarmRounds;
  for (unsigned r = 0; r < rounds; ++r) {
    for (std::uint32_t i = 0; i < shape.sessions; ++i) {
      plan.ops.push_back(Op{serve::RequestType::kStep, i, 0, 0.0,
                            std::uint64_t{r} * shape.sessions});
    }
  }
  return plan;
}

std::vector<std::uint32_t> gate_sessions(
    const std::vector<std::uint64_t>& steps_done) {
  const auto n = static_cast<std::uint32_t>(steps_done.size());
  std::vector<std::uint32_t> out = {0, n / 2, n - 1};
  std::vector<std::uint32_t> by_steps(n);
  std::iota(by_steps.begin(), by_steps.end(), 0u);
  std::stable_sort(by_steps.begin(), by_steps.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return steps_done[a] > steps_done[b];
                   });
  for (std::size_t k = 0, added = 0; k < by_steps.size() && added < 8; ++k) {
    if (std::find(out.begin(), out.end(), by_steps[k]) != out.end()) continue;
    out.push_back(by_steps[k]);
    ++added;
  }
  return out;
}

std::string twin_snapshot(const serve::SessionSpec& spec, std::uint64_t step,
                          std::uint64_t count, Spans& spans) {
  env::GridWorldConfig gc;
  gc.width = spec.width;
  gc.height = spec.height;
  gc.num_actions = spec.actions;
  const env::GridWorld world(gc);
  runtime::Engine twin(world, serve::make_config(spec));
  for (std::uint64_t k = 0; k < count; ++k) {
    Spans::Scope span(spans, "engine.run_samples", 0);
    twin.run_samples(twin.stats().samples + step);
  }
  std::ostringstream os;
  runtime::save_snapshot(twin, os);
  return std::move(os).str();
}

void run_serve(const Workload& workload, const RunOptions& options,
               Report& report, Outcome& outcome) {
  const ServeShape shape = serve_shape(workload.kind);
  const std::vector<serve::SessionSpec> specs =
      session_specs(shape, options.seed);
  // The traced run splits its time between the TCP run and the replica.
  const double seconds = options.traced ? options.seconds / 2 : options.seconds;
  std::vector<Op> schedule;
  if (shape.open_loop) {
    schedule =
        churn_schedule(shape, options.seed, kChurnRate, kChurnWarmS + seconds);
  }

  Spans quiet(false);
  std::vector<double> setup_s, warmup_s;
  std::uint64_t daemons_hwm = 0;
  std::string error;
  auto stack = std::make_unique<Stack>();
  for (unsigned k = 0; k < (options.traced ? 1 : kSetups); ++k) {
    // An earlier set-up only times the set-up: destroying its Stack
    // kills its daemons.
    if (k > 0) stack = std::make_unique<Stack>();
    double warm = 0.0;
    const Clock::time_point t0 = Clock::now();
    if (!start_stack(shape, specs, options, *stack, &warm, outcome, &error)) {
      break;
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    warmup_s.push_back(warm);
  }
  LoadResult load;
  const bool ran =
      error.empty() &&
      (shape.open_loop
           ? churn_load(*stack, shape, schedule, seconds, load, outcome,
                        &error)
           : steady_load(*stack, shape, seconds, load, outcome, &error)) &&
      gate(*stack, shape, specs, quiet, outcome, &error) &&
      stop_stack(*stack, &daemons_hwm, &error);
  stack.reset();  // kills and reaps whatever a failure left running
  if (!ran) {
    outcome.error = workload.name + std::string(": ") + error;
    return;
  }
  outcome.attempted = load.sent;
  outcome.failed = load.failed;

  if (!options.traced) {
    report.add("samples_per_s", static_cast<double>(load.samples) / load.window_s,
               "samples/s", load.step_us.size());
    report.add("req_per_s", static_cast<double>(load.ok) / load.window_s,
               "req/s", load.ok);
    report.add("step_p50_us", percentile(load.step_us, 0.50), "us",
               load.step_us.size());
    report.add("setup_s", median(setup_s), "s", setup_s.size());
    report.add("peak_rss_mb",
               static_cast<double>(vm_hwm_kib(0) + daemons_hwm) / 1024.0,
               "MiB", 1 + kShards + 1);
    if (shape.open_loop &&
        percentile(load.late_us, 0.99) > percentile(load.step_us, 0.50)) {
      std::cerr << "qtbench: load generator p99 lateness exceeds step_p50_us;"
                   " this run's latencies are not valid\n";
    }
    return;
  }

  Spans bare_spans(false);
  Spans spans(true);
  const Plan warm = warmup_plan(shape);
  const ReplicaRun bare =
      run_replica(shape, specs, warm, load.plan, bare_spans, outcome);
  const ReplicaRun run = run_replica(shape, specs, warm, load.plan, spans, outcome);

  report.add("runtime.warmup_s", median(warmup_s), "s", warmup_s.size());
  env::GridWorldConfig gc;
  gc.width = shape.side;
  gc.height = shape.side;
  gc.num_actions = 4;
  const env::GridWorld world(gc);
  Geometry geometry;
  geometry.env = &world;
  for (std::size_t i = 0; i < 4; ++i) {
    geometry.configs.push_back(serve::make_config(specs[i]));
  }
  geometry.chunk = shape.step;
  geometry.warm = std::uint64_t{1} << 16;
  report_datapath_layers(std::move(geometry), options.seconds / 20.0, spans,
                         report, outcome);
  report_serve_layers(serve_layer_values(shape, load, run, bare), report);
  if (!spans.write_perfetto(options.trace_file)) {
    outcome.error = "cannot write " + options.trace_file;
  }
}

}  // namespace qta::qtbench
