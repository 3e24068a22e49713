#include "serve/socket_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <fstream>
#include <utility>

#include "serve/protocol.h"
#include "serve/tcp.h"

namespace qta::serve {

namespace {

constexpr std::size_t kMaxHttpHead = 64u << 10;

bool would_block() {
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

}  // namespace

SocketLoop::SocketLoop(Handlers handlers) : handlers_(std::move(handlers)) {}

SocketLoop::~SocketLoop() {
  for (const Listener& listener : listeners_) tcp_close(listener.fd);
  for (const auto& [id, conn] : conns_) tcp_close(conn.fd);
}

std::optional<std::uint16_t> SocketLoop::listen(std::uint16_t port,
                                                bool http,
                                                const std::string& port_file,
                                                std::string* error) {
  std::uint16_t bound = 0;
  const int fd = tcp_listen(port, &bound, error);
  if (fd == kInvalidSocket) return std::nullopt;
  // Nonblocking accepts: a pass drains the backlog and must not park
  // inside accept() waiting for the next peer.
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
  listeners_.push_back(Listener{fd, http});
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << bound << "\n";
    if (!pf) {
      if (error != nullptr) *error = "cannot write " + port_file;
      return std::nullopt;
    }
  }
  return bound;
}

ConnId SocketLoop::adopt(int fd) {
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
  return add(fd, false);
}

ConnId SocketLoop::add(int fd, bool http) {
  const ConnId id = next_id_++;
  Conn& conn = conns_[id];
  conn.fd = fd;
  conn.http = http;
  return id;
}

void SocketLoop::send(ConnId conn, std::string_view payload) {
  const auto it = conns_.find(conn);
  if (it != conns_.end()) it->second.out += frame(payload);
}

bool SocketLoop::flushed() const {
  for (const auto& [id, conn] : conns_) {
    if (!conn.http && !conn.out.empty()) return false;
  }
  return true;
}

void SocketLoop::flush() {
  std::vector<ConnId> done;
  for (auto& [id, conn] : conns_) {
    std::size_t sent = 0;
    bool ok = true;
    while (sent < conn.out.size()) {
      const ssize_t r = ::send(conn.fd, conn.out.data() + sent,
                               conn.out.size() - sent,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (r < 0) {
        ok = would_block();
        break;
      }
      sent += static_cast<std::size_t>(r);
    }
    conn.out.erase(0, sent);
    if (!ok || (conn.replied && conn.out.empty())) done.push_back(id);
  }
  for (const ConnId id : done) close(id, false);
}

bool SocketLoop::run_once(int timeout_ms) {
  flush();
  // Connections accepted during this pass are read from the next one;
  // std::map keeps the polled ones in place across those inserts.
  std::vector<pollfd> fds;
  for (const Listener& listener : listeners_) {
    fds.push_back(pollfd{listener.fd, POLLIN, 0});
  }
  std::vector<std::pair<ConnId, Conn*>> polled;
  for (auto& [id, conn] : conns_) {
    // An answered scrape reads nothing more; it only waits to flush.
    const short events = static_cast<short>(
        (conn.replied ? 0 : POLLIN) | (conn.out.empty() ? 0 : POLLOUT));
    fds.push_back(pollfd{conn.fd, events, 0});
    polled.emplace_back(id, &conn);
  }
  if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
    return false;
  }
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    if ((fds[i].revents & POLLIN) == 0) continue;
    while (true) {
      const int fd = ::accept(listeners_[i].fd, nullptr, nullptr);
      if (fd < 0) break;
      add(fd, listeners_[i].http);
    }
  }
  for (std::size_t i = 0; i < polled.size(); ++i) {
    const short revents = fds[listeners_.size() + i].revents;
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      service(polled[i].first, *polled[i].second);
    }
  }
  return true;
}

void SocketLoop::service(ConnId id, Conn& conn) {
  if (conn.replied) return;
  // Drain the socket; an HTTP head stops at its cap.
  bool open = true;
  char chunk[65536];
  while (!(conn.http && conn.in.size() > kMaxHttpHead)) {
    const ssize_t r = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (r > 0) {
      conn.in.append(chunk, static_cast<std::size_t>(r));
      continue;
    }
    open = r < 0 && would_block();  // 0 is the peer's orderly EOF
    break;
  }
  if (conn.http) {
    // A complete head is answered even when the peer has half-closed.
    if (conn.in.find("\r\n\r\n") != std::string::npos ||
        conn.in.find("\n\n") != std::string::npos) {
      conn.out = handlers_.on_http(conn.in);
      conn.replied = true;
    } else if (!open || conn.in.size() > kMaxHttpHead) {
      close(id, false);
    }
    return;
  }
  while (true) {
    bool oversized = false;
    std::optional<std::string> payload = unframe(conn.in, &oversized);
    if (oversized) {
      close(id, true);
      return;
    }
    if (!payload.has_value()) break;
    handlers_.on_frame(id, std::move(*payload));
  }
  if (!open) close(id, false);
}

void SocketLoop::close(ConnId id, bool oversized) {
  const auto it = conns_.find(id);
  const bool http = it->second.http;
  tcp_close(it->second.fd);
  conns_.erase(it);
  if (!http) handlers_.on_closed(id, oversized);
}

}  // namespace qta::serve
