// The single-threaded poll() loop both daemons run on (qtserved and
// qtrouterd; docs/serving.md, docs/sharding.md). It owns every socket
// of its daemon — listeners, accepted peers and adopted outbound links —
// and hands its owner only connection ids and payloads.
//
// Two kinds of connection:
//   - Frame connections (a wire listener's peers, adopted links) carry
//     serve/protocol.h's u32le-framed payloads. A pass reads whatever a
//     readable socket holds and passes every complete frame to on_frame,
//     in order, before run_once() returns — so a burst from many peers
//     reaches the owner in one pass and batches across them. A peer that
//     closes right behind its last frames still has each of them
//     dispatched before its on_closed. A length prefix over
//     kMaxFrameBytes closes the connection. Output still queued for a
//     closed connection is dropped.
//   - HTTP connections (an HTTP listener's peers) carry one request
//     head (ended by a blank line, at most 64 KiB), get one on_http
//     reply, and close once it is written — also when the peer
//     half-closed right after its head. They never reach on_closed.
//
// The loop sets no socket option: accepted sockets keep the kernel's
// defaults, and TCP_NODELAY is set by tcp_connect() alone.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qta::serve {

using ConnId = std::uint64_t;

class SocketLoop {
 public:
  struct Handlers {
    /// One complete payload read from frame connection `conn`.
    std::function<void(ConnId conn, std::string payload)> on_frame;
    /// Frame connection `conn` closed: the peer hung up, a read or
    /// write failed, or (`oversized`) it sent a length prefix over
    /// kMaxFrameBytes. send() to it is dropped from now on.
    std::function<void(ConnId conn, bool oversized)> on_closed;
    /// The complete response bytes for one HTTP request head.
    std::function<std::string(const std::string& head)> on_http;
  };

  explicit SocketLoop(Handlers handlers);
  /// Closes every socket the loop owns.
  ~SocketLoop();
  SocketLoop(const SocketLoop&) = delete;
  SocketLoop& operator=(const SocketLoop&) = delete;

  /// Listens on 127.0.0.1:`port` (0 lets the kernel pick) for HTTP
  /// scrapes when `http`, frame connections otherwise, and writes the
  /// bound port to `port_file` unless it is empty. Returns the bound
  /// port, or nullopt with *error set.
  std::optional<std::uint16_t> listen(std::uint16_t port, bool http,
                                      const std::string& port_file,
                                      std::string* error);

  /// Takes over connected socket `fd` as a frame connection.
  ConnId adopt(int fd);

  /// Frames `payload` and queues it for `conn`; dropped if `conn` has
  /// closed.
  void send(ConnId conn, std::string_view payload);

  /// One pass: write queued output, poll up to `timeout_ms` (-1 waits
  /// for an event), accept, read, and dispatch. False if poll() failed.
  bool run_once(int timeout_ms);

  /// Whether every frame connection's queued output has been written.
  /// HTTP replies are not counted: a stalled scraper holds up nothing.
  bool flushed() const;

 private:
  struct Listener {
    int fd;
    bool http;
  };
  struct Conn {
    int fd = -1;
    bool http = false;
    bool replied = false;  // HTTP: reply queued; close once written
    std::string in;
    std::string out;
  };

  ConnId add(int fd, bool http);
  void flush();
  void service(ConnId id, Conn& conn);
  void close(ConnId id, bool oversized);

  Handlers handlers_;
  std::vector<Listener> listeners_;
  std::map<ConnId, Conn> conns_;  // ordered: dispatch in accept order
  ConnId next_id_ = 1;
};

}  // namespace qta::serve
