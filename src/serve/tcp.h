// Thin POSIX TCP helpers shared by tools/qtserved and tools/qtclient.
//
// Failure reporting is by return value (invalid fd / false) plus an
// errno-derived message through `error` — network setup problems are
// operator errors, not programming errors, so nothing here aborts.
// Framing on the wire is serve/protocol.h's u32le length prefix;
// send_frame/recv_frame speak it over blocking sockets (the client
// side). qtserved's poll loop does its own nonblocking buffering and
// uses unframe() directly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace qta::serve {

inline constexpr int kInvalidSocket = -1;

/// Whether a parsed flag value names a TCP port (0..65535, 0 = let the
/// kernel pick). The daemons check it before narrowing to uint16_t.
inline constexpr bool valid_port(std::int64_t port) {
  return port >= 0 && port <= 65535;
}

/// Listening socket on 127.0.0.1:`port` (SO_REUSEADDR, backlog 64).
/// `port` 0 lets the kernel pick; *bound_port reports the result.
int tcp_listen(std::uint16_t port, std::uint16_t* bound_port,
               std::string* error);

/// Blocking connect to `host`:`port`.
int tcp_connect(const std::string& host, std::uint16_t port,
                std::string* error);

/// Writes all of `data`, retrying short writes and EINTR.
bool send_all(int fd, std::string_view data, std::string* error);

/// frame(payload) + send_all.
bool send_frame(int fd, std::string_view payload, std::string* error);

/// Blocking read of one length-prefixed frame into *payload. False on
/// EOF, I/O error, or an oversized frame.
bool recv_frame(int fd, std::string* payload, std::string* error);

void tcp_close(int fd);

}  // namespace qta::serve
