// serve::SocketLoop contract tests (serve/socket_loop.h) over real
// loopback sockets. Each test writes the peer's bytes before it calls
// run_once(), so what a pass finds waiting is fixed and every case is
// deterministic:
//   - a scrape that half-closes right behind its request head still
//     gets the whole reply;
//   - frames that arrive together with the peer's close all reach
//     on_frame, in order, before on_closed;
//   - an oversized length prefix closes the connection without a frame;
//   - a reply of several MiB arrives intact over several passes, and
//     flushed() stays false while the loop still holds part of it.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "serve/http_endpoint.h"
#include "serve/protocol.h"
#include "serve/socket_loop.h"
#include "serve/tcp.h"

namespace qta::serve {
namespace {

/// A loop whose handlers log what they see, plus a connected peer.
struct LoopedPeer {
  std::vector<std::string> events;  // "frame <payload>", "closed", ...
  std::vector<std::string> heads;
  ConnId last_conn = 0;
  SocketLoop loop{{
      .on_frame =
          [this](ConnId conn, std::string payload) {
            last_conn = conn;
            events.push_back("frame " + payload);
          },
      .on_closed =
          [this](ConnId, bool oversized) {
            events.push_back(oversized ? "closed oversized" : "closed");
          },
      .on_http =
          [this](const std::string& head) {
            heads.push_back(head);
            return http_response("200 OK", std::string(100000, 'h'),
                                 "text/plain");
          },
  }};
  int fd = kInvalidSocket;

  explicit LoopedPeer(bool http) {
    std::string error;
    const std::optional<std::uint16_t> port = loop.listen(0, http, "", &error);
    EXPECT_TRUE(port.has_value()) << error;
    if (port.has_value()) fd = tcp_connect("127.0.0.1", *port, &error);
    EXPECT_NE(fd, kInvalidSocket) << error;
    // The peer's blocking reads give up instead of hanging a failed test.
    const timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~LoopedPeer() { tcp_close(fd); }
  LoopedPeer(const LoopedPeer&) = delete;
  LoopedPeer& operator=(const LoopedPeer&) = delete;

  void write(const std::string& bytes) {
    std::string error;
    ASSERT_TRUE(send_all(fd, bytes, &error)) << error;
  }

  /// Runs passes until `done` holds, at most 100 of them.
  bool run_until(const std::function<bool()>& done) {
    for (int pass = 0; pass < 100 && !done(); ++pass) {
      if (!loop.run_once(100)) return false;
    }
    return done();
  }

  /// Appends what the peer can read without waiting; true at EOF.
  bool read_ready(std::string* out) const {
    char chunk[65536];
    while (true) {
      const ssize_t r = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (r <= 0) return r == 0;
      out->append(chunk, static_cast<std::size_t>(r));
    }
  }
};

TEST(SocketLoop, HalfClosedScrapeGetsTheWholeReply) {
  LoopedPeer peer(/*http=*/true);
  peer.write("GET /healthz HTTP/1.0\r\n\r\n");
  ASSERT_EQ(::shutdown(peer.fd, SHUT_WR), 0);

  std::string reply;
  ASSERT_TRUE(peer.run_until([&] { return peer.read_ready(&reply); }));
  ASSERT_EQ(peer.heads.size(), 1u);
  EXPECT_EQ(peer.heads[0], "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_TRUE(reply == http_response("200 OK", std::string(100000, 'h'),
                                     "text/plain"))
      << reply.size() << " bytes";
  EXPECT_TRUE(peer.events.empty());  // scrapes never reach on_closed
}

TEST(SocketLoop, FramesAheadOfACloseAllReachOnFrameFirst) {
  LoopedPeer peer(/*http=*/false);
  peer.write(frame("one") + frame("two"));
  tcp_close(peer.fd);
  peer.fd = kInvalidSocket;

  ASSERT_TRUE(peer.run_until([&] {
    return !peer.events.empty() && peer.events.back() == "closed";
  }));
  EXPECT_EQ(peer.events,
            (std::vector<std::string>{"frame one", "frame two", "closed"}));
}

TEST(SocketLoop, OversizedLengthPrefixClosesWithoutAFrame) {
  LoopedPeer peer(/*http=*/false);
  // u32le 0xffffffff is far past kMaxFrameBytes; the peer stays open,
  // so only the prefix can be what closes the connection.
  peer.write(std::string(4, '\xff') + "junk");

  ASSERT_TRUE(peer.run_until([&] { return !peer.events.empty(); }));
  EXPECT_EQ(peer.events, (std::vector<std::string>{"closed oversized"}));
}

TEST(SocketLoop, MultiMebibyteReplyArrivesIntactOverSeveralPasses) {
  LoopedPeer peer(/*http=*/false);
  peer.write(frame("hello"));
  ASSERT_TRUE(peer.run_until([&] { return peer.last_conn != 0; }));

  // Far more than the kernel buffers between the two sockets hold, so
  // the loop must carry the rest over from pass to pass.
  std::string payload(16u << 20, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131 % 251);
  }
  const std::string expected = frame(payload);
  peer.loop.send(peer.last_conn, payload);
  EXPECT_FALSE(peer.loop.flushed());

  std::string got;
  int passes = 0;
  while (!peer.loop.flushed()) {
    ASSERT_LT(passes, 100000) << got.size() << " bytes arrived";
    ASSERT_TRUE(peer.loop.run_once(0));
    ++passes;
    peer.read_ready(&got);
  }
  EXPECT_GT(passes, 1);
  // flushed(): the loop holds nothing more, so the peer can read the
  // rest without another pass.
  char chunk[65536];
  while (got.size() < expected.size()) {
    const ssize_t r = ::recv(peer.fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(r, 0) << got.size() << " of " << expected.size() << " bytes";
    got.append(chunk, static_cast<std::size_t>(r));
  }
  EXPECT_TRUE(got == expected) << got.size() << " bytes";
  EXPECT_EQ(peer.events, (std::vector<std::string>{"frame hello"}));
}

}  // namespace
}  // namespace qta::serve
