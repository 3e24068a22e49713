#include "shard/http_plane.h"

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>

#include "serve/http_endpoint.h"
#include "shard/router.h"

namespace qta::shard {

namespace {

using serve::http_response;

/// The value of `name` in query "a=1&b=2" as a whole decimal number of
/// type T; nullopt when it is absent, not a number, or out of T's range.
/// Values are raw: the plane's params are all unsigned integers, so
/// nothing needs percent-decoding.
template <typename T>
std::optional<T> query_id(const std::string& query, const std::string& name) {
  for (std::size_t pos = 0; pos < query.size();) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    if (query.compare(pos, name.size() + 1, name + "=") == 0) {
      const char* first = query.data() + pos + name.size() + 1;
      const char* last = query.data() + amp;
      std::uint64_t value = 0;
      const auto [ptr, ec] = std::from_chars(first, last, value);
      if (ec != std::errc() || ptr != last ||
          value > std::numeric_limits<T>::max()) {
        return std::nullopt;
      }
      return static_cast<T>(value);
    }
    pos = amp + 1;
  }
  return std::nullopt;
}

std::string ok_json(bool ok) {
  return std::string("{\"ok\":") + (ok ? "true" : "false") + "}\n";
}

}  // namespace

std::string handle_router_http(Router& router,
                               const std::string& request_text) {
  const std::optional<serve::HttpRequest> request =
      serve::parse_http_request(request_text);
  std::optional<std::string> answer =
      serve::shared_http_answer(request, router.metrics(), router.flight());
  if (answer.has_value()) return *answer;
  const bool body = !request->head;
  if (request->target == "/shards") {
    return http_response("200 OK", router.shards_json(), "application/json",
                         body);
  }
  if (request->target == "/migrate") {
    const auto session = query_id<serve::SessionId>(request->query, "session");
    const auto shard = query_id<ShardId>(request->query, "shard");
    if (!session.has_value() || !shard.has_value()) {
      return http_response("400 Bad Request", "need ?session=S&shard=T\n",
                           "text/plain", body);
    }
    return http_response("200 OK", ok_json(router.migrate(*session, *shard)),
                         "application/json", body);
  }
  if (request->target == "/drain") {
    const auto shard = query_id<ShardId>(request->query, "shard");
    if (!shard.has_value()) {
      return http_response("400 Bad Request", "need ?shard=S\n",
                           "text/plain", body);
    }
    return http_response("200 OK", ok_json(router.drain(*shard)),
                         "application/json", body);
  }
  if (request->target == "/checkpoint") {
    router.checkpoint_all();
    return http_response("200 OK", ok_json(true), "application/json", body);
  }
  return http_response("404 Not Found", "no such route\n", "text/plain",
                       body);
}

}  // namespace qta::shard
