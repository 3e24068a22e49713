// Router-side HTTP plane, qtrouterd's counterpart of
// serve/http_endpoint.h: it answers the shared routes through that
// header and adds the topology and control routes below, as one pure
// function from request text to response bytes.
//
// Read routes (GET/HEAD):
//   /healthz        -> 200 "ok\n"
//   /metrics        -> 200 Prometheus text (router registry: the
//                      qtserve_-compatible families plus qtrouter_*)
//   /flightrecorder -> 200 router flight-recorder JSON, 404 if disabled
//   /shards         -> 200 topology JSON (Router::shards_json)
// Mutating routes (also GET — the plane is curl-driven tooling, not a
// REST service; each returns JSON {"ok":...}):
//   /migrate?session=S&shard=T  start migrating session S to shard T
//   /drain?shard=S              start draining shard S
//   /checkpoint                 checkpoint every session's replay log
// S and T must be whole decimal numbers that fit the id's type; anything
// else is 400. Unknown routes 404, other methods 405, unparsable request
// lines 400; every response closes the connection.
#pragma once

#include <string>

namespace qta::shard {

class Router;

std::string handle_router_http(Router& router,
                               const std::string& request_text);

}  // namespace qta::shard
