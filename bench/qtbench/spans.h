// In-memory spans for qtbench's traced run.
//
// Spans are recorded by the benchmark's own code around each call into
// a layer's public functions (codec, Router, Server, Engine, snapshot
// functions). They nest by call order on the one load thread: a span
// opened while another is open becomes its child, and a layer's self
// time is its span minus the children it encloses. Nothing is written
// until the run ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qta::qtbench {

class Spans {
 public:
  /// A disabled recorder records nothing; the traced run drives the
  /// same code once each way to price the spans themselves.
  explicit Spans(bool enabled) : enabled_(enabled) {}

  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  /// Switch recording off around set-up and warm-up; only between spans.
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span for client request `request` (0 = router-originated
  /// or not tied to one request) inside the innermost open span.
  void begin(const char* layer, std::uint64_t request);
  /// Closes the innermost open span.
  void end();

  class Scope {
   public:
    Scope(Spans& spans, const char* layer, std::uint64_t request)
        : spans_(spans) {
      spans_.begin(layer, request);
    }
    ~Scope() { spans_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
  };

  struct LayerTotals {
    std::uint64_t count = 0;
    double self_ns = 0.0;
  };
  /// Span count and summed self time, by layer name.
  std::map<std::string, LayerTotals> totals() const;

  /// Writes the first 20 000 spans of each layer as trace-event JSON
  /// that Perfetto and chrome://tracing load; each carries its id (its
  /// index in recording order), its request and its parent's id.
  /// Timestamps keep nanoseconds, which the sub-microsecond codec spans
  /// need (telemetry::TraceSession rounds to whole microseconds).
  bool write_perfetto(const std::string& path) const;

 private:
  struct Span {
    const char* layer;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t child_ns;
    std::int64_t parent;  // index into spans_, -1 at top level
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace qta::qtbench
