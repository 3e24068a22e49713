#include "spans.h"

#include <map>
#include <string_view>

#include "common/check.h"
#include "common/json_writer.h"

namespace qta::qtbench {

void Spans::begin(const char* layer, std::uint64_t request) {
  if (!enabled_) return;
  const std::int64_t parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  open_.push_back(spans_.size());
  spans_.push_back(Span{layer, request, now_ns(), 0, 0, parent});
}

void Spans::end() {
  if (!enabled_) return;
  QTA_CHECK_MSG(!open_.empty(), "qtbench: span end without begin");
  Span& span = spans_[open_.back()];
  open_.pop_back();
  span.end_ns = now_ns();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
  }
}

std::map<std::string, Spans::LayerTotals> Spans::totals() const {
  std::map<std::string, LayerTotals> out;
  for (const Span& span : spans_) {
    LayerTotals& t = out[span.layer];
    ++t.count;
    t.self_ns +=
        static_cast<double>(span.end_ns - span.start_ns - span.child_ns);
  }
  return out;
}

bool Spans::write_perfetto(const std::string& path) const {
  // Keeps the file quick to open while every layer still shows up.
  constexpr std::size_t kPerLayer = 20000;
  std::map<std::string_view, std::size_t> written;
  JsonWriter json;
  json.begin_object();
  json.key("traceEvents").begin_array();
  json.begin_object()
      .field("name", "process_name")
      .field("ph", "M")
      .field("pid", 1)
      .key("args")
      .begin_object()
      .field("name", "qtbench traced replica")
      .end_object()
      .end_object();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (++written[span.layer] > kPerLayer) continue;
    json.begin_object()
        .field("name", span.layer)
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", 1)
        .field("ts", static_cast<double>(span.start_ns) / 1000.0)
        .field("dur", static_cast<double>(span.end_ns - span.start_ns) /
                          1000.0)
        .key("args")
        .begin_object()
        .field("id", i)
        .field("request", span.request)
        .field("parent", span.parent)
        .end_object()
        .end_object();
  }
  json.end_array();
  json.field("displayTimeUnit", "ns");
  json.end_object();
  return json.write_file(path);
}

}  // namespace qta::qtbench
