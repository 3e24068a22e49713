#include "telemetry/metrics.h"

#include <bit>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "common/json_writer.h"

namespace qta::telemetry {

void Histogram::observe(std::uint64_t v) {
  slots_[slot_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::slot_count(unsigned slot) const {
  QTA_CHECK(slot < kSlots);
  return slots_[slot].load(std::memory_order_relaxed);
}

unsigned Histogram::slot_of(std::uint64_t v) {
  return static_cast<unsigned>(std::bit_width(v));
}

std::uint64_t Histogram::slot_upper_bound(unsigned slot) {
  QTA_CHECK(slot < kSlots);
  if (slot == 0) return 0;
  if (slot == kSlots - 1) return std::numeric_limits<std::uint64_t>::max();
  return (std::uint64_t{1} << slot) - 1;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const Labels& labels,
                                  const std::string& help) {
  Series& s = find_or_create(name, labels, help, Kind::kCounter);
  QTA_CHECK_MSG(s.kind == Kind::kCounter, "metric re-registered as counter");
  return *s.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels,
                              const std::string& help) {
  Series& s = find_or_create(name, labels, help, Kind::kGauge);
  QTA_CHECK_MSG(s.kind == Kind::kGauge, "metric re-registered as gauge");
  return *s.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const Labels& labels,
                                      const std::string& help) {
  Series& s = find_or_create(name, labels, help, Kind::kHistogram);
  QTA_CHECK_MSG(s.kind == Kind::kHistogram,
                "metric re-registered as histogram");
  return *s.histogram;
}

MetricsRegistry::Series& MetricsRegistry::find_or_create(
    const std::string& name, const Labels& labels, const std::string& help,
    Kind kind) {
  MutexLock lock(mu_);
  const std::string key = series_key(name, labels);
  auto it = series_.find(key);
  if (it == series_.end()) {
    Series s;
    s.name = name;
    s.labels = labels;
    s.kind = kind;
    switch (kind) {
      case Kind::kCounter: s.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: s.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram:
        s.histogram = std::make_unique<Histogram>();
        break;
    }
    it = series_.emplace(key, std::move(s)).first;
    if (!help.empty() && help_.find(name) == help_.end()) help_[name] = help;
  }
  return it->second;
}

std::string MetricsRegistry::series_key(const std::string& name,
                                        const Labels& labels) {
  std::string key = name;
  key += '\0';
  for (const auto& [k, v] : labels) {
    key += k;
    key += '=';
    key += v;
    key += '\0';
  }
  return key;
}

namespace {

std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

// {a="x",b="y"}; extra is an optional pre-formatted trailing label
// (used for histogram le="...").
std::string prom_labels(const Labels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + prom_escape(v) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

const char* prom_type(int kind) {
  switch (kind) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}

}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  MutexLock lock(mu_);
  std::string last_family;
  for (const auto& [key, s] : series_) {
    (void)key;
    if (s.name != last_family) {
      last_family = s.name;
      auto help = help_.find(s.name);
      if (help != help_.end()) {
        os << "# HELP " << s.name << " " << help->second << "\n";
      }
      os << "# TYPE " << s.name << " " << prom_type(static_cast<int>(s.kind))
         << "\n";
    }
    switch (s.kind) {
      case Kind::kCounter:
        os << s.name << prom_labels(s.labels) << " " << s.counter->value()
           << "\n";
        break;
      case Kind::kGauge:
        os << s.name << prom_labels(s.labels) << " " << s.gauge->value()
           << "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *s.histogram;
        unsigned top = 0;
        for (unsigned i = 0; i < Histogram::kSlots; ++i) {
          if (h.slot_count(i) != 0) top = i;
        }
        std::uint64_t cumulative = 0;
        for (unsigned i = 0; i <= top; ++i) {
          cumulative += h.slot_count(i);
          os << s.name << "_bucket"
             << prom_labels(s.labels, "le=\"" +
                                          std::to_string(
                                              Histogram::slot_upper_bound(i)) +
                                          "\"")
             << " " << cumulative << "\n";
        }
        os << s.name << "_bucket" << prom_labels(s.labels, "le=\"+Inf\"")
           << " " << h.count() << "\n";
        os << s.name << "_sum" << prom_labels(s.labels) << " " << h.sum()
           << "\n";
        os << s.name << "_count" << prom_labels(s.labels) << " " << h.count()
           << "\n";
        break;
      }
    }
  }
}

std::string MetricsRegistry::prometheus_text() const {
  std::ostringstream os;
  write_prometheus(os);
  return os.str();
}

namespace {

void json_labels(qta::JsonWriter& json, const Labels& labels) {
  json.key("labels").begin_object();
  for (const auto& [k, v] : labels) json.field(k, v);
  json.end_object();
}

}  // namespace

void MetricsRegistry::write_json(qta::JsonWriter& json) const {
  MutexLock lock(mu_);
  json.begin_object();
  json.key("counters").begin_array();
  for (const auto& [key, s] : series_) {
    (void)key;
    if (s.kind != Kind::kCounter) continue;
    json.begin_object().field("name", s.name);
    json_labels(json, s.labels);
    json.field("value", s.counter->value()).end_object();
  }
  json.end_array();
  json.key("gauges").begin_array();
  for (const auto& [key, s] : series_) {
    (void)key;
    if (s.kind != Kind::kGauge) continue;
    json.begin_object().field("name", s.name);
    json_labels(json, s.labels);
    json.field("value", s.gauge->value()).end_object();
  }
  json.end_array();
  json.key("histograms").begin_array();
  for (const auto& [key, s] : series_) {
    (void)key;
    if (s.kind != Kind::kHistogram) continue;
    const Histogram& h = *s.histogram;
    json.begin_object().field("name", s.name);
    json_labels(json, s.labels);
    json.field("count", h.count()).field("sum", h.sum());
    json.key("buckets").begin_array();
    for (unsigned i = 0; i < Histogram::kSlots; ++i) {
      const std::uint64_t n = h.slot_count(i);
      if (n == 0) continue;
      json.begin_object()
          .field("le", Histogram::slot_upper_bound(i))
          .field("count", n)
          .end_object();
    }
    json.end_array().end_object();
  }
  json.end_array();
  json.end_object();
}

std::string MetricsRegistry::json_text() const {
  qta::JsonWriter json;
  write_json(json);
  return json.str();
}

std::vector<std::string> MetricsRegistry::metric_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  // series_ is keyed name-first, so families come out sorted and
  // contiguous; collapse label variants to one entry.
  for (const auto& [key, s] : series_) {
    (void)key;
    if (names.empty() || names.back() != s.name) names.push_back(s.name);
  }
  return names;
}

}  // namespace qta::telemetry
