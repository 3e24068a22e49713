// MetricsRegistry: named counters, gauges, and log2-bucketed histograms
// with Prometheus-style label sets.
//
// Host-side only — datapath code never touches this header; it reaches
// telemetry exclusively through the TelemetrySink interface in
// telemetry/sink.h (enforced by qtlint's telemetry-boundary rule). The
// registry is the aggregation end: PipelineTelemetry folds sink events
// into these instruments, and the registry snapshots to either
// Prometheus text exposition or JSON (write_json below).
//
// Concurrency: instrument handles returned by the registry are stable
// for the registry's lifetime and their mutation ops are relaxed
// atomics, so engines on different host threads may bump the same
// counter. Looking up / creating instruments takes a mutex; do it once
// at attach time, not per event.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace qta {
class JsonWriter;
}  // namespace qta

namespace qta::telemetry {

/// Ordered label set, e.g. {{"algo","q_learning"},{"pipe","0"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over uint64 observations with log2 bucketing: slot k holds
/// the values whose bit width is k, i.e. slot 0 is exactly {0} and slot
/// k >= 1 covers [2^(k-1), 2^k - 1]. 65 slots span the full uint64
/// range, so observe() never saturates into an overflow bucket — the
/// top slot IS the bucket whose upper bound is UINT64_MAX.
class Histogram {
 public:
  static constexpr unsigned kSlots = 65;

  void observe(std::uint64_t v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of observations (wraps mod 2^64 — fine for the bucket shapes
  /// this repo records; Prometheus clients treat _sum as informative).
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t slot_count(unsigned slot) const;

  /// Slot index a value lands in (== std::bit_width(v)).
  static unsigned slot_of(std::uint64_t v);
  /// Largest value slot `slot` covers (inclusive); UINT64_MAX for the top
  /// slot.
  static std::uint64_t slot_upper_bound(unsigned slot);

 private:
  std::array<std::atomic<std::uint64_t>, kSlots> slots_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Owns every instrument; one series per (name, labels) pair.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned reference stays valid for the
  /// registry's lifetime. `help` is recorded on first creation of a
  /// metric family and emitted as `# HELP`.
  Counter& counter(const std::string& name, const Labels& labels = {},
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               const std::string& help = "");
  Histogram& histogram(const std::string& name, const Labels& labels = {},
                       const std::string& help = "");

  /// Prometheus text exposition format, series sorted by name then
  /// labels. Histograms emit cumulative `_bucket{le=...}` lines up to
  /// the highest populated slot plus the canonical `le="+Inf"` line.
  void write_prometheus(std::ostream& os) const;
  std::string prometheus_text() const;

  /// Emits one JSON object value ({"counters":[...],"gauges":[...],
  /// "histograms":[...]}) into an in-progress document — the Stats
  /// reply's body, and what quickstart embeds under a "metrics" key.
  void write_json(qta::JsonWriter& json) const;
  std::string json_text() const;

  /// Distinct metric family names registered so far, sorted. Histograms
  /// appear once under their base name (no _bucket/_sum/_count). The
  /// metric-catalog drift test diffs this against the docs.
  std::vector<std::string> metric_names() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  // Self-locking (QTA_EXCLUDES, not QTA_REQUIRES): the public
  // find-or-create entry points call it without holding mu_.
  Series& find_or_create(const std::string& name, const Labels& labels,
                         const std::string& help, Kind kind)
      QTA_EXCLUDES(mu_);
  static std::string series_key(const std::string& name, const Labels& labels);

  mutable qta::Mutex mu_;
  // Keyed by name + serialized labels => deterministic, family-grouped
  // iteration order for both exposition formats. The Series objects
  // themselves are append-only under mu_; the instruments they own are
  // lock-free atomics mutated through stable references.
  std::map<std::string, Series> series_ QTA_GUARDED_BY(mu_);
  // Metric family name -> help text.
  std::map<std::string, std::string> help_ QTA_GUARDED_BY(mu_);
};

}  // namespace qta::telemetry
