// Metric collection and output for qtbench.
//
// Every metric prints as `name value unit (n=...)`, where n is the number
// of raw samples behind the value, and the run ends with one JSON line:
//   {"correct": true, "attempted": N, "failed": N,
//    "metrics": {"name": {"value": V, "unit": "U"}, ...}}
// Percentiles are exact nearest-rank values over the raw samples, never
// histogram buckets.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace qta::qtbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples);

  void print(std::ostream& os) const;
  /// The one-line result object. Values keep every digit (shortest
  /// round-trip form); an infinite value (a percentile that landed on a
  /// failed request) is written as the largest finite double.
  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Exact nearest-rank percentile, q in (0, 1]. Failed requests enter as
/// +infinity and so sort last. Empty input yields 0.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// VmHWM (peak resident set) of `pid` in KiB, from /proc/<pid>/status;
/// pid 0 reads this process. 0 when unreadable.
std::uint64_t vm_hwm_kib(int pid);

/// Host-wide CPU time so far, in clock ticks, from /proc/stat: all of it,
/// and the part a hypervisor gave to other guests (steal). Both 0 when
/// unreadable.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();

/// Prints the median and quartiles of every metric across result files
/// written by earlier runs (run.sh --repeat). Returns false when a file
/// cannot be read or holds no result line.
bool summarize(const std::vector<std::string>& paths, std::ostream& os);

}  // namespace qta::qtbench
