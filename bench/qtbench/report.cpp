#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <ostream>

namespace qta::qtbench {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// The j-th quartile (j = 1..3) by the exclusive method of Python's
/// statistics.quantiles(n=4), so repeat summaries match the spread the
/// benchmark's acceptance rule computes.
double quartile(std::vector<double> v, int j) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  if (n == 1) return v[0];
  const long delta = j * (n + 1);
  const long i = std::clamp(delta / 4, 1L, n - 1);
  const auto r = static_cast<double>(delta - 4 * i);
  return (v[static_cast<std::size_t>(i - 1)] * (4.0 - r) +
          v[static_cast<std::size_t>(i)] * r) /
         4.0;
}

}  // namespace

void Report::add(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::print(std::ostream& os) const {
  for (const Metric& m : metrics_) {
    os << m.name << " " << number(m.value) << " " << m.unit
       << " (n=" << m.samples << ")\n";
  }
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::uint64_t vm_hwm_kib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

CpuTicks cpu_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user and nice.
  std::ifstream in("/proc/stat");
  std::string label;
  std::uint64_t fields[8] = {};
  in >> label;
  for (std::uint64_t& f : fields) in >> f;
  if (!in || label != "cpu") return {};
  CpuTicks t;
  for (const std::uint64_t f : fields) t.total += f;
  t.steal = fields[7];
  return t;
}

bool summarize(const std::vector<std::string>& paths, std::ostream& os) {
  // The result line is this file's own json() output, so a scan for
  // `"name": {"value": V, "unit": "U"}` members is a complete parser.
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    std::string line, last;
    while (std::getline(in, line)) {
      if (!line.empty() && line.front() == '{') last = line;
    }
    const std::string::size_type start = last.find("\"metrics\": {");
    if (start == std::string::npos) return false;
    std::string::size_type pos = start + 12;
    while (true) {
      const auto name_open = last.find('"', pos);
      const auto value_key = last.find("{\"value\": ", pos);
      if (name_open == std::string::npos || value_key == std::string::npos) {
        break;
      }
      const auto name_close = last.find('"', name_open + 1);
      const std::string name =
          last.substr(name_open + 1, name_close - name_open - 1);
      const double v = std::strtod(last.c_str() + value_key + 10, nullptr);
      const auto unit_open = last.find("\"unit\": \"", value_key) + 9;
      const auto unit_close = last.find('"', unit_open);
      values[name].push_back(v);
      units[name] = last.substr(unit_open, unit_close - unit_open);
      pos = unit_close + 1;
    }
  }
  if (values.empty()) return false;
  os << std::left << std::setw(40) << "metric" << std::right << std::setw(14)
     << "median" << std::setw(14) << "q1" << std::setw(14) << "q3"
     << std::setw(10) << "iqr/med" << "  unit (runs)\n";
  for (const auto& [name, v] : values) {
    const double med = quartile(v, 2);
    const double q1 = quartile(v, 1);
    const double q3 = quartile(v, 3);
    os << std::left << std::setw(40) << name << std::right << std::setw(14)
       << med << std::setw(14) << q1 << std::setw(14) << q3 << std::setw(10)
       << std::setprecision(3) << (med != 0.0 ? (q3 - q1) / med : 0.0)
       << std::setprecision(6) << "  " << units[name] << " (" << v.size()
       << ")\n";
  }
  return true;
}

}  // namespace qta::qtbench
