#include "common/cli.h"

#include <cstdlib>
#include <stdexcept>

#include "common/check.h"

namespace qta {

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    QTA_CHECK_MSG(!body.empty(), "bare '--' is not a valid flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";  // boolean form
    }
  }
}

const std::string* CliFlags::find(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return nullptr;
  consumed_[name] = true;
  return &it->second;
}

std::string CliFlags::get_string(const std::string& name,
                                 const std::string& def) const {
  const std::string* v = find(name);
  return v ? *v : def;
}

std::int64_t CliFlags::get_int(const std::string& name,
                               std::int64_t def) const {
  const std::string* v = find(name);
  if (!v) return def;
  char* end = nullptr;
  const std::int64_t value = std::strtoll(v->c_str(), &end, 10);
  QTA_CHECK_MSG(!v->empty() && *end == '\0',
                "integer flag needs a whole decimal number as its value");
  return value;
}

double CliFlags::get_double(const std::string& name, double def) const {
  const std::string* v = find(name);
  if (!v) return def;
  char* end = nullptr;
  const double value = std::strtod(v->c_str(), &end);
  QTA_CHECK_MSG(!v->empty() && *end == '\0',
                "double flag needs a number as its value");
  return value;
}

bool CliFlags::get_bool(const std::string& name, bool def) const {
  const std::string* v = find(name);
  if (!v) return def;
  if (v->empty() || *v == "true" || *v == "1") return true;
  if (*v == "false" || *v == "0") return false;
  QTA_CHECK_MSG(false, "boolean flag must be true/false/1/0");
  return def;
}

bool CliFlags::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::vector<std::string> CliFlags::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : flags_) {
    if (!consumed_.count(name)) out.push_back(name);
  }
  return out;
}

}  // namespace qta
