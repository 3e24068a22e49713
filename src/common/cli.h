// Minimal command-line flag parsing for examples and benchmark binaries.
//
// Supports `--name=value`, `--name value` and boolean `--name` forms.
// Unknown flags are an error (typos in sweep scripts should fail loudly).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace qta {

/// Whether an integer flag value lies in `min`..T's maximum: the daemons
/// check every port and count this way before narrowing it to its field.
template <typename T>
constexpr bool flag_fits(std::int64_t value, std::int64_t min = 0) {
  return value >= min &&
         static_cast<std::uint64_t>(value) <=
             static_cast<std::uint64_t>(std::numeric_limits<T>::max());
}

class CliFlags {
 public:
  /// Parses argv; aborts with a usage message on malformed input.
  CliFlags(int argc, const char* const* argv);

  /// Typed getters with defaults. A present-but-valueless flag reads as
  /// "true" for get_bool and is an error for the others, as is a numeric
  /// value with trailing characters (`--port=80x`, `--rate=0.5s`).
  std::string get_string(const std::string& name,
                         const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  bool has(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were never read by any getter — call at the end of main to
  /// catch typos: returns the list of unconsumed names.
  std::vector<std::string> unused() const;

 private:
  const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
};

}  // namespace qta
