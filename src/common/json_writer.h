// Dependency-free streaming JSON emitter.
//
// The telemetry subsystem writes metric snapshots, flight-recorder
// dumps and Chrome-trace export through it. It is a small streaming
// writer: explicit begin/end nesting, automatic comma placement, string
// escaping, and round-trippable number formatting. Invalid sequences
// (value without a key inside an object, unbalanced end_*) abort via
// QTA_CHECK — a malformed report should fail the writer, not the
// downstream parser.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qta {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by a value or begin_*.
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v);
  JsonWriter& value(unsigned v);
  JsonWriter& value(bool v);

  /// Shorthand for key(name).value(v).
  template <typename T>
  JsonWriter& field(const std::string& name, const T& v) {
    key(name);
    return value(v);
  }

  /// The finished document; aborts if nesting is unbalanced.
  std::string str() const;

  /// Writes str() to `path` (plus trailing newline); returns false on I/O
  /// failure.
  bool write_file(const std::string& path) const;

 private:
  enum class Scope { kObject, kArray };
  void before_value();
  void raw(const std::string& text);

  std::string out_;
  std::vector<Scope> stack_;
  std::vector<bool> has_items_;  // per scope: a comma is needed
  bool key_pending_ = false;
};

}  // namespace qta
