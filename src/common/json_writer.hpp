// Streaming JSON emitter shared by the telemetry exporters and the bench
// harnesses' machine-readable outputs (BENCH_*.json), replacing the
// hand-rolled fprintf JSON each bench used to carry.
//
// Structural correctness (comma placement, nesting, escaping) is handled
// here; the writer throws std::logic_error on misuse (value with no key
// inside an object, unbalanced end_*) so malformed output fails loudly in
// tests instead of silently producing unparseable files.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace glimpse {

class JsonWriter {
 public:
  /// `indent` > 0 pretty-prints with that many spaces per level; 0 emits
  /// compact single-line JSON (what the JSONL exporter needs).
  explicit JsonWriter(std::ostream& os, int indent = 2);
  ~JsonWriter();  ///< flushes; does not throw on unbalanced state

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by exactly one value/container.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  /// The text of %.*g at the least precision in 6..17 that reads back as
  /// exactly `v` (so 100000, not 1e+05; %.17g when nothing shorter
  /// round-trips). Formatted with std::to_chars, starting the search at the
  /// digit count of v's shortest round-trip form: the bytes are the ones the
  /// snprintf/sscanf search wrote, so tier files, wire messages and digests
  /// are unchanged. Non-finite values become null (JSON has no NaN/inf).
  JsonWriter& value(double v);
  JsonWriter& null();

  /// key(k) + value(v) in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }
  /// key(k) + v at fixed decimal places, e.g. 12.3456 at 3 -> 12.346;
  /// non-finite values become null.
  JsonWriter& kv_fixed(std::string_view k, double v, int digits);

  /// True once the root value is complete (all containers closed).
  bool done() const;

  /// JSON string escaping (quotes not included).
  static std::string escape(std::string_view s);

 private:
  enum class Frame : unsigned char { kObject, kArray };
  void before_value(bool is_key);
  void newline_indent();
  void raw(std::string_view s);

  std::ostream& os_;
  int indent_;
  std::vector<Frame> stack_;
  std::vector<bool> first_in_frame_;
  bool pending_key_ = false;  ///< a key was written, its value is due
  bool root_done_ = false;
};

}  // namespace glimpse
