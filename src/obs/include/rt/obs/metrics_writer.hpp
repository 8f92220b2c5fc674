#pragma once
// Minimal JSON metrics emitter for the bench artifacts.  Benches build flat
// records (one per measured configuration), MetricsWriter serializes them
// as a JSON array matching the results/BENCH_*.json schema — stable key
// order, correct string escaping, round-trippable numbers.
//
// Deliberately not a JSON parser or a general DOM: JsonValue supports
// exactly what the schema needs (null, bool, integer, double, string,
// array, ordered object), so the golden-file test in tests/obs_test.cpp
// pins the byte-exact output.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rt/guard/status.hpp"

namespace rt::obs {

/// One JSON value.  Objects keep insertion order (schema readability and
/// byte-stable goldens); set() replaces an existing key in place.
class JsonValue {
 public:
  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  // Spelled as the fundamental integer types (not the <cstdint> aliases,
  // which collide with them on LP64) so every integral argument converts
  // without ambiguity against the double overload.
  JsonValue(long long i) : kind_(Kind::kInt), int_(i) {}
  JsonValue(unsigned long long u) : JsonValue(static_cast<long long>(u)) {}
  JsonValue(int i) : JsonValue(static_cast<long long>(i)) {}
  JsonValue(long i) : JsonValue(static_cast<long long>(i)) {}
  JsonValue(unsigned long u) : JsonValue(static_cast<long long>(u)) {}
  JsonValue(double d) : kind_(Kind::kDouble), double_(d) {}
  JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}

  static JsonValue array() { return JsonValue(Kind::kArray); }
  static JsonValue object() { return JsonValue(Kind::kObject); }

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }

  /// Scalar readers for parsed documents (json_parse): each returns
  /// @p fallback when the value is not of the requested kind.  Numbers
  /// convert between the integer and double representations.
  bool as_bool(bool fallback = false) const {
    return kind_ == Kind::kBool ? bool_ : fallback;
  }
  std::int64_t as_int(std::int64_t fallback = 0) const {
    if (kind_ == Kind::kInt) return int_;
    if (kind_ == Kind::kDouble) return static_cast<std::int64_t>(double_);
    return fallback;
  }
  double as_double(double fallback = 0) const {
    if (kind_ == Kind::kDouble) return double_;
    if (kind_ == Kind::kInt) return static_cast<double>(int_);
    return fallback;
  }
  std::string as_string(const std::string& fallback = {}) const {
    return kind_ == Kind::kString ? str_ : fallback;
  }

  /// Object access: set (insert or replace) and lookup (null if absent).
  JsonValue& set(const std::string& key, JsonValue v);
  const JsonValue* find(const std::string& key) const;

  /// Array append.
  JsonValue& push_back(JsonValue v);
  std::size_t size() const { return items_.size(); }
  /// Element access for parsed arrays/objects (nullptr when out of range).
  const JsonValue* at(std::size_t i) const {
    return i < items_.size() ? &items_[i] : nullptr;
  }
  /// Key of object entry @p i ("" when out of range; pairs with at()).
  const std::string& key_at(std::size_t i) const;

  /// Serialize.  indent < 0: compact one-line; indent >= 0: pretty-printed
  /// with that many spaces per level (the results/ files use 2).
  std::string dump(int indent = -1) const;

  /// Format a double the way dump() does (shortest round-trip form) —
  /// exposed for tests.
  static std::string format_double(double d);

 private:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  explicit JsonValue(Kind k) : kind_(k) {}
  void write(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string str_;
  std::vector<JsonValue> items_;              // array elements
  std::vector<std::string> keys_;             // object keys (with items_)
};

/// Escape a string for embedding in JSON (quotes not included).
std::string json_escape(const std::string& s);

/// Parse a complete JSON document into a JsonValue.  The counterpart of
/// dump() — added for the rt::tune plan store, which must read back what
/// MetricsWriter-style code wrote.  Strict where it matters for durable
/// state: trailing garbage, truncated input, bad escapes, and nesting
/// deeper than 64 levels are all rejected (returns false, *out untouched,
/// @p err set to a one-line reason with the byte offset).  Accepts any
/// value as the top level, \uXXXX escapes (BMP, encoded as UTF-8), and
/// both integer and double number forms (integers that fit int64 stay
/// integers, everything else parses as double).
bool json_parse(const std::string& text, JsonValue* out,
                std::string* err = nullptr);

/// Accumulates flat records and writes them as a JSON array.
///
///   MetricsWriter w;
///   JsonValue& rec = w.add_record();
///   rec.set("kernel", "JACOBI").set("n", 200L).set("mflops", 3873.3);
///   w.write_file("results/BENCH_3.json");
class MetricsWriter {
 public:
  /// Append an empty object record and return a reference to fill in.
  /// (References stay valid: records are heap-allocated individually.)
  JsonValue& add_record();

  std::size_t num_records() const { return records_.size(); }

  /// The whole document as a pretty-printed JSON array (trailing newline).
  std::string dump() const;

  /// Write dump() to @p path; returns false (and leaves a partial file at
  /// worst) if the file cannot be opened or written.  Thin wrapper over
  /// write_file_checked for callers that only need pass/fail.
  bool write_file(const std::string& path) const;

  /// Checked write with a *typed* outcome: records must land complete or
  /// the caller must know why they did not — a truncated JSON array is
  /// worse than no file, and once output can be a pipe or socket
  /// (rt::serve), short writes are routine, not exotic.
  ///   kOk               everything reached stable storage (write + flush)
  ///   kInvalidArgument  the path cannot be opened for writing
  ///   kIoError          a short write or failed flush/close (full disk,
  ///                     closed pipe; errno text in @p detail)
  /// @p detail (optional) receives a one-line reason on failure.
  rt::guard::Status write_file_checked(const std::string& path,
                                       std::string* detail = nullptr) const;

  /// The checked writer over an already-open file descriptor (sockets,
  /// pipes): writes dump() fully or reports kIoError with the errno text.
  /// The caller should ignore SIGPIPE process-wide (rt::serve does) so a
  /// closed peer surfaces here as EPIPE instead of killing the process.
  rt::guard::Status write_fd_checked(int fd, std::string* detail = nullptr) const;

 private:
  std::vector<std::unique_ptr<JsonValue>> records_;
};

/// Write @p text fully to @p fd, retrying partial writes and EINTR.
/// Returns kOk, kTimeout (EAGAIN/EWOULDBLOCK — an SO_SNDTIMEO send
/// deadline expired, or the fd is non-blocking and full), or kIoError
/// (errno text in @p detail).  Shared by MetricsWriter::write_fd_checked
/// and the rt::serve request/response paths.
rt::guard::Status write_all_fd(int fd, const std::string& text,
                               std::string* detail = nullptr);

}  // namespace rt::obs
