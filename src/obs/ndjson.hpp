// Structured telemetry events and their NDJSON serialisation.
//
// Every event is one flat JSON object per line:
//
//   {"event":"golden.done","t_us":8123901,"test_case":3,"dur_us":412}
//
// Flat on purpose: a line can be consumed by jq, a spreadsheet importer, or
// the bundled parse_flat_json_object() -- a deliberately minimal parser
// that understands exactly what the sink emits (string/number/bool/null
// scalars, full string escaping) and nothing more. The telemetry log
// reader, obs::read_telemetry_log (obs/trace_export.hpp), is built on it,
// so the writer and reader round-trip by construction.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace propane::obs {

/// One scalar field value. Integers keep their signedness so counters
/// round-trip exactly; doubles use shortest round-trip formatting.
class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString };

  Value() = default;
  Value(bool v) : value_(v) {}
  Value(double v) : value_(v) {}
  Value(std::string v) : value_(std::move(v)) {}
  Value(std::string_view v) : value_(std::string(v)) {}
  Value(const char* v) : value_(std::string(v)) {}
  // Constructs the integer alternative in place: assigning it over the
  // default null alternative trips GCC 12's -Wmaybe-uninitialized on the
  // string alternative wherever a Field list is built.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Value(T v)
      : value_(std::conditional_t<std::is_signed_v<T>, std::int64_t,
                                  std::uint64_t>(v)) {}

  Kind kind() const { return static_cast<Kind>(value_.index()); }
  bool is_number() const {
    return kind() == Kind::kInt || kind() == Kind::kUint ||
           kind() == Kind::kDouble;
  }

  bool as_bool() const { return std::get<bool>(value_); }
  std::int64_t as_int() const { return std::get<std::int64_t>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  /// Any numeric kind, widened to double.
  double as_double() const;
  /// Any numeric kind, truncated toward zero and saturated to
  /// [0, UINT64_MAX] (negative and NaN read 0).
  std::uint64_t as_uint() const;

  bool operator==(const Value&) const = default;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, std::uint64_t, double,
               std::string>
      value_{nullptr};
};

struct Field {
  std::string key;
  Value value;

  bool operator==(const Field&) const = default;
};

struct Event {
  std::string name;
  std::uint64_t t_us = 0;  // steady_now_us() at emission
  std::vector<Field> fields;
};

/// Builds an event stamped with the current steady-clock time.
Event make_event(std::string name, std::vector<Field> fields = {});

/// Where events go. Implementations must be thread-safe; emit() is called
/// from the campaign's worker threads.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void emit(const Event& event) = 0;
  virtual void flush() {}
};

/// Streams events to a file (or borrowed stream) as NDJSON, one line per
/// event, serialised under a mutex so lines never interleave.
class NdjsonSink : public EventSink {
 public:
  /// Borrows `out`; the caller keeps it alive past the sink.
  explicit NdjsonSink(std::ostream& out) : out_(&out) {}
  /// Owns a file stream; `append` continues an existing event log (the
  /// natural mode for resumed campaigns -- sessions concatenate).
  explicit NdjsonSink(const std::filesystem::path& path, bool append = true);

  void emit(const Event& event) override;
  void flush() override;

  std::size_t event_count() const;
  std::size_t bytes_written() const;

 private:
  mutable std::mutex mu_;
  std::ofstream owned_;
  std::ostream* out_ = nullptr;
  std::size_t events_ = 0;
  std::size_t bytes_ = 0;
};

/// JSON string escaping: quote, backslash and control characters (the
/// latter as \uXXXX). Everything else passes through byte-for-byte, so
/// UTF-8 survives untouched.
std::string json_escape(std::string_view text);

/// Serialises one event as a single JSON object (no trailing newline).
std::string event_to_json(const Event& event);

/// Parses one NDJSON line produced by NdjsonSink back into its fields
/// (including the "event" and "t_us" fields). Returns nullopt on anything
/// malformed -- a torn final line from a still-running writer, truncation,
/// or non-scalar values this schema never emits.
std::optional<std::vector<Field>> parse_flat_json_object(
    std::string_view line);

/// The value of `key` in a parsed line, or null when it is absent.
const Value* find_field(const std::vector<Field>& fields, std::string_view key);
/// The string value of `key`, or "" when it is absent or not a string.
std::string string_field(const std::vector<Field>& fields,
                         std::string_view key);

}  // namespace propane::obs
