#include "obs/ndjson.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "obs/clock.hpp"

namespace propane::obs {

namespace {

void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

}  // namespace

double Value::as_double() const {
  switch (kind()) {
    case Kind::kInt:
      return static_cast<double>(std::get<std::int64_t>(value_));
    case Kind::kUint:
      return static_cast<double>(std::get<std::uint64_t>(value_));
    case Kind::kDouble:
      return std::get<double>(value_);
    default:
      throw std::logic_error("Value::as_double on non-numeric value");
  }
}

std::uint64_t Value::as_uint() const {
  switch (kind()) {
    case Kind::kInt: {
      const std::int64_t v = std::get<std::int64_t>(value_);
      return v < 0 ? 0 : static_cast<std::uint64_t>(v);
    }
    case Kind::kUint:
      return std::get<std::uint64_t>(value_);
    case Kind::kDouble: {
      // Saturating: a persisted line may hold any double, and casting one
      // outside [0, 2^64) -- or a NaN -- to uint64_t is undefined.
      const double v = std::get<double>(value_);
      if (!(v > 0.0)) return 0;
      if (v >= 0x1p64) return std::numeric_limits<std::uint64_t>::max();
      return static_cast<std::uint64_t>(v);
    }
    default:
      throw std::logic_error("Value::as_uint on non-numeric value");
  }
}

Event make_event(std::string name, std::vector<Field> fields) {
  Event event;
  event.name = std::move(name);
  event.t_us = steady_now_us();
  event.fields = std::move(fields);
  return event;
}

namespace {

// A writer killed mid-line (e.g. SIGKILL during a campaign) leaves the log
// without a trailing newline; appending straight onto it would glue two
// events into one unparseable line.
bool missing_trailing_newline(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open() || in.tellg() <= 0) return false;
  in.seekg(-1, std::ios::end);
  char last = '\n';
  return in.get(last) && last != '\n';
}

}  // namespace

NdjsonSink::NdjsonSink(const std::filesystem::path& path, bool append)
    : owned_(path, append ? (std::ios::out | std::ios::app)
                          : (std::ios::out | std::ios::trunc)) {
  if (!owned_.is_open()) {
    throw std::runtime_error("cannot open NDJSON event file: " +
                             path.string());
  }
  out_ = &owned_;
  if (append && missing_trailing_newline(path)) {
    *out_ << '\n';
    ++bytes_;
  }
}

void NdjsonSink::emit(const Event& event) {
  const std::string line = event_to_json(event);
  std::lock_guard lock(mu_);
  *out_ << line << '\n';
  ++events_;
  bytes_ += line.size() + 1;
}

void NdjsonSink::flush() {
  std::lock_guard lock(mu_);
  out_->flush();
}

std::size_t NdjsonSink::event_count() const {
  std::lock_guard lock(mu_);
  return events_;
}

std::size_t NdjsonSink::bytes_written() const {
  std::lock_guard lock(mu_);
  return bytes_;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void append_json_value(std::string& out, const Value& value) {
  char buffer[24];
  switch (value.kind()) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      break;
    case Value::Kind::kInt: {
      const auto r =
          std::to_chars(buffer, buffer + sizeof(buffer), value.as_int());
      out.append(buffer, r.ptr);
      break;
    }
    case Value::Kind::kUint: {
      const auto r =
          std::to_chars(buffer, buffer + sizeof(buffer), value.as_uint());
      out.append(buffer, r.ptr);
      break;
    }
    case Value::Kind::kDouble:
      append_double(out, value.as_double());
      break;
    case Value::Kind::kString:
      out += '"';
      out += json_escape(value.as_string());
      out += '"';
      break;
  }
}

}  // namespace

std::string event_to_json(const Event& event) {
  std::string out = "{\"event\":\"";
  out += json_escape(event.name);
  out += "\",\"t_us\":";
  char buffer[24];
  const auto r = std::to_chars(buffer, buffer + sizeof(buffer), event.t_us);
  out.append(buffer, r.ptr);
  for (const Field& field : event.fields) {
    out += ",\"";
    out += json_escape(field.key);
    out += "\":";
    append_json_value(out, field.value);
  }
  out += '}';
  return out;
}

// --- flat-object parser ---------------------------------------------------

namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  bool eof() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (eof() || peek() != c) return false;
    ++pos;
    return true;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  /// Appends one \uXXXX escape as UTF-8 (basic multilingual plane only;
  /// the sink never emits surrogate pairs).
  static bool append_codepoint(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (!eof()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) return false;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos + 4 > text.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          if (!append_codepoint(out, code)) return false;
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos;
    bool is_double = false;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos;
    while (!eof()) {
      const char c = peek();
      if ((c >= '0' && c <= '9')) {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        // '-'/'+' only legal inside an exponent here, but the to_chars
        // reparse below rejects malformed shapes anyway.
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos;
      } else {
        break;
      }
    }
    const std::string_view token = text.substr(start, pos - start);
    if (token.empty()) return false;
    if (is_double) {
      double v = 0;
      const auto r =
          std::from_chars(token.data(), token.data() + token.size(), v);
      if (r.ec != std::errc() || r.ptr != token.data() + token.size()) {
        return false;
      }
      out = Value(v);
      return true;
    }
    if (token.front() == '-') {
      std::int64_t v = 0;
      const auto r =
          std::from_chars(token.data(), token.data() + token.size(), v);
      if (r.ec != std::errc() || r.ptr != token.data() + token.size()) {
        return false;
      }
      out = Value(v);
      return true;
    }
    std::uint64_t v = 0;
    const auto r =
        std::from_chars(token.data(), token.data() + token.size(), v);
    if (r.ec != std::errc() || r.ptr != token.data() + token.size()) {
      return false;
    }
    out = Value(v);
    return true;
  }

  bool parse_value(Value& out) {
    skip_ws();
    if (eof()) return false;
    const char c = peek();
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = Value(std::move(s));
      return true;
    }
    if (c == 't') {
      if (!literal("true")) return false;
      out = Value(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return false;
      out = Value(false);
      return true;
    }
    if (c == 'n') {
      if (!literal("null")) return false;
      out = Value();
      return true;
    }
    return parse_number(out);
  }
};

}  // namespace

std::optional<std::vector<Field>> parse_flat_json_object(
    std::string_view line) {
  Parser p{line};
  if (!p.consume('{')) return std::nullopt;
  std::vector<Field> fields;
  p.skip_ws();
  if (p.consume('}')) {
    p.skip_ws();
    return p.eof() ? std::optional(std::move(fields)) : std::nullopt;
  }
  for (;;) {
    Field field;
    p.skip_ws();
    if (!p.parse_string(field.key)) return std::nullopt;
    if (!p.consume(':')) return std::nullopt;
    if (!p.parse_value(field.value)) return std::nullopt;
    fields.push_back(std::move(field));
    if (p.consume(',')) continue;
    if (p.consume('}')) break;
    return std::nullopt;
  }
  p.skip_ws();
  if (!p.eof()) return std::nullopt;
  return fields;
}

const Value* find_field(const std::vector<Field>& fields,
                        std::string_view key) {
  for (const Field& field : fields) {
    if (field.key == key) return &field.value;
  }
  return nullptr;
}

std::string string_field(const std::vector<Field>& fields,
                         std::string_view key) {
  const Value* value = find_field(fields, key);
  return value != nullptr && value->kind() == Value::Kind::kString
             ? value->as_string()
             : std::string();
}

}  // namespace propane::obs
