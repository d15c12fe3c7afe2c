#include "svc/wire.hpp"

#include <charconv>
#include <utility>
#include <vector>

namespace propane::svc {

namespace {

/// Splits on single spaces; empty tokens (doubled spaces) are preserved and
/// will fail numeric parsing, which is the strictness we want.
std::vector<std::string_view> split(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t space = line.find(' ', start);
    if (space == std::string_view::npos) {
      tokens.push_back(line.substr(start));
      break;
    }
    tokens.push_back(line.substr(start, space - start));
    start = space + 1;
  }
  return tokens;
}

template <typename T>
bool parse_number(std::string_view token, T& out) {
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last && !token.empty();
}

/// Parses the known optional trace fields at positions [first, ...] of a
/// fixed-field message. A known field must be numeric if present; tokens
/// past the known ones are a *newer* peer's fields and are ignored.
template <typename... T>
bool parse_optional_tail(const std::vector<std::string_view>& tokens,
                         std::size_t first, T&... fields) {
  std::size_t i = first;
  bool ok = true;
  (((ok = ok && (i >= tokens.size() || parse_number(tokens[i], fields))),
    ++i),
   ...);
  return ok;
}

bool has_control_chars(std::string_view text) {
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 || u == 0x7f) return true;
  }
  return false;
}

}  // namespace

std::string format_wire(const WireMessage& message) {
  struct Visitor {
    std::string operator()(const HelloMsg& m) const {
      return "HELLO " + std::to_string(m.worker_id) + " " +
             std::to_string(m.pid) + " " + std::to_string(m.steady_us);
    }
    std::string operator()(const LeaseMsg& m) const {
      return "LEASE " + std::to_string(m.lease_id) + " " +
             std::to_string(m.begin) + " " + std::to_string(m.end) + " " +
             (m.rescan ? "1" : "0") + " " + std::to_string(m.trace_id) + " " +
             std::to_string(m.span_id);
    }
    std::string operator()(const DoneMsg& m) const {
      return "DONE " + std::to_string(m.lease_id) + " " +
             std::to_string(m.executed) + " " + std::to_string(m.diverged) +
             " " + std::to_string(m.span_id);
    }
    std::string operator()(const FailMsg& m) const {
      // The message rides in the final field and may contain spaces; a
      // newline would tear the framing and any other control byte would be
      // rejected by the receiving parser, so all are flattened here.
      std::string text = m.message;
      for (char& c : text) {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20 || u == 0x7f) c = ' ';
      }
      return "FAIL " + std::to_string(m.lease_id) + " " +
             std::to_string(m.span_id) + " " + text;
    }
    std::string operator()(const ShutdownMsg&) const { return "SHUTDOWN"; }
  };
  return std::visit(Visitor{}, message);
}

std::optional<WireMessage> parse_wire(std::string_view line) {
  const std::vector<std::string_view> tokens = split(line);
  if (tokens.empty() || tokens.front().empty()) return std::nullopt;
  const std::string_view verb = tokens.front();

  if (verb == "SHUTDOWN") {
    // Every message is built in place in the optional: moving a variant
    // with a string alternative into it trips GCC 12's
    // -Wmaybe-uninitialized.
    return std::make_optional<WireMessage>(ShutdownMsg{});  // tail ignored
  }
  if (verb == "HELLO") {
    HelloMsg msg;
    if (tokens.size() < 3 || !parse_number(tokens[1], msg.worker_id) ||
        !parse_number(tokens[2], msg.pid) ||
        !parse_optional_tail(tokens, 3, msg.steady_us)) {
      return std::nullopt;
    }
    return std::make_optional<WireMessage>(std::move(msg));
  }
  if (verb == "LEASE") {
    LeaseMsg msg;
    std::uint32_t rescan = 0;
    if (tokens.size() < 5 || !parse_number(tokens[1], msg.lease_id) ||
        !parse_number(tokens[2], msg.begin) ||
        !parse_number(tokens[3], msg.end) ||
        !parse_number(tokens[4], rescan) || rescan > 1 ||
        !parse_optional_tail(tokens, 5, msg.trace_id, msg.span_id)) {
      return std::nullopt;
    }
    msg.rescan = rescan == 1;
    return std::make_optional<WireMessage>(std::move(msg));
  }
  if (verb == "DONE") {
    DoneMsg msg;
    if (tokens.size() < 4 || !parse_number(tokens[1], msg.lease_id) ||
        !parse_number(tokens[2], msg.executed) ||
        !parse_number(tokens[3], msg.diverged) ||
        !parse_optional_tail(tokens, 4, msg.span_id)) {
      return std::nullopt;
    }
    return std::make_optional<WireMessage>(std::move(msg));
  }
  if (verb == "FAIL") {
    FailMsg msg;
    if (tokens.size() < 3 || !parse_number(tokens[1], msg.lease_id) ||
        !parse_number(tokens[2], msg.span_id)) {
      return std::nullopt;
    }
    // "FAIL <lease_id> <span_id> " -- everything after is the message.
    const std::size_t head =
        5 + tokens[1].size() + 1 + tokens[2].size() + 1;
    msg.message =
        head <= line.size() ? std::string(line.substr(head)) : std::string();
    if (has_control_chars(msg.message)) return std::nullopt;
    return std::make_optional<WireMessage>(std::move(msg));
  }
  return std::nullopt;
}

}  // namespace propane::svc
