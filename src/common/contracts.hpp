// Contract checking for propane++.
//
// Follows the C++ Core Guidelines (I.6, I.8) spirit: preconditions and
// postconditions are checked at runtime and violations are reported as
// exceptions carrying the failed expression and source location. Contracts
// stay enabled in release builds -- this library drives fault-injection
// campaigns where silent corruption of the *analysis* would defeat the whole
// purpose; the checks are cheap relative to simulation work.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace propane {

/// Thrown when a PROPANE_REQUIRE/PROPANE_ENSURE/PROPANE_CHECK contract fails.
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(const char* kind, const char* expr, const std::string& msg,
                    std::source_location loc)
      : std::logic_error(format(kind, expr, msg, loc)), message_(msg) {}

  /// The message a _MSG check carries, for the user; empty for a check
  /// without one, whose failure is an internal bug (what() has the
  /// expression and the source location).
  const std::string& message() const { return message_; }

 private:
  std::string message_;

  static std::string format(const char* kind, const char* expr,
                            const std::string& msg, std::source_location loc) {
    std::string out;
    out += kind;
    out += " failed: ";
    out += expr;
    if (!msg.empty()) {
      out += " (";
      out += msg;
      out += ")";
    }
    out += " at ";
    out += loc.file_name();
    out += ":";
    out += std::to_string(loc.line());
    out += " in ";
    out += loc.function_name();
    return out;
  }
};

namespace detail {
[[noreturn]] inline void contract_fail(
    const char* kind, const char* expr, const std::string& msg,
    std::source_location loc = std::source_location::current()) {
  throw ContractViolation(kind, expr, msg, loc);
}
}  // namespace detail

}  // namespace propane

/// Precondition check; use at function entry.
#define PROPANE_REQUIRE(expr)                                              \
  do {                                                                     \
    if (!(expr))                                                           \
      ::propane::detail::contract_fail("precondition", #expr, "");        \
  } while (false)

/// Precondition check with an explanatory message.
#define PROPANE_REQUIRE_MSG(expr, msg)                                     \
  do {                                                                     \
    if (!(expr))                                                           \
      ::propane::detail::contract_fail("precondition", #expr, (msg));     \
  } while (false)

/// Postcondition check; use before returning.
#define PROPANE_ENSURE(expr)                                               \
  do {                                                                     \
    if (!(expr))                                                           \
      ::propane::detail::contract_fail("postcondition", #expr, "");       \
  } while (false)

/// Invariant / internal consistency check.
#define PROPANE_CHECK(expr)                                                \
  do {                                                                     \
    if (!(expr)) ::propane::detail::contract_fail("invariant", #expr, ""); \
  } while (false)

#define PROPANE_CHECK_MSG(expr, msg)                                       \
  do {                                                                     \
    if (!(expr))                                                           \
      ::propane::detail::contract_fail("invariant", #expr, (msg));        \
  } while (false)
