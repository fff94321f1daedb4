// Error handling primitives for CIMFlow.
//
// CIMFlow follows the C++ Core Guidelines error-handling model: invariant
// violations and unrecoverable misuse abort via CIMFLOW_CHECK (these indicate
// programming errors), while recoverable user-facing failures (bad config
// files, infeasible mappings, malformed models) throw cimflow::Error.
#pragma once

#include <cstdint>
#include <source_location>
#include <stdexcept>
#include <string>

namespace cimflow {

/// Category of a recoverable error, used by callers that want to react
/// differently to different failure classes (e.g. DSE sweeps that skip
/// infeasible configurations).
enum class ErrorCode : std::uint8_t {
  kInvalidArgument,  ///< caller passed a value outside the documented domain
  kInvalidConfig,    ///< architecture/model configuration failed validation
  kParseError,       ///< textual input (JSON/assembly/model file) is malformed
  kCapacityExceeded, ///< workload cannot be placed under resource constraints
  kUnsupported,      ///< feature combination not implemented
  kInternal,         ///< invariant violation surfaced as an exception
  kIoError,          ///< file could not be read or written (path in message)
};

/// Human-readable name of an ErrorCode (e.g. "InvalidConfig").
const char* to_string(ErrorCode code) noexcept;

/// Exception type thrown for all recoverable CIMFlow failures.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message);

  ErrorCode code() const noexcept { return code_; }
  /// what() without its "Code: " prefix, for wrapping in a longer message.
  const char* message() const noexcept;

 private:
  ErrorCode code_;
};

/// Throws Error with the given code; convenience for formatted call sites.
[[noreturn]] void raise(ErrorCode code, const std::string& message);

namespace detail {
[[noreturn]] void check_failed(const char* expr, const std::string& message,
                               const std::source_location& loc);
}  // namespace detail

}  // namespace cimflow

/// Aborts (after printing file:line and a message) when `expr` is false.
/// Use for internal invariants; use cimflow::raise for user-facing errors.
#define CIMFLOW_CHECK(expr, message)                                        \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::cimflow::detail::check_failed(#expr, (message),                     \
                                      std::source_location::current());     \
    }                                                                       \
  } while (false)
