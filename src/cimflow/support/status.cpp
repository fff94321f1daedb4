#include "cimflow/support/status.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cimflow {

const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kInvalidArgument: return "InvalidArgument";
    case ErrorCode::kInvalidConfig: return "InvalidConfig";
    case ErrorCode::kParseError: return "ParseError";
    case ErrorCode::kCapacityExceeded: return "CapacityExceeded";
    case ErrorCode::kUnsupported: return "Unsupported";
    case ErrorCode::kInternal: return "Internal";
    case ErrorCode::kIoError: return "IoError";
  }
  return "Unknown";
}

Error::Error(ErrorCode code, const std::string& message)
    : std::runtime_error(std::string(to_string(code)) + ": " + message),
      code_(code) {}

const char* Error::message() const noexcept {
  return what() + std::strlen(to_string(code_)) + 2;
}

void raise(ErrorCode code, const std::string& message) {
  throw Error(code, message);
}

namespace detail {

void check_failed(const char* expr, const std::string& message,
                  const std::source_location& loc) {
  std::fprintf(stderr, "CIMFLOW_CHECK failed at %s:%u: (%s) %s\n",
               loc.file_name(), static_cast<unsigned>(loc.line()), expr,
               message.c_str());
  std::abort();
}

}  // namespace detail
}  // namespace cimflow
