// The daemon-mixed request mix. Every pass sends the same multiset of
// requests in a seeded order, so every seed has the same proportions:
//   * 70% micro, batch 8 — tiny, so protocol, JSON and router overhead
//     dominate;
//   * 20% resnet18 at 64 px, batch 4 — memo hits, so the simulator dominates;
//   * 10% fresh configurations: micro at a batch no earlier request of the
//     pass used, forcing a memo miss (compile, decode and insert — writes
//     beside the reads).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class RequestKind : std::uint8_t { kMicro, kResnet, kFresh };

struct RequestSpec {
  RequestKind kind = RequestKind::kMicro;
  std::string model;
  std::int64_t input_hw = 224;
  std::int64_t batch = 8;

  /// Identity of the evaluated configuration ("micro@224/b8").
  std::string key() const;
  bool operator==(const RequestSpec&) const = default;
};

inline constexpr int kMicroPerPass = 140;
inline constexpr int kResnetPerPass = 40;
inline constexpr int kFreshPerPass = 20;
inline constexpr int kRequestsPerPass = kMicroPerPass + kResnetPerPass + kFreshPerPass;

const char* to_string(RequestKind kind);

/// The configurations a pass can request: the two memo-hit ones, then the
/// fresh ones (micro at batch 9, 10, ...).
std::vector<RequestSpec> request_configs();

/// Pass `pass`'s requests: the fixed multiset, Fisher-Yates shuffled by a
/// SplitMix64 stream derived from (seed, pass).
std::vector<RequestSpec> pass_requests(std::uint64_t seed, std::uint64_t pass);

}  // namespace perfbench
