#include "requests.hpp"

#include <utility>

#include "cimflow/support/rng.hpp"
#include "harness.hpp"

namespace perfbench {

std::string RequestSpec::key() const {
  return model + "@" + std::to_string(input_hw) + "/b" + std::to_string(batch);
}

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kMicro:
      return "micro";
    case RequestKind::kResnet:
      return "resnet18";
    case RequestKind::kFresh:
      return "fresh";
  }
  return "?";
}

std::vector<RequestSpec> request_configs() {
  std::vector<RequestSpec> configs = {
      {RequestKind::kMicro, "micro", 224, 8},
      {RequestKind::kResnet, "resnet18", 64, 4},
  };
  for (int i = 0; i < kFreshPerPass; ++i) {
    configs.push_back({RequestKind::kFresh, "micro", 224, 9 + i});
  }
  return configs;
}

std::vector<RequestSpec> pass_requests(std::uint64_t seed, std::uint64_t pass) {
  const std::vector<RequestSpec> configs = request_configs();
  std::vector<RequestSpec> requests;
  requests.reserve(kRequestsPerPass);
  requests.insert(requests.end(), kMicroPerPass, configs[0]);
  requests.insert(requests.end(), kResnetPerPass, configs[1]);
  requests.insert(requests.end(), configs.begin() + 2, configs.end());
  cimflow::SplitMix64 rng(derive_seed(seed, 0x5EED0000 + pass));
  for (std::size_t i = requests.size() - 1; i > 0; --i) {
    std::swap(requests[i], requests[rng.next_below(i + 1)]);
  }
  return requests;
}

}  // namespace perfbench
