// Benchmark-local test: the same seed must give the same daemon-mixed
// request sequence and identical simulated counts; a different seed must
// reorder the sequence without changing its proportions.
#include <cstdio>
#include <map>

#include "cimflow/core/flow.hpp"
#include "cimflow/models/models.hpp"
#include "harness.hpp"
#include "requests.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what);
}

std::map<std::string, int> multiset(const std::vector<perfbench::RequestSpec>& requests) {
  std::map<std::string, int> counts;
  for (const auto& request : requests) ++counts[request.key()];
  return counts;
}

// The simulated report of a seeded functional micro evaluation, as JSON.
std::string simulate(std::uint64_t seed) {
  const cimflow::graph::Graph graph = cimflow::models::build_model("micro");
  cimflow::Flow flow(cimflow::arch::ArchConfig::cimflow_default());
  cimflow::FlowOptions options;
  options.batch = 4;
  options.validate = true;
  options.input_seed = perfbench::derive_seed(seed, 1) >> 33;
  options.eval.kernel_tier = cimflow::sim::kernels::KernelTier::kScalar;
  const cimflow::EvaluationReport report = flow.evaluate(graph, options);
  expect(report.validation_passed, "micro evaluation validates");
  return report.to_json().dump_line();
}

}  // namespace

int main() {
  using namespace perfbench;
  for (std::uint64_t pass : {0ull, 3ull}) {
    const auto a = pass_requests(11, pass);
    expect(a == pass_requests(11, pass), "same seed gives the same request sequence");
    const auto b = pass_requests(12, pass);
    expect(a != b, "another seed reorders the request sequence");
    expect(multiset(a) == multiset(b), "another seed keeps the request multiset");
  }
  expect(pass_requests(11, 0) != pass_requests(11, 1), "passes differ in order");

  const auto requests = pass_requests(11, 0);
  int micro = 0, resnet = 0, fresh = 0;
  for (const auto& request : requests) {
    micro += request.kind == RequestKind::kMicro;
    resnet += request.kind == RequestKind::kResnet;
    fresh += request.kind == RequestKind::kFresh;
  }
  expect(micro == kMicroPerPass && resnet == kResnetPerPass && fresh == kFreshPerPass,
         "70/20/10 proportions");
  const auto counts = multiset(requests);
  int unique_fresh = 0;
  for (const auto& config : request_configs()) {
    if (config.kind == RequestKind::kFresh) unique_fresh += counts.at(config.key()) == 1;
  }
  expect(unique_fresh == kFreshPerPass, "every fresh configuration appears once per pass");

  expect(simulate(5) == simulate(5), "same seed gives identical simulated counts");

  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
