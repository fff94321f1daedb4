// The request schema of the compute verbs, written once for every surface
// that submits one: the direct CLI subcommands, `cimflow_cli client` and
// cimflowd's Router all read params through from_json() and run what its
// conversion returns. Each default is a member initializer here and nowhere
// else, so a request means the same evaluation however it arrives. The JSON
// key of each field is its name; `arch` is an architecture-config object
// (what an --arch file holds), absent for the default CIMFlow chip.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cimflow/arch/arch_config.hpp"
#include "cimflow/core/flow.hpp"
#include "cimflow/search/driver.hpp"
#include "cimflow/support/json.hpp"

namespace cimflow::service {

/// The default architecture for a null `arch`, else the config it holds.
arch::ArchConfig resolve_arch(const Json& arch);

struct EvaluateRequest {
  std::string model = "resnet18";
  std::int64_t input_hw = 224;
  Json arch;
  compiler::Strategy strategy = compiler::Strategy::kDpOptimized;
  std::int64_t batch = 8;
  bool validate = false;
  std::int64_t seed = 7;
  std::int64_t sim_threads = 1;  ///< 0 = all cores

  /// Strict: an unknown key, a wrongly typed value or an out-of-range one
  /// raises Error(kInvalidArgument) naming the key.
  static EvaluateRequest from_json(const Json& params);
  Json to_json() const;
  /// The flow options this request asks for, on top of `eval`'s warm layers.
  FlowOptions flow_options(EvalContext eval = {}) const;

  bool operator==(const EvaluateRequest&) const = default;
};

struct SearchRequest {
  std::string model = "resnet18";
  std::int64_t input_hw = 224;
  Json arch;
  std::vector<std::int64_t> mg = {4, 8, 12, 16};
  std::vector<std::int64_t> flit = {8, 16};
  std::vector<compiler::Strategy> strategies = {compiler::Strategy::kGeneric,
                                                compiler::Strategy::kDpOptimized};
  std::int64_t batch = 4;
  std::int64_t budget = 0;  ///< max evaluations; 0 = the whole space
  std::int64_t seed = 7;
  std::int64_t sim_threads = 1;  ///< per point; 0 = all cores
  std::int64_t threads = 0;      ///< engine workers; 0 = all cores
  std::vector<search::Objective> objectives = {search::Objective::kLatency,
                                               search::Objective::kEnergy};
  std::string search_strategy = "grid";  ///< pareto for the `search` verb

  /// Strict like EvaluateRequest::from_json; `verb` ("sweep" or "search")
  /// picks the default search_strategy.
  static SearchRequest from_json(const Json& params, const std::string& verb = "sweep");
  Json to_json() const;
  search::SearchJob job() const;
  /// Driver options with this request's threading, on top of `eval`.
  search::SearchDriver::Options driver_options(EvalContext eval = {}) const;

  bool operator==(const SearchRequest&) const = default;
};

}  // namespace cimflow::service
