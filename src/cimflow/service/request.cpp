#include "cimflow/service/request.hpp"

#include <cmath>
#include <set>
#include <type_traits>

#include "cimflow/search/strategy.hpp"

namespace cimflow::service {
namespace {

// Each request's schema, listed once: field(key, member[, minimum]) for
// every key. from_json, to_json and the unknown-key check all walk it.
constexpr auto kEvaluateFields = [](auto& r, auto&& field) {
  field("model", r.model);
  field("input_hw", r.input_hw, 1);
  field("arch", r.arch);
  field("strategy", r.strategy);
  field("batch", r.batch, 1);
  field("validate", r.validate);
  field("seed", r.seed, 0);
  field("sim_threads", r.sim_threads, 0);
};

constexpr auto kSearchFields = [](auto& r, auto&& field) {
  field("model", r.model);
  field("input_hw", r.input_hw, 1);
  field("arch", r.arch);
  field("mg", r.mg);
  field("flit", r.flit);
  field("strategies", r.strategies);
  field("batch", r.batch, 1);
  field("budget", r.budget, 0);
  field("seed", r.seed, 0);
  field("sim_threads", r.sim_threads, 0);
  field("threads", r.threads, 0);
  field("objectives", r.objectives);
  field("search_strategy", r.search_strategy);
};

/// Runs `fn`; an Error it raises is re-raised naming the param `key`.
template <typename Fn>
void for_key(const std::string& key, Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    raise(e.code(), "param \"" + key + "\": " + e.message());
  }
}

void read(const Json& v, std::int64_t& out) {
  constexpr double kExact = 9007199254740992.0;  // 2^53: doubles stay integral
  if (!v.is_number() || std::abs(v.as_double()) > kExact ||
      v.as_double() != std::nearbyint(v.as_double())) {
    raise(ErrorCode::kInvalidArgument, "must be an integer");
  }
  out = v.as_int();
}

void read(const Json& v, bool& out) {
  if (!v.is_bool()) raise(ErrorCode::kInvalidArgument, "must be a boolean");
  out = v.as_bool();
}

const std::string& string_of(const Json& v) {
  if (!v.is_string()) raise(ErrorCode::kInvalidArgument, "must be a string");
  return v.as_string();
}

void read(const Json& v, std::string& out) { out = string_of(v); }
void read(const Json& v, compiler::Strategy& out) {
  out = compiler::strategy_from_string(string_of(v));
}
void read(const Json& v, search::Objective& out) {
  out = search::objective_from_string(string_of(v));
}

void read(const Json& v, Json& out) {  // an architecture config
  if (!v.is_object()) {
    raise(ErrorCode::kInvalidArgument, "must be an architecture-config object");
  }
  arch::ArchConfig::from_json(v);  // validates; resolve_arch() builds it again
  out = v;
}

template <typename T>
void read(const Json& v, std::vector<T>& out) {
  if (!v.is_array()) raise(ErrorCode::kInvalidArgument, "must be an array");
  out.assign(v.as_array().size(), T{});
  for (std::size_t i = 0; i < out.size(); ++i) read(v.as_array()[i], out[i]);
}

Json write(compiler::Strategy s) { return Json(compiler::to_string(s)); }
Json write(search::Objective o) { return Json(search::to_string(o)); }
template <typename T>
Json write(const T& value) { return Json(value); }
template <typename T>
Json write(const std::vector<T>& values) {
  JsonArray out;
  for (const T& value : values) out.push_back(write(value));
  return Json(std::move(out));
}

/// Overlays `params` on `r` (the defaults): strict about keys, types and
/// each integer field's minimum.
template <typename R, typename Fields>
R parse(const Json& params, Fields fields, R r) {
  if (!params.is_object()) {
    raise(ErrorCode::kInvalidArgument, "request params must be an object");
  }
  std::set<std::string> keys;
  fields(r, [&](const char* key, auto&&...) { keys.insert(key); });
  for (const auto& entry : params.as_object()) {
    if (keys.count(entry.first) == 0) {
      raise(ErrorCode::kInvalidArgument, "unknown param \"" + entry.first + "\"");
    }
  }
  fields(r, [&](const char* key, auto& out, [[maybe_unused]] std::int64_t min = 0) {
    if (!params.contains(key)) return;
    for_key(key, [&] {
      read(params.at(key), out);
      if constexpr (std::is_same_v<std::decay_t<decltype(out)>, std::int64_t>) {
        if (out < min) {
          raise(ErrorCode::kInvalidArgument, "must be >= " + std::to_string(min));
        }
      }
    });
  });
  return r;
}

template <typename R, typename Fields>
Json emit(const R& r, Fields fields) {
  JsonObject o;
  fields(r, [&](const char* key, const auto& value, auto&&...) {
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>, Json>) {
      if (value.is_null()) return;  // no arch: the default architecture
    }
    o[key] = write(value);
  });
  return Json(std::move(o));
}

}  // namespace

arch::ArchConfig resolve_arch(const Json& arch) {
  return arch.is_null() ? arch::ArchConfig::cimflow_default()
                        : arch::ArchConfig::from_json(arch);
}

EvaluateRequest EvaluateRequest::from_json(const Json& params) {
  return parse(params, kEvaluateFields, EvaluateRequest{});
}

Json EvaluateRequest::to_json() const { return emit(*this, kEvaluateFields); }

FlowOptions EvaluateRequest::flow_options(EvalContext eval) const {
  FlowOptions options;
  options.strategy = strategy;
  options.batch = batch;
  options.validate = validate;
  options.input_seed = static_cast<std::uint64_t>(seed);
  options.eval = std::move(eval);
  options.eval.sim_threads = sim_threads;
  return options;
}

SearchRequest SearchRequest::from_json(const Json& params, const std::string& verb) {
  SearchRequest defaults;
  if (verb == "search") defaults.search_strategy = "pareto";
  SearchRequest r = parse(params, kSearchFields, std::move(defaults));
  for_key("search_strategy", [&] { search::make_strategy(r.search_strategy); });
  return r;
}

Json SearchRequest::to_json() const { return emit(*this, kSearchFields); }

search::SearchJob SearchRequest::job() const {
  search::SearchJob job;
  job.space.mg_sizes = mg;
  job.space.flit_sizes = flit;
  job.space.strategies = strategies;
  job.batch = batch;
  job.seed = static_cast<std::uint64_t>(seed);
  job.budget = static_cast<std::size_t>(budget);
  job.objectives = objectives;
  return job;
}

search::SearchDriver::Options SearchRequest::driver_options(EvalContext eval) const {
  search::SearchDriver::Options options;
  options.engine.num_threads = static_cast<std::size_t>(threads);
  options.engine.eval = std::move(eval);
  options.engine.eval.sim_threads = sim_threads;
  return options;
}

}  // namespace cimflow::service
