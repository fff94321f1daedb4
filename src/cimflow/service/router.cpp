#include "cimflow/service/router.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "cimflow/core/flow.hpp"
#include "cimflow/models/models.hpp"
#include "cimflow/search/driver.hpp"
#include "cimflow/search/strategy.hpp"
#include "cimflow/service/request.hpp"
#include "cimflow/support/strings.hpp"

namespace cimflow::service {
namespace {

Json count(std::size_t n) { return Json(static_cast<std::int64_t>(n)); }

Json decoded_stats_json() {
  const sim::DecodedCacheStats stats = sim::decoded_cache_stats();
  return Json(JsonObject{{"lookups", count(stats.lookups)},
                         {"hits", count(stats.hits)},
                         {"builds", count(stats.builds)},
                         {"live", count(stats.live)},
                         {"strong_entries", count(stats.strong_entries)},
                         {"strong_evictions", count(stats.strong_evictions)},
                         {"strong_capacity", count(stats.strong_capacity)}});
}

}  // namespace

Router::Router(RouterOptions options) : options_(std::move(options)) {
  if (!options_.cache_dir.empty()) {
    persistent_.emplace(options_.cache_dir, options_.cache_max_bytes);
  }
  eval_.memo = &memo_;
  eval_.persistent_cache = persistent_ ? &*persistent_ : nullptr;
  eval_.decode_lru = options_.decode_lru;
  eval_.kernel_tier = options_.kernel_tier;
  // Resolve once (env override + CPUID probe) so a bad CIMFLOW_KERNELS or
  // --kernels fails daemon startup, not the first request — and so
  // stats/metrics report the concrete tier every simulator will use.
  tier_ = sim::kernels::resolve_tier(options_.kernel_tier);
  eval_.install_decode_cache();
}

void Router::record_scheduler(const sim::SchedulerStats& run) {
  std::lock_guard<std::mutex> lock(mu_);
  ++scheduler_.reports;
  scheduler_.events_dispatched += run.events_dispatched;
  scheduler_.max_queue_depth = std::max(scheduler_.max_queue_depth, run.max_queue_depth);
  scheduler_.idle_cycles_skipped += run.idle_cycles_skipped;
}

Router::ModelEntry Router::model(const std::string& name, std::int64_t input_hw) {
  const std::string key = name + "#" + std::to_string(input_hw);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(key);
  if (it == models_.end()) {
    models::ModelOptions options;
    options.input_hw = input_hw;
    ModelEntry entry;
    entry.graph =
        std::make_shared<const graph::Graph>(models::build_model(name, options));
    entry.fingerprint = model_fingerprint(*entry.graph);
    it = models_.emplace(key, std::move(entry)).first;
  }
  return it->second;
}

Json Router::handle_evaluate(const Json& params, const ProgressFn& progress) {
  const EvaluateRequest request = EvaluateRequest::from_json(params);
  const ModelEntry entry = model(request.model, request.input_hw);
  Flow flow(resolve_arch(request.arch));
  const FlowOptions options = request.flow_options(eval_.for_model(entry.fingerprint));

  if (progress) progress(0, 1);
  const EvaluationReport report = flow.evaluate(*entry.graph, options);
  if (progress) progress(1, 1);
  record_scheduler(report.sim.scheduler);
  return Json(JsonObject{
      {"payload", report.to_json()},  // exact `evaluate --json` document
      {"cache", Json(JsonObject{{"compile_memo_hit", Json(report.compile_cache_hit)},
                                {"persistent_hit", Json(report.persistent_cache_hit)}})}});
}

Json Router::handle_search(const Json& params, const ProgressFn& progress,
                           const std::string& verb) {
  const SearchRequest request = SearchRequest::from_json(params, verb);
  const ModelEntry entry = model(request.model, request.input_hw);
  search::SearchJob job = request.job();
  if (progress) job.progress = progress;
  // The daemon-scoped warm layers replace the driver's run-local ones: the
  // memo and the persistent cache inside eval_ survive this request.
  const search::SearchDriver::Options dopt =
      request.driver_options(eval_.for_model(entry.fingerprint));
  const std::unique_ptr<search::SearchStrategy> strategy =
      search::make_strategy(request.search_strategy);
  const search::SearchResult result =
      search::SearchDriver(dopt).run(*entry.graph, resolve_arch(request.arch), *strategy, job);
  for (const DsePoint& point : result.points) {
    if (point.ok) record_scheduler(point.report.sim.scheduler);
  }
  return Json(JsonObject{
      {"payload", result.to_json(false)},  // exact `sweep --json` document
      {"cache", Json(JsonObject{
                    {"compile_memo_hits", count(result.stats.compile_cache_hits)},
                    {"compile_memo_misses", count(result.stats.compile_cache_misses)},
                    {"persistent_hits", count(result.stats.persistent_cache_hits)},
                    {"persistent_stores", count(result.stats.persistent_cache_stores)}})}});
}

Json Router::handle(const Request& request, const ProgressFn& progress) {
  const auto t0 = std::chrono::steady_clock::now();
  auto record = [&](bool failed) {
    const std::int64_t wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    std::lock_guard<std::mutex> lock(mu_);
    VerbStats& stats = verbs_[request.verb];
    ++stats.requests;
    if (failed) ++stats.failures;
    stats.wall_ns_total += wall_ns;
    stats.wall_ns_last = wall_ns;
    stats.latency.record_ns(wall_ns);
  };
  try {
    Json body{JsonObject{}};
    if (request.verb == "evaluate") {
      body = handle_evaluate(request.params, progress);
    } else if (request.verb == "sweep" || request.verb == "search") {
      body = handle_search(request.params, progress, request.verb);
    } else {
      raise(ErrorCode::kInvalidArgument,
            "unknown verb \"" + request.verb +
                "\" (expected evaluate, sweep, search, stats, metrics, or shutdown)");
    }
    record(false);
    return body;
  } catch (...) {
    record(true);
    throw;
  }
}

Json Router::stats_json() const {
  JsonObject verbs;
  std::size_t model_count = 0;
  SchedulerTotals sched;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [verb, stats] : verbs_) {
      verbs[verb] = Json(JsonObject{
          {"requests", count(stats.requests)},
          {"failures", count(stats.failures)},
          {"wall_seconds_total", Json(static_cast<double>(stats.wall_ns_total) * 1e-9)},
          {"wall_seconds_last", Json(static_cast<double>(stats.wall_ns_last) * 1e-9)},
          {"latency_p50_seconds", Json(stats.latency.percentile_seconds(0.50))},
          {"latency_p90_seconds", Json(stats.latency.percentile_seconds(0.90))},
          {"latency_p99_seconds", Json(stats.latency.percentile_seconds(0.99))}});
    }
    model_count = models_.size();
    sched = scheduler_;
  }
  JsonObject o;
  o["verbs"] = Json(std::move(verbs));
  o["models_cached"] = count(model_count);
  o["memo_entries"] = count(memo_.size());
  o["kernel_tier"] = Json(std::string(sim::kernels::to_string(tier_)));
  o["decode_cache"] = decoded_stats_json();
  o["scheduler"] = Json(JsonObject{{"reports", Json(sched.reports)},
                                   {"events_dispatched", Json(sched.events_dispatched)},
                                   {"max_queue_depth", Json(sched.max_queue_depth)},
                                   {"idle_cycles_skipped", Json(sched.idle_cycles_skipped)}});
  o["persistent_cache"] = Json();
  if (persistent_) {
    const PersistentProgramCache::Stats stats = persistent_->stats();
    o["persistent_cache"] = Json(JsonObject{{"dir", Json(persistent_->dir())},
                                            {"hits", count(stats.hits)},
                                            {"misses", count(stats.misses)},
                                            {"rejected", count(stats.rejected)},
                                            {"stores", count(stats.stores)},
                                            {"store_failures", count(stats.store_failures)},
                                            {"evictions", count(stats.evictions)},
                                            {"touch_failures", count(stats.touch_failures)}});
  }
  return Json(std::move(o));
}

std::string Router::metrics_text(std::size_t queue_depth, std::size_t inflight) const {
  std::string out;
  out.reserve(4096);
  auto line = [&out](const std::string& text) {
    out += text;
    out += '\n';
  };
  // One metric family: its HELP and TYPE lines, then its sample lines.
  auto family = [&line](const char* name, const char* type, const char* help) {
    line(strprintf("# HELP %s %s", name, help));
    line(strprintf("# TYPE %s %s", name, type));
  };
  family("cimflowd_queue_depth", "gauge", "Requests waiting in the daemon queue.");
  line(strprintf("cimflowd_queue_depth %zu", queue_depth));
  family("cimflowd_inflight_requests", "gauge", "Requests currently being handled.");
  line(strprintf("cimflowd_inflight_requests %zu", inflight));

  std::map<std::string, VerbStats> verbs;
  SchedulerTotals sched;
  std::size_t model_count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    verbs = verbs_;
    sched = scheduler_;
    model_count = models_.size();
  }

  family("cimflowd_requests_total", "counter", "Requests handled, by verb.");
  for (const auto& [verb, stats] : verbs) {
    line(strprintf("cimflowd_requests_total{verb=\"%s\"} %zu", verb.c_str(),
                   stats.requests));
  }
  family("cimflowd_request_failures_total", "counter", "Failed requests, by verb.");
  for (const auto& [verb, stats] : verbs) {
    line(strprintf("cimflowd_request_failures_total{verb=\"%s\"} %zu", verb.c_str(),
                   stats.failures));
  }
  family("cimflowd_request_seconds", "histogram", "Request wall-clock latency, by verb.");
  for (const auto& [verb, stats] : verbs) {
    std::int64_t cumulative = 0;
    for (int i = 0; i < trace::LatencyHistogram::kFiniteBuckets; ++i) {
      cumulative += stats.latency.bucket_count(i);
      line(strprintf("cimflowd_request_seconds_bucket{verb=\"%s\",le=\"%.9g\"} %lld",
                     verb.c_str(), trace::LatencyHistogram::bucket_upper_seconds(i),
                     static_cast<long long>(cumulative)));
    }
    line(strprintf("cimflowd_request_seconds_bucket{verb=\"%s\",le=\"+Inf\"} %lld",
                   verb.c_str(), static_cast<long long>(stats.latency.count())));
    line(strprintf("cimflowd_request_seconds_sum{verb=\"%s\"} %.9g", verb.c_str(),
                   stats.latency.sum_seconds()));
    line(strprintf("cimflowd_request_seconds_count{verb=\"%s\"} %lld", verb.c_str(),
                   static_cast<long long>(stats.latency.count())));
  }

  family("cimflowd_kernel_tier", "gauge",
         "The SIMD kernel tier every simulator dispatches to.");
  line(strprintf("cimflowd_kernel_tier{tier=\"%s\"} 1", sim::kernels::to_string(tier_)));
  family("cimflowd_models_cached", "gauge", "Distinct (model, input_hw) graphs cached.");
  line(strprintf("cimflowd_models_cached %zu", model_count));
  family("cimflowd_compile_memo_entries", "gauge", "Programs held by the in-memory memo.");
  line(strprintf("cimflowd_compile_memo_entries %zu", memo_.size()));

  const sim::DecodedCacheStats decode = sim::decoded_cache_stats();
  family("cimflowd_decode_cache_lookups_total", "counter", "Decoded-program cache lookups.");
  line(strprintf("cimflowd_decode_cache_lookups_total %zu", decode.lookups));
  family("cimflowd_decode_cache_hits_total", "counter", "Decoded-program cache hits.");
  line(strprintf("cimflowd_decode_cache_hits_total %zu", decode.hits));

  if (persistent_) {
    const PersistentProgramCache::Stats stats = persistent_->stats();
    family("cimflowd_persistent_cache_hits_total", "counter", "On-disk compile-cache hits.");
    line(strprintf("cimflowd_persistent_cache_hits_total %zu", stats.hits));
    family("cimflowd_persistent_cache_misses_total", "counter",
           "On-disk compile-cache misses.");
    line(strprintf("cimflowd_persistent_cache_misses_total %zu", stats.misses));
  }

  family("cimflowd_sim_events_dispatched_total", "counter",
         "Scheduler events committed across every simulated report.");
  line(strprintf("cimflowd_sim_events_dispatched_total %lld",
                 static_cast<long long>(sched.events_dispatched)));
  family("cimflowd_sim_max_queue_depth", "gauge",
         "Peak scheduler event-queue depth over every simulated report.");
  line(strprintf("cimflowd_sim_max_queue_depth %lld",
                 static_cast<long long>(sched.max_queue_depth)));
  return out;
}

}  // namespace cimflow::service
