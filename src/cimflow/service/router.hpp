// Request dispatch for cimflowd: maps compute verbs (evaluate, sweep,
// search) onto the existing Flow / SearchDriver machinery while keeping the
// expensive state warm across requests. The warm layers live in exactly one
// daemon-scoped EvalContext — one ProgramMemo, one optional
// PersistentProgramCache, the process-wide strong decode LRU (installed at
// construction) — and every request gets a per-model for_model() copy. A
// second identical request therefore skips model building, compilation, and
// instruction decode entirely; the `stats` verb exposes the counters proving
// it, alongside the simulator's event-queue counters aggregated across
// requests.
//
// Thread-safety: handle() is called concurrently from the daemon's worker
// pool. The memo and persistent cache are internally synchronized; the model
// cache and per-verb counters are guarded here. Params parse through
// service/request.hpp, as on the CLI, so result payloads are the exact
// documents the CLI's --json flags write for the same request.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "cimflow/core/eval_context.hpp"
#include "cimflow/core/program_cache.hpp"
#include "cimflow/graph/graph.hpp"
#include "cimflow/service/protocol.hpp"
#include "cimflow/sim/decoded.hpp"
#include "cimflow/sim/report.hpp"
#include "cimflow/support/trace.hpp"

namespace cimflow::service {

/// Streaming progress sink: (completed, total) per completed unit of work.
using ProgressFn = std::function<void(std::size_t, std::size_t)>;

struct RouterOptions {
  /// Persistent compile-cache directory shared by every request; empty
  /// disables on-disk persistence (the in-memory memo still spans requests).
  /// Opening fails fast with Error(kIoError) at construction.
  std::string cache_dir;
  std::int64_t cache_max_bytes = 0;  ///< size cap for cache_dir (0 = unlimited)
  /// Strong decode-LRU capacity installed at construction (the daemon-wide
  /// warmth knob behind CIMFLOW_DECODE_LRU for direct CLI runs).
  std::size_t decode_lru = sim::kDefaultStrongDecodes;
  /// SIMD kernel tier for every simulator the daemon runs (`--kernels`,
  /// mirroring the CIMFLOW_KERNELS env override; kAuto = best available).
  /// Byte-identical payloads at any tier — surfaced in `stats`/`metrics`
  /// so artifacts are attributable to a tier.
  sim::kernels::KernelTier kernel_tier = sim::kernels::KernelTier::kAuto;
};

class Router {
 public:
  explicit Router(RouterOptions options);

  /// Dispatches one compute request and returns the result-event body:
  /// {"payload": <CLI-exact document>, "cache": <warmth telemetry>}. Streams
  /// (completed, total) through `progress` when non-null. Throws
  /// cimflow::Error for unknown verbs and malformed params; counters record
  /// the failure either way.
  Json handle(const Request& request, const ProgressFn& progress);

  /// The `stats` verb's service block: per-verb counters, memo size, decode
  /// cache counters, scheduler event-queue counters aggregated over every
  /// simulated report, and persistent-cache counters (null when disabled).
  Json stats_json() const;

  /// The `metrics` verb's body: Prometheus text exposition (one latency
  /// histogram per verb with _bucket/_sum/_count series, request/failure
  /// counters, cache counters). The daemon passes its queue-depth and
  /// in-flight gauges since only it can observe them.
  std::string metrics_text(std::size_t queue_depth, std::size_t inflight) const;

 private:
  struct ModelEntry {
    std::shared_ptr<const graph::Graph> graph;
    std::uint64_t fingerprint = 0;  ///< model_fingerprint(*graph), hashed once
  };
  struct VerbStats {
    std::size_t requests = 0;
    std::size_t failures = 0;
    /// Integer nanoseconds, exact for sub-millisecond warm hits; seconds
    /// only at the JSON boundary.
    std::int64_t wall_ns_total = 0;
    std::int64_t wall_ns_last = 0;
    /// Fixed log-scale latency histogram feeding p50/p90/p99 in `stats` and
    /// the Prometheus `metrics` exposition. Guarded by mu_ like the counters.
    trace::LatencyHistogram latency;
  };
  /// Event-kernel telemetry summed (max for queue depth) across every
  /// simulator run the daemon served — the `stats` verb's scheduler block.
  struct SchedulerTotals {
    std::int64_t reports = 0;  ///< simulated reports folded in
    std::int64_t events_dispatched = 0;
    std::int64_t max_queue_depth = 0;  ///< max over runs, not a sum
    std::int64_t idle_cycles_skipped = 0;
  };

  /// The cached model for (name, input_hw), building and fingerprinting it on
  /// first use. Returned entry stays valid for the router's lifetime.
  ModelEntry model(const std::string& name, std::int64_t input_hw);

  Json handle_evaluate(const Json& params, const ProgressFn& progress);
  /// Sweep and search share the driver path; the verb picks the default.
  Json handle_search(const Json& params, const ProgressFn& progress,
                     const std::string& verb);

  /// Folds one simulator run's event-queue counters into the totals.
  void record_scheduler(const sim::SchedulerStats& run);

  RouterOptions options_;
  ProgramMemo memo_;
  std::optional<PersistentProgramCache> persistent_;
  /// The daemon's one EvalContext: points at memo_/persistent_, carries the
  /// decode-LRU capacity. Requests take for_model() copies and stamp their
  /// own sim_threads; the warm layers themselves stay shared.
  EvalContext eval_;
  /// The concrete tier eval_ resolves to (env override + probe applied once
  /// at construction) — what stats/metrics report.
  sim::kernels::KernelTier tier_ = sim::kernels::KernelTier::kScalar;
  mutable std::mutex mu_;  ///< guards models_, verbs_, and scheduler_
  std::map<std::string, ModelEntry> models_;
  std::map<std::string, VerbStats> verbs_;
  SchedulerTotals scheduler_;
};

}  // namespace cimflow::service
