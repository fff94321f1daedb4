// dse-sweep: a 12-point grid sweep through SearchDriver with a fresh memo per
// sweep. Flit width is part of the compile fingerprint, so every point
// compiles; points take uneven time, so the slowest one sets the sweep wall.
//
// The traced run hands the engine a trace::Collector (EvalContext::trace),
// which receives the engine's dse.* spans and the compiler's compile.*
// phases from every worker thread. Those spans carry no thread id, so the
// self-time table is kept in worker-thread time: its rows plus other_ms sum
// to engine threads x sweep wall, and other_ms is idle worker time plus the
// search driver's own work.
#include <algorithm>
#include <optional>

#include "cimflow/models/models.hpp"
#include "cimflow/search/driver.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cimflow;

// Cycles of every grid point (mg {4,8,16} x flit {8,16} x {generic, dp},
// MobileNetV2, batch 4), in grid order; pinned when the benchmark was defined.
constexpr std::int64_t kPointCycles[12] = {
    14072401, 5637297, 13681413, 4796911, 10975640, 5098800,
    10404520, 4194336, 10863466, 5698581, 10314247, 4537778,
};

search::SearchJob make_job(const Settings& settings) {
  search::SearchJob job;
  job.space.mg_sizes = {4, 8, 16};
  job.space.flit_sizes = {8, 16};
  job.space.strategies = {compiler::Strategy::kGeneric, compiler::Strategy::kDpOptimized};
  job.batch = 4;
  job.seed = settings.seed;
  return job;
}

std::vector<std::string> check(const search::SearchResult& result) {
  std::vector<std::string> problems;
  expect_eq(problems, "points", static_cast<std::int64_t>(result.points.size()), 12);
  for (const DsePoint& point : result.points) {
    if (!point.ok) {
      problems.push_back("point " + std::to_string(point.index) + " failed: " + point.error);
    } else if (point.index < 12) {
      expect_eq(problems, ("point " + std::to_string(point.index) + " cycles").c_str(),
                point.report.sim.cycles, kPointCycles[point.index]);
    }
  }
  return problems;
}

// Chrome trace tracks for spans without a thread id: each span name gets its
// own group of tracks, and spans go to the first track of their group that is
// free, so no two slices on one track overlap.
void assign_tracks(std::vector<SpanRec>& spans) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanRec& a, const SpanRec& b) { return a.start_ns < b.start_ns; });
  std::map<std::string, std::vector<std::int64_t>> lane_ends;
  std::map<std::string, int> group;
  for (SpanRec& span : spans) {
    const int g = group.emplace(span.name, static_cast<int>(group.size())).first->second;
    std::vector<std::int64_t>& ends = lane_ends[span.name];
    std::size_t lane = 0;
    while (lane < ends.size() && ends[lane] > span.start_ns) ++lane;
    if (lane == ends.size()) ends.push_back(0);
    ends[lane] = span.start_ns + span.dur_ns;
    span.tid = g * 16 + static_cast<int>(lane);
  }
}

}  // namespace

void run_dse(const Settings& settings, Outcome& outcome, Tracer& tracer) {
  const arch::ArchConfig base = arch::ArchConfig::cimflow_default();
  const search::SearchJob job = make_job(settings);
  search::SearchDriver::Options options;
  options.engine.num_threads = settings.engine_threads;
  options.engine.eval.sim_threads = settings.sim_threads;
  options.engine.eval.kernel_tier = settings.kernel_tier;

  // One sweep; `collector` (traced run only) receives the engine's spans.
  auto sweep = [&](const graph::Graph& model, trace::Collector* collector,
                   double* wall_ms) {
    search::SearchDriver::Options run_options = options;
    run_options.engine.eval.trace = collector;
    const std::unique_ptr<search::SearchStrategy> grid = search::make_strategy("grid");
    const double t0 = now_s();
    search::SearchResult result =
        search::SearchDriver(run_options).run(model, base, *grid, job);
    *wall_ms = (now_s() - t0) * 1e3;
    outcome.op(check(result));
    return result;
  };

  EndToEnd e2e;
  std::optional<graph::Graph> model;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    model.reset();
    const double t0 = now_s();
    model.emplace(models::build_model("mobilenetv2"));
    double warm_ms = 0;
    sweep(*model, nullptr, &warm_ms);
    e2e.setup_s.push_back(now_s() - t0);
  }

  // One timed sweep, recorded as a round; returns its wall time.
  auto timed_sweep = [&] {
    double wall_ms = 0;
    const search::SearchResult result = sweep(*model, nullptr, &wall_ms);
    Round round{wall_ms, 0, 0};
    for (const DsePoint& point : result.points) {
      round.items += point.ok ? 1 : 0;
      round.instructions += static_cast<double>(point.report.sim.instructions);
    }
    e2e.rounds.push_back(round);
    return wall_ms;
  };

  if (!settings.trace) {
    run_for(settings.seconds, [&] { timed_sweep(); });
    emit_end_to_end(outcome, e2e);
    outcome.note("one round is one 12-point sweep, items are points; " + rounds_note(e2e));
    return;
  }

  // Traced sweeps alternate with untraced ones; the tracing overhead
  // compares the fastest of each, as the end-to-end metrics do.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> point_ms;
  std::vector<double> efficiency;
  SimCounts counts;
  HostUsage usage;
  double static_instructions = 0;
  double driver_overhead_ms = 0;
  double memo_hits = 0;
  double memo_lookups = 0;
  std::vector<SpanRec> spans;
  std::int64_t sweeps = 0;
  run_for(settings.seconds, [&] {
    untraced_ms.push_back(timed_sweep());
    trace::Collector collector;
    double wall_ms = 0;
    const HostUsage u0 = HostUsage::now();
    const search::SearchResult result = sweep(*model, &collector, &wall_ms);
    usage += HostUsage::now() - u0;
    traced_ms.push_back(wall_ms);
    double busy_ns = 0;
    for (const trace::SpanRecord& span : collector.spans()) {
      spans.push_back({span.name, span.start_ns, span.dur_ns, sweeps, 0});
      if (span.name == "dse.point") {
        point_ms.push_back(static_cast<double>(span.dur_ns) * 1e-6);
        busy_ns += static_cast<double>(span.dur_ns);
      }
    }
    efficiency.push_back(busy_ns * 1e-6 /
                         (static_cast<double>(settings.engine_threads) * result.stats.wall_ms));
    driver_overhead_ms += wall_ms - result.stats.wall_ms;
    memo_hits += static_cast<double>(result.stats.compile_cache_hits);
    memo_lookups += static_cast<double>(result.stats.compile_cache_hits +
                                        result.stats.compile_cache_misses);
    for (const DsePoint& point : result.points) {
      if (!point.ok) continue;
      counts.add(point.report.sim);
      static_instructions += static_cast<double>(point.report.compile_stats.total_instructions);
    }
    ++sweeps;
  });

  const double n = static_cast<double>(sweeps);
  std::map<std::string, double> total;  // summed span time per name, ms per sweep
  for (const SpanRec& span : spans) total[span.name] += static_cast<double>(span.dur_ns) * 1e-6 / n;
  const double compile_ms = total["compile.partition"] + total["compile.mapping"] +
                            total["compile.tiling"] + total["compile.codegen"];
  std::vector<std::pair<std::string, double>> rows = {
      {"sim.run (dse.simulate)", total["dse.simulate"]},
      {"compile.codegen", total["compile.codegen"] - total["compile.lower"]},
      {"compile.lower", total["compile.lower"]},
      {"compile.tiling", total["compile.tiling"]},
      {"compile.mapping", total["compile.mapping"]},
      {"compile.partition", total["compile.partition"]},
      {"dse.compile (summary, decode)", total["dse.compile"] - compile_ms},
      {"dse.point (memo, sim set-up)",
       total["dse.point"] - total["dse.compile"] - total["dse.simulate"]},
  };
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  double traced_wall_ms = 0;
  for (double ms : traced_ms) traced_wall_ms += ms / n;
  const double thread_ms = static_cast<double>(settings.engine_threads) * traced_wall_ms;
  double attributed = 0;
  for (const auto& row : rows) attributed += row.second;

  std::map<std::string, double> values;
  values["traced_wall_ms"] = traced_wall_ms;
  values["other_ms"] = thread_ms - attributed;
  values["trace.overhead_ms"] = quantile(traced_ms, 0) - quantile(untraced_ms, 0);
  values["host.sys_ms"] = usage.sys_ms / n;
  values["host.minor_faults"] = usage.minor_faults / n;
  values["sim.run_ms"] = total["dse.simulate"];
  values["sim.ns_per_instr"] = total["dse.simulate"] * n * 1e6 / counts.instructions;
  values["sim.events_dispatched"] = counts.events_dispatched / n;
  values["sim.idle_cycles_skipped"] = counts.idle_cycles_skipped / n;
  values["sim.max_queue_depth"] = counts.max_queue_depth;
  values["sim.dynamic_instructions"] = counts.instructions / n;
  values["compiler.compile_ms"] = compile_ms;
  values["compiler.partition_ms"] = total["compile.partition"];
  values["compiler.tiling_ms"] = total["compile.tiling"];
  values["compiler.mapping_ms"] = total["compile.mapping"];
  values["compiler.lower_ms"] = total["compile.lower"];
  values["compiler.codegen_ms"] = total["compile.codegen"] - total["compile.lower"];
  values["compiler.instructions"] = static_instructions / n;
  values["core.point_ms.p50"] = median(point_ms);
  values["core.point_ms.max"] = quantile(point_ms, 1.0);
  values["core.pool_efficiency"] = median(efficiency);
  values["core.memo_hit_ratio"] = memo_lookups > 0 ? memo_hits / memo_lookups : 0;
  values["search.driver_overhead_ms"] = driver_overhead_ms / n;
  emit_layer_metrics(outcome, values);
  outcome.note(self_time_table(settings.workload + ", " + std::to_string(sweeps) +
                                   " traced sweeps, worker-thread time",
                               rows, values["other_ms"], thread_ms));

  assign_tracks(spans);
  for (SpanRec& span : spans) tracer.add(std::move(span));
}

}  // namespace perfbench
