#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <thread>
#include <tuple>

#include "cimflow/support/io.hpp"
#include "cimflow/support/rng.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  cimflow::SplitMix64 rng(seed ^ (salt * 0xD1B54A32D192ED03ull));
  return rng.next();
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

namespace {

// Shortest decimal that round-trips: every measured digit, nothing invented.
std::string number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

}  // namespace

void Outcome::op(const std::vector<std::string>& problems) {
  ++attempted_;
  if (problems.empty()) return;
  ++failed_;
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  }
}

void Outcome::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Outcome::print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value] = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + number(value.first) + ", \"unit\": \"" +
           value.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void expect_eq(std::vector<std::string>& problems, const char* what, std::int64_t got,
               std::int64_t want) {
  if (got == want) return;
  problems.push_back(std::string(what) + ": got " + std::to_string(got) + ", want " +
                     std::to_string(want));
}

Tracer::Span::Span(Tracer& tracer, const char* name, std::int64_t op, int tid)
    : tracer_(tracer), name_(name), op_(op), tid_(tid),
      start_ns_(cimflow::trace::now_ns()) {}

Tracer::Span::~Span() {
  tracer_.add({name_, start_ns_, cimflow::trace::now_ns() - start_ns_, op_, tid_});
}

void Tracer::add(SpanRec span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void Tracer::adopt(const std::vector<cimflow::trace::SpanRecord>& spans, std::int64_t op) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& span : spans) {
    spans_.push_back({span.name, span.start_ns, span.dur_ns, op, 0});
  }
}

std::vector<SpanRec> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome_trace(const std::string& path,
                                const cimflow::Json& attribution) const {
  const std::vector<SpanRec> spans = this->spans();
  std::int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRec& span : spans) base = std::min(base, span.start_ns);
  cimflow::JsonArray events;
  cimflow::JsonObject meta_args;
  meta_args["name"] = cimflow::Json("cimflow_perfbench (wall clock)");
  cimflow::JsonObject meta;
  meta["ph"] = cimflow::Json("M");
  meta["name"] = cimflow::Json("process_name");
  meta["pid"] = cimflow::Json(1);
  meta["tid"] = cimflow::Json(0);
  meta["ts"] = cimflow::Json(0.0);
  meta["args"] = cimflow::Json(std::move(meta_args));
  events.push_back(cimflow::Json(std::move(meta)));
  for (const SpanRec& span : spans) {
    cimflow::JsonObject event;
    event["ph"] = cimflow::Json("X");
    event["name"] = cimflow::Json(span.name);
    event["pid"] = cimflow::Json(1);
    event["tid"] = cimflow::Json(span.tid);
    event["ts"] = cimflow::Json(static_cast<double>(span.start_ns - base) * 1e-3);
    event["dur"] = cimflow::Json(static_cast<double>(span.dur_ns) * 1e-3);
    cimflow::JsonObject args;
    args["op"] = cimflow::Json(span.op);
    event["args"] = cimflow::Json(std::move(args));
    events.push_back(cimflow::Json(std::move(event)));
  }
  cimflow::JsonObject doc;
  doc["displayTimeUnit"] = cimflow::Json("ms");
  doc["traceEvents"] = cimflow::Json(std::move(events));
  doc["otherData"] = attribution;
  cimflow::write_text_file(path, cimflow::Json(std::move(doc)).dump_line() + "\n");
}

std::map<std::string, double> self_time_ns(const std::vector<SpanRec>& spans) {
  std::vector<const SpanRec*> order;
  order.reserve(spans.size());
  for (const SpanRec& span : spans) order.push_back(&span);
  // Group by (op, tid); within a group, parents sort before their children.
  std::sort(order.begin(), order.end(), [](const SpanRec* a, const SpanRec* b) {
    return std::tuple(a->op, a->tid, a->start_ns, -a->dur_ns) <
           std::tuple(b->op, b->tid, b->start_ns, -b->dur_ns);
  });
  std::map<std::string, double> self;
  std::vector<const SpanRec*> stack;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const SpanRec* span = order[i];
    if (i > 0 && (order[i - 1]->op != span->op || order[i - 1]->tid != span->tid)) {
      stack.clear();
    }
    while (!stack.empty() &&
           stack.back()->start_ns + stack.back()->dur_ns < span->start_ns + span->dur_ns) {
      stack.pop_back();
    }
    if (!stack.empty()) self[stack.back()->name] -= static_cast<double>(span->dur_ns);
    self[span->name] += static_cast<double>(span->dur_ns);
    stack.push_back(span);
  }
  return self;
}

std::string self_time_table(const std::string& title,
                            const std::vector<std::pair<std::string, double>>& rows_ms,
                            double other_ms, double total_ms) {
  std::string out = "self time per operation (" + title + "):\n";
  char line[160];
  auto row = [&](const std::string& name, double ms) {
    std::snprintf(line, sizeof(line), "  %-30s %12.3f ms %6.1f%%\n", name.c_str(), ms,
                  total_ms > 0 ? 100.0 * ms / total_ms : 0.0);
    out += line;
  };
  for (const auto& [name, ms] : rows_ms) row(name, ms);
  row("other_ms", other_ms);
  row("= traced wall", total_ms);
  return out;
}

HostUsage HostUsage::now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {static_cast<double>(usage.ru_stime.tv_sec) * 1e3 +
              static_cast<double>(usage.ru_stime.tv_usec) * 1e-3,
          static_cast<double>(usage.ru_minflt)};
}

void SimCounts::add(const cimflow::sim::SimReport& report) {
  events_dispatched += static_cast<double>(report.scheduler.events_dispatched);
  idle_cycles_skipped += static_cast<double>(report.scheduler.idle_cycles_skipped);
  max_queue_depth =
      std::max(max_queue_depth, static_cast<double>(report.scheduler.max_queue_depth));
  instructions += static_cast<double>(report.instructions);
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"traced_wall_ms", "ms"},
      {"other_ms", "ms"},
      {"trace.overhead_ms", "ms"},
      {"host.sys_ms", "ms"},
      {"host.minor_faults", "count"},
      {"sim.run_ms", "ms"},
      {"sim.ns_per_instr", "ns"},
      {"sim.decode_ms", "ms"},
      {"sim.output_ms", "ms"},
      {"sim.events_dispatched", "count"},
      {"sim.idle_cycles_skipped", "count"},
      {"sim.max_queue_depth", "count"},
      {"sim.dynamic_instructions", "count"},
      {"graph.build_ms", "ms"},
      {"graph.golden_ms", "ms"},
      {"compiler.compile_ms", "ms"},
      {"compiler.partition_ms", "ms"},
      {"compiler.tiling_ms", "ms"},
      {"compiler.mapping_ms", "ms"},
      {"compiler.lower_ms", "ms"},
      {"compiler.codegen_ms", "ms"},
      {"compiler.instructions", "count"},
      {"core.point_ms.p50", "ms"},
      {"core.point_ms.max", "ms"},
      {"core.pool_efficiency", "ratio"},
      {"core.memo_hit_ratio", "ratio"},
      {"search.driver_overhead_ms", "ms"},
      {"service.handle_ms.p50", "ms"},
      {"service.handle_ms.mean", "ms"},
      {"service.transport_ms.mean", "ms"},
      {"service.memo_hit_ratio", "ratio"},
      {"service.rejected", "count"},
  };
  return metrics;
}

void emit_layer_metrics(Outcome& outcome, const std::map<std::string, double>& values) {
  for (const LayerMetric& metric : layer_metrics()) {
    const auto it = values.find(metric.name);
    outcome.metric(metric.name, it == values.end() ? 0.0 : it->second, metric.unit);
  }
}

void emit_end_to_end(Outcome& outcome, const EndToEnd& e2e) {
  const Round fastest = *std::min_element(
      e2e.rounds.begin(), e2e.rounds.end(),
      [](const Round& a, const Round& b) { return a.ms < b.ms; });
  outcome.metric("setup_s", median(e2e.setup_s), "s");
  outcome.metric("round_ms.min", fastest.ms, "ms");
  outcome.metric("items_per_s.max", fastest.items / fastest.ms * 1e3, "1/s");
  outcome.metric("sim_minstr_per_s.max", fastest.instructions / fastest.ms * 1e-3, "Minstr/s");
  outcome.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

std::string rounds_note(const EndToEnd& e2e) {
  std::vector<double> ms;
  double items = 0, instructions = 0, wall_ms = 0;
  for (const Round& round : e2e.rounds) {
    ms.push_back(round.ms);
    items += round.items;
    instructions += round.instructions;
    wall_ms += round.ms;
  }
  return "round_ms: min " + std::to_string(quantile(ms, 0)) + ", p50 " +
         std::to_string(quantile(ms, 0.5)) + ", p90 " + std::to_string(quantile(ms, 0.9)) +
         "; over the whole run " + std::to_string(items / wall_ms * 1e3) + " items/s, " +
         std::to_string(instructions / wall_ms * 1e-3) + " Minstr/s (n=" +
         std::to_string(ms.size()) + " rounds)";
}

void run_for(double seconds, const std::function<void()>& body) {
  const double t0 = now_s();
  do {
    body();
  } while (now_s() - t0 < seconds);
}

cimflow::Json attribution(const Settings& settings) {
  cimflow::JsonObject o;
  o["workload"] = cimflow::Json(settings.workload);
  o["seed"] = cimflow::Json(static_cast<std::int64_t>(settings.seed));
  o["seconds"] = cimflow::Json(settings.seconds);
  o["trace"] = cimflow::Json(settings.trace);
  o["commit"] = cimflow::Json(settings.commit);
  o["kernel_tier"] =
      cimflow::Json(std::string(cimflow::sim::kernels::to_string(settings.kernel_tier)));
  o["nproc"] = cimflow::Json(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  o["build_type"] = cimflow::Json(PERFBENCH_BUILD_TYPE);
#ifdef __clang__
  o["compiler"] = cimflow::Json(std::string("clang ") + __clang_version__);
#else
  o["compiler"] = cimflow::Json(std::string("gcc ") + __VERSION__);
#endif
  o["sim_threads"] = cimflow::Json(settings.sim_threads);
  o["engine_threads"] = cimflow::Json(static_cast<std::int64_t>(settings.engine_threads));
  o["decode_lru"] = cimflow::Json(static_cast<std::int64_t>(settings.decode_lru));
  return cimflow::Json(std::move(o));
}

}  // namespace perfbench
