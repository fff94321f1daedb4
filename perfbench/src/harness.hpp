// Shared machinery of the cimflow_perfbench harness: run settings, the
// result line, timing statistics, and the in-memory span recorder behind the
// traced runs. Nothing here reaches into the library beyond its public
// headers; spans are recorded around calls into each layer, never inside.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cimflow/sim/kernels_dispatch.hpp"
#include "cimflow/sim/report.hpp"
#include "cimflow/support/json.hpp"
#include "cimflow/support/trace.hpp"

namespace perfbench {

/// Everything that selects what a run does. The library-facing knobs
/// (simulator threads, engine threads, kernel tier, decode LRU) are fixed
/// here instead of read from the CIMFLOW_* environment, so both sides of an
/// A/B comparison run identical settings.
struct Settings {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< traced runs write their Chrome trace here
  std::string commit;   ///< recorded only (the checkout may not be a git tree)

  std::int64_t sim_threads = 1;
  std::size_t engine_threads = 4;
  std::size_t decode_lru = 8;
  cimflow::sim::kernels::KernelTier kernel_tier = cimflow::sim::kernels::KernelTier::kScalar;
};

/// How many times a run repeats its set-up; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Derives an independent 64-bit stream value from (seed, salt).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Monotonic wall clock, seconds.
double now_s();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// The run's outcome: operation counts, correctness failures and metrics.
/// An operation that fails any of its checks counts as one failed operation.
class Outcome {
 public:
  /// Records one operation; `problems` lists every check it failed.
  void op(const std::vector<std::string>& problems);
  void metric(const std::string& name, double value, const std::string& unit);
  /// Human-readable line printed before the result line.
  void note(const std::string& line) { notes_.push_back(line); }

  std::int64_t attempted() const noexcept { return attempted_; }
  std::int64_t failed() const noexcept { return failed_; }
  /// Prints the notes, then the one-line JSON result as the last stdout line.
  void print() const;

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> notes_;
};

/// Appends "what: got X, want Y" to `problems` when the values differ.
void expect_eq(std::vector<std::string>& problems, const char* what, std::int64_t got,
               std::int64_t want);

/// One completed span. `op` groups the spans of one traced operation; `tid`
/// is the track it is drawn on.
struct SpanRec {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::int64_t op = 0;
  int tid = 0;
};

/// In-memory span sink (thread-safe). Spans are only written out, as a
/// Chrome trace-event file, once the run has ended.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::int64_t op, int tid = 0);
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    Tracer& tracer_;
    const char* name_;
    std::int64_t op_;
    int tid_;
    std::int64_t start_ns_;
  };

  void add(SpanRec span);
  /// Adopts spans the library recorded into a trace::Collector (track 0).
  void adopt(const std::vector<cimflow::trace::SpanRecord>& spans, std::int64_t op);
  std::vector<SpanRec> spans() const;

  /// Writes {"traceEvents": [...], "otherData": attribution} — the format
  /// `evaluate --trace` uses, so Perfetto and chrome://tracing open it.
  void write_chrome_trace(const std::string& path, const cimflow::Json& attribution) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
};

/// The root span of every traced operation; its self time is the part of
/// the operation no layer span covers (reported as other_ms).
inline constexpr const char* kOpSpan = "op";

/// Self time per span name, summed over all spans. Spans nest by time
/// containment within one (op, tid) group — every group is recorded by one
/// thread — and a span's self time is its duration minus its direct
/// children's.
std::map<std::string, double> self_time_ns(const std::vector<SpanRec>& spans);

/// Renders a self-time table: one row per layer, `other_ms`, and the total
/// the rows sum to. Values are per operation.
std::string self_time_table(const std::string& title,
                            const std::vector<std::pair<std::string, double>>& rows_ms,
                            double other_ms, double total_ms);

/// Kernel CPU time and minor page faults of the whole process so far
/// (getrusage); traced runs report their per-operation deltas.
struct HostUsage {
  double sys_ms = 0;
  double minor_faults = 0;
  static HostUsage now();
  HostUsage operator-(const HostUsage& earlier) const {
    return {sys_ms - earlier.sys_ms, minor_faults - earlier.minor_faults};
  }
  HostUsage& operator+=(const HostUsage& other) {
    sys_ms += other.sys_ms;
    minor_faults += other.minor_faults;
    return *this;
  }
};

/// The scheduler counters and dynamic instructions of one or more reports.
struct SimCounts {
  double events_dispatched = 0;
  double idle_cycles_skipped = 0;
  double max_queue_depth = 0;  ///< max, not a sum
  double instructions = 0;
  void add(const cimflow::sim::SimReport& report);
};

/// Per-layer metric names every traced run reports, in print order; a layer
/// a workload does not exercise reports 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Emits every per-layer metric from `values` (missing names report 0).
void emit_layer_metrics(Outcome& outcome, const std::map<std::string, double>& values);

/// One timed round: the fixed unit of work a workload repeats (one
/// evaluation, one sweep, one daemon pass), so rounds compare directly.
struct Round {
  double ms = 0;            ///< wall clock
  double items = 0;         ///< evaluations / points / requests completed
  double instructions = 0;  ///< simulated dynamic instructions completed
};

/// The end-to-end metrics shared by every workload. Time metrics come from
/// the fastest round: on a shared host, contention from other tenants only
/// ever adds time, in phases lasting seconds, so the fastest of a run's
/// rounds is far steadier from run to run than their median.
struct EndToEnd {
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  std::vector<Round> rounds;    ///< one entry per timed round
};
void emit_end_to_end(Outcome& outcome, const EndToEnd& e2e);
/// "p50 = X ms, p90 = Y ms, ... (n=N rounds)": the rounds' spread, printed
/// above the result line.
std::string rounds_note(const EndToEnd& e2e);

/// Runs `body` until `seconds` have passed (at least once).
void run_for(double seconds, const std::function<void()>& body);

/// Attribution block recorded with every result.
cimflow::Json attribution(const Settings& settings);

}  // namespace perfbench
