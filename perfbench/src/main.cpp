// cimflow_perfbench: the repository benchmark. One invocation runs one
// workload and prints, as its last stdout line, one JSON object with the
// keys correct / attempted / failed / metrics.
//
//   cimflow_perfbench --workload W --seed N --seconds S --trace 0|1
//                     [--out-dir DIR] [--commit ID]
//
// Workloads: evaluate-timing, evaluate-validate, dse-sweep, daemon-mixed.
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics, prints a self-time table and writes DIR/<workload>.seed<N>.trace.json
// (Chrome trace events). Exit status: 0 when every check passed, 1 when a
// check failed (the result line is still printed), 2 on bad usage or a
// refused build, 3 when the run itself broke (no result line).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "cimflow/sim/decoded.hpp"
#include "cimflow/support/logging.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const std::string& problem) {
  std::fprintf(stderr,
               "cimflow_perfbench: %s\n"
               "usage: cimflow_perfbench --workload evaluate-timing|evaluate-validate|"
               "dse-sweep|daemon-mixed --seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--commit ID]\n",
               problem.c_str());
  return 2;
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::string(PERFBENCH_SANITIZE).size() > 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Settings settings;
  settings.out_dir = ".bench_build/perfbench-out";
  settings.commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      std::size_t used = 0;
      if (flag == "--workload") {
        settings.workload = value;
      } else if (flag == "--seed") {
        settings.seed = std::stoull(value, &used);
        have_seed = used == value.size();
      } else if (flag == "--seconds") {
        settings.seconds = std::stod(value, &used);
        have_seconds = used == value.size() && settings.seconds > 0;
      } else if (flag == "--trace") {
        have_trace = value == "0" || value == "1";
        settings.trace = value == "1";
      } else if (flag == "--out-dir") {
        settings.out_dir = value;
      } else if (flag == "--commit") {
        settings.commit = value;
      } else {
        return usage("unknown option " + flag);
      }
    }
  } catch (const std::logic_error&) {
    return usage("malformed number");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds (> 0) and --trace 0|1 are required");
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" || sanitized_build()) {
    return usage("refusing to time a " + (build_type.empty() ? "untyped" : build_type) +
                 (sanitized_build() ? " sanitizer" : "") + " build; configure Release");
  }

  // Pin every library knob explicitly, so ambient CIMFLOW_* variables can
  // neither select nor perturb anything.
  for (const char* name :
       {"CIMFLOW_SIM_THREADS", "CIMFLOW_KERNELS", "CIMFLOW_DECODE_LRU", "CIMFLOW_LOG"}) {
    unsetenv(name);
  }
  cimflow::log::set_threshold(cimflow::log::Level::kWarn);
  settings.kernel_tier = cimflow::sim::kernels::available_tiers().back();
  cimflow::sim::decoded_cache_set_strong_capacity(settings.decode_lru);

  Outcome outcome;
  Tracer tracer;
  const cimflow::Json attribution = perfbench::attribution(settings);
  outcome.note("attribution: " + attribution.dump_line());
  try {
    std::filesystem::create_directories(settings.out_dir);
    if (settings.workload == "evaluate-timing") {
      run_evaluate(settings, false, outcome, tracer);
    } else if (settings.workload == "evaluate-validate") {
      run_evaluate(settings, true, outcome, tracer);
    } else if (settings.workload == "dse-sweep") {
      run_dse(settings, outcome, tracer);
    } else if (settings.workload == "daemon-mixed") {
      run_daemon(settings, outcome, tracer);
    } else {
      return usage("unknown workload '" + settings.workload + "'");
    }
    if (settings.trace) {
      const std::string path = settings.out_dir + "/" + settings.workload + ".seed" +
                               std::to_string(settings.seed) + ".trace.json";
      tracer.write_chrome_trace(path, attribution);
      outcome.note("trace: " + path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cimflow_perfbench: run failed: %s\n", e.what());
    return 3;
  }
  outcome.note("error_rate = " +
               std::to_string(static_cast<double>(outcome.failed()) /
                              static_cast<double>(outcome.attempted())) +
               " (" + std::to_string(outcome.failed()) + " failed of " +
               std::to_string(outcome.attempted()) + " checked operations)");
  outcome.print();
  return outcome.failed() == 0 ? 0 : 1;
}
