// The four perfbench workloads. Each one sets itself up kSetupReps times,
// checks every operation's output, and emits either the end-to-end metrics
// (untraced run) or the per-layer metrics plus a self-time table (traced
// run) into `outcome`.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// evaluate-timing (`validate` false) and evaluate-validate (`validate` true).
void run_evaluate(const Settings& settings, bool validate, Outcome& outcome, Tracer& tracer);
/// dse-sweep: a 12-point grid through SearchDriver on 4 engine threads.
void run_dse(const Settings& settings, Outcome& outcome, Tracer& tracer);
/// daemon-mixed: an in-process cimflowd under two closed-loop clients.
void run_daemon(const Settings& settings, Outcome& outcome, Tracer& tracer);

}  // namespace perfbench
