// The CIMFlow cycle-accurate simulator (paper Sec. III-D), as a modular
// engine:
//   * sim/core_model — the per-core IF/DE/EX pipeline, scoreboard, execution
//     units and local-memory dependency tracker;
//   * sim/scheduler — the discrete-event kernel: cores run ahead on private
//     state and all shared-fabric traffic (SEND/RECV rendezvous,
//     global-buffer bank + NoC contention, barriers) commits from one global
//     priority event queue in strict (time, core, program order) order —
//     exact global-time service, no synchronization quantum;
//   * sim/memory — program image residency: the global image is borrowed
//     from the program (copy-on-write overlay), so concurrent simulators of
//     one program share the weight bytes instead of copying them.
// Functional mode executes bit-exact INT8 semantics (validated against the
// golden executor); timing mode skips data payloads for large design-space
// sweeps.
//
// Determinism guarantee: `SimOptions::threads` only changes how the event
// scheduler fans cores out over worker threads — the SimReport (and every
// functional output byte) is identical for any thread count, including the
// serial kernel at threads = 1.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cimflow/arch/arch_config.hpp"
#include "cimflow/isa/program.hpp"
#include "cimflow/isa/registry.hpp"
#include "cimflow/sim/kernels_dispatch.hpp"
#include "cimflow/sim/report.hpp"

namespace cimflow::trace {
class Collector;
}  // namespace cimflow::trace

namespace cimflow::sim {

class DecodedProgram;

struct SimOptions {
  bool functional = false;          ///< execute real INT8 data movement/math
  std::int64_t max_cycles = std::int64_t{1} << 40;  ///< watchdog

  // --- event-core group -----------------------------------------------------
  // The scheduler is a discrete-event kernel: shared-fabric requests commit
  // from a global priority queue in strict (time, core, program order) order,
  // so there is no synchronization quantum and no fidelity knob — every
  // report metric is exact regardless of the settings below.
  //
  /// Run-ahead bound, in cycles: how far a core may advance past the
  /// committed event frontier before the scheduler commits queued events.
  /// 0 = unbounded (a core runs until it blocks on the fabric or halts) —
  /// the fastest setting and the default. A positive bound caps pending-event
  /// memory on pathological all-compute-then-all-communicate programs at the
  /// cost of extra scheduler rounds. Never changes a report metric; only the
  /// scheduler info counters (queue depth, idle cycles skipped) may shift.
  std::int64_t lookahead = 0;
  /// Worker threads sharding cores across the event scheduler's run phase.
  /// 1 = serial kernel, 0 = hardware concurrency (also reachable as
  /// `--sim-threads` / CIMFLOW_SIM_THREADS in the CLI and bench harnesses).
  /// Reports are byte-identical for any value; raise it to put the whole
  /// machine on one big simulation.
  std::int64_t threads = 1;
  /// SIMD implementation tier for the functional hot-path kernels (see
  /// kernels_dispatch.hpp). kAuto resolves at simulator construction: the
  /// strict CIMFLOW_KERNELS env override wins, otherwise the best tier the
  /// host supports. Every tier is byte-identical — this knob only moves wall
  /// clock, never a report metric.
  kernels::KernelTier kernel_tier = kernels::KernelTier::kAuto;
  const isa::Registry* registry = nullptr;  ///< defaults to Registry::builtin()

  // --- observability (never perturbs results) -------------------------------
  /// Chrome trace-event timeline destination ("" = tracing off, the default).
  /// When set, each run records one track per core (run/blocked/parked
  /// intervals plus instant events for rendezvous, bank service, NoC
  /// contention and barrier releases) and writes the JSON file on completion.
  /// All timeline hooks observe the scheduler's serial commit order with
  /// sim-cycle timestamps, so the SimReport, every functional output byte,
  /// and the sim-track trace bytes themselves are identical with tracing on
  /// or off, at any thread count.
  std::string trace_path;
  /// Optional wall-clock spans (e.g. the compile phases of the surrounding
  /// flow) embedded into the trace file as a separate host-clock track.
  /// Only completed spans at write time are included; info-only by nature.
  const trace::Collector* trace_host = nullptr;
};

/// Residency of the simulator's global-memory image after a run (see
/// sim/memory.hpp): `base_bytes` are borrowed from (and shared with) the
/// program, `overlay_bytes` are this simulator's private copy-on-write pages.
/// `decoded_bytes` is the predecoded instruction stream (see decoded.hpp) —
/// shared with every concurrent simulator of the same program, exactly like
/// the base image.
struct SimMemoryStats {
  std::int64_t global_base_bytes = 0;
  std::int64_t global_overlay_bytes = 0;
  std::int64_t decoded_bytes = 0;
};

class Simulator {
 public:
  explicit Simulator(const arch::ArchConfig& arch, SimOptions options = {});
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Runs the program to completion (all cores halted). In functional mode
  /// `inputs` supplies one blob of `program.input_bytes_per_image` bytes per
  /// image. Throws Error(kInternal) on deadlock or watchdog expiry, with a
  /// per-core diagnostic in the message.
  ///
  /// The program's global image is borrowed for the duration of the run and
  /// any subsequent output() calls — `program` must stay alive and unmodified
  /// until then (every existing caller already guarantees this). Callers
  /// holding the program behind a shared_ptr can pass `image_owner` (aliased
  /// to the program) so shared sweeps keep the image alive automatically.
  /// `predecoded`, when supplied, must be a decode of exactly this program
  /// against this simulator's registry (e.g. the handle a DSE cache entry
  /// pins) — it skips the content-hash lookup in the shared decode cache.
  /// When null the simulator resolves the decode itself.
  SimReport run(const isa::Program& program,
                const std::vector<std::vector<std::uint8_t>>& inputs = {},
                std::shared_ptr<const void> image_owner = nullptr,
                std::shared_ptr<const DecodedProgram> predecoded = nullptr);

  /// Output blob of image `image` after a functional run.
  std::vector<std::uint8_t> output(const isa::Program& program,
                                   std::int64_t image) const;

  /// Global-image residency of the most recent run.
  SimMemoryStats memory_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cimflow::sim
