// Simulation report: the "Detailed Report" of paper Fig. 2 — execution
// latency, energy breakdown per architectural component, and per-unit
// utilization.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cimflow/arch/arch_config.hpp"
#include "cimflow/support/json.hpp"

namespace cimflow::sim {

/// Energy by architectural component, picojoules.
struct EnergyBreakdown {
  double cim = 0;          ///< macro arrays + adder trees + accumulators
  double vector_unit = 0;
  double scalar_unit = 0;
  double local_mem = 0;    ///< scratchpad traffic (incl. CIM_LOAD staging)
  double global_mem = 0;   ///< global buffer traffic
  double noc = 0;          ///< flit-hop energy
  double instruction = 0;  ///< fetch + decode + register file
  double leakage = 0;      ///< static energy over the run

  double total() const noexcept {
    return cim + vector_unit + scalar_unit + local_mem + global_mem + noc +
           instruction + leakage;
  }
  /// Paper Fig. 6 aggregation (dynamic energy only — the paper's 3-way
  /// breakdown does not include static power): compute unit =
  /// CIM+vector+scalar+instruction, local memory = scratchpad+global buffer,
  /// NoC = flit traffic.
  double fig6_compute() const noexcept {
    return cim + vector_unit + scalar_unit + instruction;
  }
  double fig6_local_mem() const noexcept { return local_mem + global_mem; }
  double fig6_noc() const noexcept { return noc; }
  double dynamic_total() const noexcept { return total() - leakage; }

  /// Per-component pJ plus the derived totals, as a JSON object.
  Json to_json() const;
};

struct CoreStats {
  std::int64_t instructions = 0;
  std::int64_t halt_cycle = 0;
  std::int64_t cim_busy_cycles = 0;     ///< summed over macro groups
  std::int64_t vector_busy_cycles = 0;
  std::int64_t transfer_busy_cycles = 0;

  Json to_json() const;
};

/// Event-kernel counters (informational — they describe the scheduler run,
/// not the modeled hardware). All three are deterministic for a given program
/// and SimOptions: the kernel's phases are structural, so no counter depends
/// on the thread count. `max_queue_depth` and `idle_cycles_skipped` can shift
/// with SimOptions::lookahead (a bounded horizon caps the queue and can stop
/// a core before it would block); report metrics never do.
struct SchedulerStats {
  std::int64_t events_dispatched = 0;   ///< fabric events committed
  std::int64_t max_queue_depth = 0;     ///< peak pending events
  /// Blocked-core clock advance committed per wake (recv arrival, global
  /// resolution, barrier release) instead of being re-polled — the cycles a
  /// quantum scheduler would have idled through.
  std::int64_t idle_cycles_skipped = 0;

  Json to_json() const;
};

struct SimReport {
  std::int64_t cycles = 0;            ///< chip makespan
  std::int64_t instructions = 0;      ///< dynamic instruction count
  std::int64_t mvm_count = 0;
  std::int64_t macs = 0;              ///< active MACs executed
  std::int64_t images = 0;            ///< batch size processed
  double frequency_ghz = 1.0;

  EnergyBreakdown energy;
  SchedulerStats scheduler;
  std::vector<CoreStats> cores;

  /// The kernel tier the run dispatched to ("scalar"/"avx2"; empty on
  /// a default-constructed report). Run telemetry, like wall-clock timings:
  /// deliberately EXCLUDED from to_json()/to_csv_row() so report payloads
  /// stay byte-identical across tiers (the hard invariant). Shown in
  /// summary() and exported by the bench harnesses as an info metric.
  std::string kernel_tier;

  double seconds() const noexcept { return static_cast<double>(cycles) / (frequency_ghz * 1e9); }
  double energy_mj() const noexcept { return energy.total() * 1e-9; }
  /// Sustained throughput in INT8 TOPS (2 ops per MAC).
  double tops() const noexcept {
    return seconds() > 0 ? 2.0 * static_cast<double>(macs) / seconds() / 1e12 : 0;
  }
  double energy_per_image_mj() const noexcept {
    return images > 0 ? energy_mj() / static_cast<double>(images) : 0;
  }
  double latency_per_image_ms() const noexcept {
    return images > 0 ? seconds() * 1e3 / static_cast<double>(images) : 0;
  }
  /// Mean CIM macro-group occupancy across the run, in [0, 1].
  double cim_utilization(const arch::ArchConfig& arch) const noexcept;

  std::string summary() const;

  /// Machine-readable form of the detailed report: the raw counters, the
  /// derived throughput/latency/energy figures, the energy breakdown, and the
  /// per-core statistics. Numbers round-trip exactly through Json::dump.
  Json to_json() const;

  /// Flat CSV view of the same report (cores aggregated away) for sweep
  /// spreadsheets; columns match csv_header().
  static std::string csv_header();
  std::string to_csv_row() const;
};

}  // namespace cimflow::sim
