// Per-core timing and functional model: the in-order 3-stage (IF/DE/EX)
// pipeline with a register scoreboard, independently pipelined execution
// units (per-macro-group CIM occupancy, vector, scalar, transfer) and
// 256-byte-granule local-memory dependency tracking — one core of the
// cycle-accurate simulator (paper Sec. III-D), factored out of the old
// monolithic Simulator::Impl.
//
// A CoreModel owns everything private to its core (registers, local memory,
// weights, pipeline state, stats, locally attributable energy) and runs ahead
// independently until it needs the shared fabric. Anything that touches
// shared chip state is expressed as a request the event scheduler serves from
// its global priority queue in strict (time, core, program order) order:
//   * SEND posts to `outbox` (the sender does not need the arrival time and
//     keeps running); the scheduler turns each entry into a queued event;
//   * global-buffer transfers block the core with `pending_global` until the
//     event commits the bank/NoC access and deposits the completion time in
//     `global_resolution` — re-executing the instruction then finishes it;
//   * RECV blocks on the core-owned `inbox` (messages are delivered only
//     during the scheduler's serial commit phase);
//   * BARRIER blocks with the tag recorded; the scheduler releases every
//     core at once.
// Because a blocked core's architectural clock does not advance, retrying an
// instruction later computes the exact same times — this is what makes the
// parallel schedule reproduce the serial one byte for byte.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "cimflow/arch/arch_config.hpp"
#include "cimflow/arch/energy_model.hpp"
#include "cimflow/isa/program.hpp"
#include "cimflow/isa/registry.hpp"
#include "cimflow/sim/decoded.hpp"
#include "cimflow/sim/memory.hpp"
#include "cimflow/sim/report.hpp"
#include "cimflow/sim/simulator.hpp"

namespace cimflow::sim {

class Timeline;

/// Shared read-only context every core steps against.
struct CoreContext {
  const arch::ArchConfig* arch = nullptr;
  const arch::EnergyModel* energy = nullptr;
  const isa::Registry* registry = nullptr;
  const SimOptions* options = nullptr;
  GlobalImage* global = nullptr;  ///< shared data image (see memory.hpp contract)
  const DecodedProgram* decoded = nullptr;  ///< shared predecode (see decoded.hpp)
  /// Timeline sink, written only from the scheduler's serial phases; null
  /// when tracing is off (see SimOptions::trace_path).
  Timeline* timeline = nullptr;
  /// Resolved kernel table (see kernels_dispatch.hpp) the functional ops
  /// dispatch through; null defensively selects the scalar tier.
  const kernels::KernelTable* kernels = nullptr;
};

/// A message in flight between two cores (delivered when its send event
/// commits).
struct Message {
  std::int64_t arrival = 0;
  std::int64_t bytes = 0;
  std::vector<std::uint8_t> payload;  // functional mode only
};

/// A SEND surfaced to the scheduler; it becomes an event the kernel routes
/// through the NoC (charging contention and energy) in strict global-time
/// order.
struct SendRequest {
  std::int64_t dst_core = 0;
  std::int32_t tag = 0;
  std::int64_t bytes = 0;
  std::int64_t depart = 0;  ///< injection time the NoC transfer starts from
  std::int64_t seq = 0;     ///< per-core program order (event-key tiebreak)
  std::vector<std::uint8_t> payload;
};

/// A global-buffer transfer blocked on shared bank/NoC state.
struct GlobalRequest {
  std::uint32_t addr = 0;
  std::int64_t bytes = 0;
  std::int64_t depart = 0;
  bool is_read = false;
  std::int64_t seq = 0;
};

class CoreModel {
 public:
  enum class Status : std::uint8_t {
    kReady,
    kBlockedRecv,     ///< waiting on inbox[recv_key]
    kBlockedGlobal,   ///< waiting on pending_global -> global_resolution
    kBlockedBarrier,  ///< arrived at barrier_tag
    kHalted,
  };

  /// Rebinds the core for a fresh run.
  void reset(const CoreContext& context, std::int64_t id,
             const std::vector<isa::Instruction>* code);

  /// Advances until the core's clock reaches `limit` (pass INT64_MAX for an
  /// unbounded run-to-block), it blocks, or it halts. Throws Error(kInternal)
  /// with a core-scoped diagnostic on invalid programs or watchdog expiry.
  void run_until(std::int64_t limit);

  /// Releases a core blocked at a barrier: the barrier instruction retires at
  /// `release` (scheduler-computed, uniform across all cores).
  void release_from_barrier(std::int64_t release);

  // ----- scheduler-facing state ---------------------------------------------
  Status status = Status::kReady;
  std::int64_t id = 0;
  std::int64_t next_fetch = 0;  ///< the core's architectural clock
  std::int64_t pc = 0;

  std::vector<SendRequest> outbox;  ///< drained into the event queue each round
  std::optional<GlobalRequest> pending_global;
  std::optional<std::int64_t> global_resolution;

  /// Incoming mailboxes, keyed (source core, tag). The owning core pops
  /// while it runs; the scheduler pushes only during serial event commits.
  std::map<std::pair<std::int64_t, std::int32_t>, std::deque<Message>> inbox;
  std::pair<std::int64_t, std::int32_t> recv_key{0, 0};  ///< valid when kBlockedRecv

  std::int32_t barrier_tag = 0;      ///< valid when kBlockedBarrier
  std::int64_t barrier_issue = 0;    ///< issue time of the blocked barrier

  CoreStats stats;
  EnergyBreakdown energy;  ///< locally attributable categories only
  std::int64_t mvm_count = 0;
  std::int64_t total_macs = 0;
  /// Instructions retired since the scheduler last reset the counter; the
  /// scheduler sorts the next round's ready list by it so the heaviest cores
  /// dispatch first (wall-clock only — results are order-independent by
  /// construction).
  std::int64_t run_steps = 0;

 private:
  struct CustomCtx;

  bool step();  ///< executes at pc; false = blocked (state already recorded)

  [[noreturn]] void fail(const std::string& what) const;

  // Memory routing: local addresses hit the core scratchpad, global ones the
  // shared image. Spans never mix halves (the address MSB partitions them).
  std::uint8_t load_u8(std::uint32_t addr);
  void store_u8(std::uint32_t addr, std::uint8_t value);
  std::int32_t read_i32(std::uint32_t addr);
  void write_i32(std::uint32_t addr, std::int32_t value);
  void copy_bytes(std::uint32_t dst, std::uint32_t src, std::int64_t len);
  void check_span(std::uint32_t addr, std::int64_t len);

  // Operand resolution — the one memory rule every functional op follows
  // (see the "functional kernels" block in core_model.cpp). pin_dst resolves
  // the destination first and records it; pin_src then resolves each source
  // against that destination; flush_dst writes a gathered destination back.
  // A span the image cannot pin (a page straddle, the beyond-base zero
  // region) is gathered into the slot's scratch with read_bytes, and so is a
  // source that overlaps the destination — every op reads its sources as
  // they were before it issued. `in_place` lets an elementwise op's source
  // that exactly aliases the destination (same address, same length) run in
  // place, which is byte-equivalent to copying it in. Ranges are
  // bounds-checked first (a structured Error via fail()); `len` must be > 0.
  enum Slot : std::uint8_t { kSlotDst, kSlotA, kSlotB, kSlotCount };
  std::uint8_t* gather(std::uint32_t addr, std::int64_t len, Slot slot);
  std::uint8_t* pin_dst(std::uint32_t addr, std::int64_t len);
  const std::uint8_t* pin_src(std::uint32_t addr, std::int64_t len, Slot slot,
                              bool in_place = true);
  void flush_dst();

  std::int64_t mem_dep_start(std::uint32_t addr, std::int64_t len, bool is_write,
                             std::int64_t start) const;
  void mem_dep_finish(std::uint32_t addr, std::int64_t len, bool is_write,
                      std::int64_t done);

  // Functional kernels: resolve operands, then run the dispatched
  // KernelTable entry or the op's single inline loop.
  void exec_vec(const DecodedInst& inst, std::int64_t n);
  void exec_pool(const DecodedInst& inst, std::int64_t out_w);
  void exec_mvm(const DecodedInst& inst, std::int64_t rows, std::int64_t cols);

  CoreContext ctx_;
  const std::vector<isa::Instruction>* code_ = nullptr;
  const DecodedInst* dcode_ = nullptr;  ///< ctx_.decoded stream for this core
  std::int64_t code_size_ = 0;

  // Pipeline state.
  std::int64_t last_issue_ = -1;
  std::array<std::int64_t, 32> reg_ready_{};
  std::vector<std::int64_t> mg_free_;
  std::int64_t vec_free_ = 0;
  std::int64_t scalar_free_ = 0;
  std::int64_t transfer_free_ = 0;

  // Architectural state.
  std::array<std::int32_t, 32> regs_{};
  std::array<std::int32_t, 32> sregs_{};
  ZeroedBuffer lmem_;
  ZeroedBuffer mg_weights_;  // int8 tiles: mg_per_unit * mg_rows * mg_cols
  std::int64_t mg_tile_elems_ = 0;
  /// Dispatched kernel table, cached from ctx_.kernels at reset().
  const kernels::KernelTable* kt_ = nullptr;
  // Grow-only 64-byte-aligned scratch (see AlignedBuffer): the vector tiers
  // run their dominant-case aligned accesses against these bases.
  std::array<AlignedBuffer<std::uint8_t>, kSlotCount> bounce_;  ///< gathered operands
  AlignedBuffer<std::int32_t> mvm_row_;    ///< register-blocked MVM psum row
  AlignedBuffer<std::uint8_t> row_scratch_;  ///< max-pool channel row
  /// The destination of the op in flight (set by pin_dst).
  struct {
    std::uint32_t addr = 0;
    std::int64_t len = 0;
    std::uint8_t* data = nullptr;
    bool gathered = false;
  } dst_;

  // Local-memory dependency granules.
  std::vector<std::int64_t> gr_write_;
  std::vector<std::int64_t> gr_read_;

  std::int64_t request_seq_ = 0;  ///< program-order stamp for fabric requests
};

}  // namespace cimflow::sim
