// Microbenchmarks of the simulator: end-to-end simulation rate
// (instructions per second of simulated execution) in timing and functional
// modes, the hot functional kernels in isolation (the row-major MVM kernel,
// the exec_vec path, the GlobalImage span-pinning vs byte path), and the NoC
// transfer model. The
// kernel-level entries exist so a hot-path regression shows up here long
// before it is visible end-to-end.
#include <benchmark/benchmark.h>

#include <cstring>
#include <random>
#include <vector>

#include "cimflow/arch/energy_model.hpp"
#include "cimflow/compiler/compiler.hpp"
#include "cimflow/graph/executor.hpp"
#include "cimflow/isa/assembler.hpp"
#include "cimflow/models/models.hpp"
#include "cimflow/sim/kernels.hpp"
#include "cimflow/sim/kernels_dispatch.hpp"
#include "cimflow/sim/memory.hpp"
#include "cimflow/sim/noc.hpp"
#include "cimflow/sim/simulator.hpp"

namespace {

using namespace cimflow;

void BM_SimulateMicroCnn(benchmark::State& state) {
  const bool functional = state.range(0) != 0;
  const graph::Graph model = models::micro_cnn({});
  const arch::ArchConfig arch = arch::ArchConfig::cimflow_default();
  compiler::CompileOptions copt;
  copt.strategy = compiler::Strategy::kDpOptimized;
  copt.batch = 2;
  copt.materialize_data = functional;
  const compiler::CompileResult compiled = compiler::compile(model, arch, copt);

  std::vector<std::vector<std::uint8_t>> inputs;
  if (functional) {
    const graph::Shape shape = model.node(model.inputs().front()).out_shape;
    for (int img = 0; img < 2; ++img) {
      const graph::TensorI8 tensor = graph::random_tensor(shape, 7 + img);
      const auto* data = reinterpret_cast<const std::uint8_t*>(tensor.data());
      inputs.emplace_back(data, data + tensor.size());
    }
  }
  std::int64_t instructions = 0;
  for (auto _ : state) {
    sim::SimOptions sopt;
    sopt.functional = functional;
    sim::Simulator simulator(arch, sopt);
    const sim::SimReport report = simulator.run(compiled.program, inputs);
    instructions = report.instructions;
    benchmark::DoNotOptimize(report.cycles);
  }
  state.SetItemsProcessed(state.iterations() * instructions);
  state.SetLabel(functional ? "functional" : "timing");
}
BENCHMARK(BM_SimulateMicroCnn)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// End-to-end serial functional simulation of a full topology (ResNet18 at
// test-sized images): the number the hot-path work is ultimately about —
// items/s is simulated instructions per wall second.
void BM_SimulateResnet18Functional(benchmark::State& state) {
  models::ModelOptions mopt;
  mopt.input_hw = 64;
  const graph::Graph model = models::resnet18(mopt);
  const arch::ArchConfig arch = arch::ArchConfig::cimflow_default();
  compiler::CompileOptions copt;
  copt.strategy = compiler::Strategy::kDpOptimized;
  copt.batch = 1;
  copt.materialize_data = true;
  const compiler::CompileResult compiled = compiler::compile(model, arch, copt);
  const graph::Shape shape = model.node(model.inputs().front()).out_shape;
  std::vector<std::vector<std::uint8_t>> inputs;
  const graph::TensorI8 tensor = graph::random_tensor(shape, 7);
  const auto* data = reinterpret_cast<const std::uint8_t*>(tensor.data());
  inputs.emplace_back(data, data + tensor.size());
  std::int64_t instructions = 0;
  for (auto _ : state) {
    sim::SimOptions sopt;
    sopt.functional = true;
    sim::Simulator simulator(arch, sopt);
    const sim::SimReport report = simulator.run(compiled.program, inputs);
    instructions = report.instructions;
    benchmark::DoNotOptimize(report.cycles);
  }
  state.SetItemsProcessed(state.iterations() * instructions);
}
BENCHMARK(BM_SimulateResnet18Functional)->Unit(benchmark::kMillisecond);

// --- functional MVM kernel: the exec_mvm fast path in miniature -------------

std::vector<std::int8_t> random_weights(std::int64_t n, unsigned seed) {
  std::minstd_rand rng(seed);
  std::vector<std::int8_t> w(static_cast<std::size_t>(n));
  for (auto& v : w) v = static_cast<std::int8_t>(rng() & 0xFF);
  return w;
}

void BM_MvmKernel(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const std::int64_t cols = state.range(1);
  const std::vector<std::int8_t> weights = random_weights(rows * cols, 7);
  const std::vector<std::int8_t> in_v = random_weights(rows, 11);
  const auto* in = reinterpret_cast<const std::uint8_t*>(in_v.data());
  std::vector<std::uint8_t> out(static_cast<std::size_t>(4 * cols), 0);
  std::vector<std::int32_t> row(static_cast<std::size_t>(cols));
  for (auto _ : state) {
    // Preload the psum row, stream the weights row-major, flush once.
    sim::kernels::load_le32_row(row.data(), out.data(), cols);
    sim::kernels::mvm_accumulate(row.data(), in, weights.data(), rows, cols);
    sim::kernels::store_le32_row(out.data(), row.data(), cols);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_MvmKernel)
    ->Args({64, 64})->Args({256, 64})->Args({512, 64})->Args({512, 256})
    ->Args({256, 256})->Args({512, 512});

// --- SIMD tier sweep: every registered tier over the same shapes ------------
//
// Registered from main() for exactly the tiers kernels::available_tiers()
// reports on this host, so the scalar-vs-AVX2 comparison is one run of
// this binary and absent tiers simply don't appear (instead of crashing on
// SIGILL). The dispatched tier rides in each entry's name and label — that is
// how a benchmark artifact stays attributable to the host's kernels. The
// acceptance bar for the SIMD layer is >= 2x over the scalar tier on the
// >= 256-wide tiles.

void BM_MvmKernelTier(benchmark::State& state, sim::kernels::KernelTier tier,
                      std::int64_t rows, std::int64_t cols) {
  const sim::kernels::KernelTable& table = sim::kernels::kernel_table(tier);
  const std::vector<std::int8_t> weights = random_weights(rows * cols, 7);
  const std::vector<std::int8_t> in_v = random_weights(rows, 11);
  const auto* in = reinterpret_cast<const std::uint8_t*>(in_v.data());
  std::vector<std::uint8_t> out(static_cast<std::size_t>(4 * cols), 0);
  std::vector<std::int32_t> row(static_cast<std::size_t>(cols));
  for (auto _ : state) {
    sim::kernels::load_le32_row(row.data(), out.data(), cols);
    table.mvm_accumulate(row.data(), in, weights.data(), rows, cols);
    sim::kernels::store_le32_row(out.data(), row.data(), cols);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
  state.SetLabel(std::string(sim::kernels::to_string(tier)));
}

// --- exec_vec through the real simulator -------------------------------------
//
// A synthetic program that loops VEC_ADD8 + VEC_QUANT over a large buffer,
// so the number includes operand resolution, exactly what exec_vec pays per
// instruction.

arch::ArchConfig vec_exec_arch() {
  arch::ChipParams chip;
  chip.core_count = 4;
  chip.mesh_cols = 2;
  chip.global_mem_banks = 2;
  return arch::ArchConfig(chip, arch::CoreParams{}, arch::UnitParams{},
                          arch::EnergyParams{});
}

// 64 iterations of add8 + quant over 4096-element rows, core 0 only.
isa::Program vec_exec_program() {
  isa::Program program(4);
  program.cores[0] = isa::assemble(R"(
      G_LI R4, 0
      G_LIH R4, -32768     ; a @ local 0
      G_LI R5, 4096
      G_LIH R5, -32768     ; b @ local 4096
      G_LI R6, 8192
      G_LIH R6, -32768     ; c8 @ local 8192
      G_LI R7, 16384
      G_LIH R7, -32768     ; c32 @ local 16384
      G_LI R8, 4096        ; n
      G_LI R9, 5
      VEC_FILL8 R4, R4, R9, R8
      G_LI R10, 3
      VEC_FILL8 R5, R5, R10, R8
      VEC_FILL32 R7, R7, R10, R8
      G_LI R11, 2
      CIM_CFG S2, R11
      CIM_CFG S3, R0
      G_LI R12, 0          ; i
      G_LI R13, 64
    loop:
      VEC_ADD8 R6, R4, R5, R8
      VEC_QUANT R6, R7, R0, R8
      SC_ADDI R12, R12, 1
      BLT R12, R13, loop
      HALT
  )");
  for (int c = 1; c < 4; ++c) program.cores[c].code.push_back(isa::Instruction::halt());
  program.batch = 0;
  return program;
}

void BM_VecExec(benchmark::State& state) {
  const arch::ArchConfig arch = vec_exec_arch();
  const isa::Program program = vec_exec_program();
  sim::SimOptions options;
  options.functional = true;
  std::int64_t elements = 0;
  for (auto _ : state) {
    sim::Simulator simulator(arch, options);
    const sim::SimReport report = simulator.run(program, {});
    benchmark::DoNotOptimize(report.cycles);
    elements = 64 * 2 * 4096;
  }
  state.SetItemsProcessed(state.iterations() * elements);
}
BENCHMARK(BM_VecExec)->Unit(benchmark::kMillisecond);

// The same synthetic VEC program through each registered SIMD tier: what the saturating vec kernels buy end to end, span
// resolution included. Registered per tier from main() like the MVM sweep.
void BM_VecExecTier(benchmark::State& state, sim::kernels::KernelTier tier) {
  const arch::ArchConfig arch = vec_exec_arch();
  const isa::Program program = vec_exec_program();
  sim::SimOptions options;
  options.functional = true;
  options.kernel_tier = tier;
  std::int64_t elements = 0;
  for (auto _ : state) {
    sim::Simulator simulator(arch, options);
    const sim::SimReport report = simulator.run(program, {});
    benchmark::DoNotOptimize(report.cycles);
    elements = 64 * 2 * 4096;
  }
  state.SetItemsProcessed(state.iterations() * elements);
  state.SetLabel(std::string(sim::kernels::to_string(tier)));
}

// --- GlobalImage: span pinning vs the byte path -----------------------------

void BM_GlobalImageRead(benchmark::State& state) {
  const bool span = state.range(0) != 0;
  const std::int64_t len = state.range(1);
  const std::vector<std::uint8_t> base(1 << 20, 42);
  sim::GlobalImage image;
  image.bind(&base, nullptr);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(len));
  std::int64_t addr = 128;  // inside one page, resolvable as one span
  for (auto _ : state) {
    if (span) {
      const std::uint8_t* p = image.span_for_read(addr, len);
      std::memcpy(out.data(), p, static_cast<std::size_t>(len));
    } else {
      image.read_bytes(addr, len, out.data());
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * len);
  state.SetLabel(span ? "span" : "byte");
}
BENCHMARK(BM_GlobalImageRead)->Args({0, 256})->Args({1, 256})->Args({0, 4096})->Args({1, 4096});

void BM_NocTransfer(benchmark::State& state) {
  const arch::ArchConfig arch = arch::ArchConfig::cimflow_default();
  const arch::EnergyModel energy(arch);
  sim::Noc noc(arch, energy);
  std::int64_t t = 0;
  for (auto _ : state) {
    for (std::int64_t src = 0; src < 16; ++src) {
      benchmark::DoNotOptimize(noc.transfer(src, 63 - src, 256, t));
    }
    t += 64;
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_NocTransfer);

/// Registers the per-tier sweeps for exactly the tiers this host can run
/// (scalar always first — the comparison baseline), then defers to the
/// standard benchmark driver for everything, statically registered entries
/// included.
void register_tier_benchmarks() {
  const auto shapes = {std::pair<std::int64_t, std::int64_t>{64, 64},
                       {128, 128},
                       {256, 256},
                       {512, 512}};
  for (sim::kernels::KernelTier tier : sim::kernels::available_tiers()) {
    const std::string tier_name(sim::kernels::to_string(tier));
    for (const auto& [rows, cols] : shapes) {
      benchmark::RegisterBenchmark(
          ("BM_MvmKernelTier/" + tier_name + "/" + std::to_string(rows) + "x" +
           std::to_string(cols))
              .c_str(),
          [tier, rows = rows, cols = cols](benchmark::State& state) {
            BM_MvmKernelTier(state, tier, rows, cols);
          });
    }
    benchmark::RegisterBenchmark(
        ("BM_VecExecTier/" + tier_name).c_str(),
        [tier](benchmark::State& state) { BM_VecExecTier(state, tier); })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  register_tier_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
