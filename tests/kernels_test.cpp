// Functional-kernel tests: GlobalImage span pinning; the MVM kernel against
// a local column-strided oracle; the simulator's one functional path pinned
// without a second implementation — placement invariance (operands inside one
// page, straddling the 64 KB page boundary, in the beyond-base zero region),
// the copy-in rule for overlapping operands, structured errors for
// degenerate descriptors; every SIMD tier against the scalar table; and the
// decoded-program sharing contract mirroring the GlobalImage residency test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cimflow/compiler/compiler.hpp"
#include "cimflow/core/flow.hpp"
#include "cimflow/isa/assembler.hpp"
#include "cimflow/models/models.hpp"
#include "cimflow/sim/decoded.hpp"
#include "cimflow/sim/kernels.hpp"
#include "cimflow/sim/kernels_dispatch.hpp"
#include "cimflow/sim/memory.hpp"
#include "cimflow/sim/simulator.hpp"

namespace cimflow::sim {
namespace {

constexpr std::int64_t kPage = GlobalImage::kPageBytes;

arch::ArchConfig small_arch() {
  arch::ChipParams chip;
  chip.core_count = 4;
  chip.mesh_cols = 2;
  chip.global_mem_banks = 2;
  return arch::ArchConfig(chip, arch::CoreParams{}, arch::UnitParams{},
                          arch::EnergyParams{});
}

std::vector<std::uint8_t> random_image(std::size_t n, unsigned seed) {
  std::minstd_rand rng(seed);
  std::vector<std::uint8_t> image(n);
  for (auto& b : image) b = static_cast<std::uint8_t>(rng() & 0xFF);
  return image;
}

// --- GlobalImage span pinning ------------------------------------------------

TEST(GlobalImageSpanTest, ReadsResolveThroughBaseAndPages) {
  const std::vector<std::uint8_t> base = random_image(static_cast<std::size_t>(kPage) + 512, 3);
  GlobalImage image;
  image.bind(&base, nullptr);

  // Unmaterialized single page: the span IS the base.
  const std::uint8_t* span = image.span_for_read(100, 64);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span, base.data() + 100);

  // Unmaterialized multi-page span still inside the base: also the base.
  span = image.span_for_read(kPage - 32, 64);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span, base.data() + kPage - 32);

  // Materializing page 0 redirects single-page spans to the copy...
  image.store_u8(10, 0xAB);
  span = image.span_for_read(100, 64);
  ASSERT_NE(span, nullptr);
  EXPECT_NE(span, base.data() + 100);
  EXPECT_EQ(span[0], base[100]);  // copy-on-write preserved the bytes

  // ...and a span crossing out of the materialized page cannot be pinned.
  EXPECT_EQ(image.span_for_read(kPage - 32, 64), nullptr);

  // read_bytes (the byte path) still serves the unresolvable layout.
  std::vector<std::uint8_t> out(64);
  image.read_bytes(kPage - 32, 64, out.data());
  EXPECT_EQ(std::memcmp(out.data(), base.data() + kPage - 32, 64), 0);
}

TEST(GlobalImageSpanTest, WriteSpansPinSinglePagesOnly) {
  const std::vector<std::uint8_t> base = random_image(static_cast<std::size_t>(2 * kPage), 5);
  GlobalImage image;
  image.bind(&base, nullptr);

  std::uint8_t* span = image.span_for_write(200, 64);
  ASSERT_NE(span, nullptr);
  span[0] = 0x5A;
  EXPECT_EQ(image.load_u8(200), 0x5A);
  EXPECT_EQ(base[200] == 0x5A, false) << "write must land in the overlay, not the base";

  // Page-crossing writes fall back to the byte path.
  EXPECT_EQ(image.span_for_write(kPage - 8, 16), nullptr);
}

TEST(GlobalImageSpanTest, BeyondBaseZeroRegionIsNotPinnable) {
  const std::vector<std::uint8_t> base = random_image(100, 7);
  GlobalImage image;
  image.bind(&base, nullptr);
  image.ensure_size(kPage + 4096);

  // The zero region past the base has no storage to point into...
  EXPECT_EQ(image.span_for_read(2048, 64), nullptr);
  // ...but the byte path reads zeros, and a write materializes the page so
  // subsequent spans resolve.
  std::vector<std::uint8_t> out(64, 0xFF);
  image.read_bytes(2048, 64, out.data());
  for (std::uint8_t b : out) EXPECT_EQ(b, 0);
  ASSERT_NE(image.span_for_write(2048, 64), nullptr);
  EXPECT_NE(image.span_for_read(2048, 64), nullptr);
}

// --- raw MVM kernel vs a column-strided oracle -------------------------------

/// The column-strided MVM oracle: per output column an int64 dot product
/// over column-strided weights, then a little-endian read-modify-write of the
/// 4-byte output word. `out` holds `4*cols` bytes.
void mvm_ref(std::uint8_t* out, const std::uint8_t* in, const std::int8_t* w,
             std::int64_t rows, std::int64_t cols, bool accumulate) {
  for (std::int64_t j = 0; j < cols; ++j) {
    std::int64_t acc = 0;
    for (std::int64_t i = 0; i < rows; ++i) {
      acc += static_cast<std::int64_t>(static_cast<std::int8_t>(in[i])) * w[i * cols + j];
    }
    std::uint8_t* word = out + 4 * j;
    std::uint32_t prev = 0;
    if (accumulate) {
      for (int b = 0; b < 4; ++b) prev |= static_cast<std::uint32_t>(word[b]) << (8 * b);
    }
    const auto value = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(prev)) + acc);
    for (int b = 0; b < 4; ++b) {
      word[b] = static_cast<std::uint8_t>((value >> (8 * b)) & 0xFF);
    }
  }
}

TEST(MvmKernelTest, RowMajorMatchesReferenceAcrossShapes) {
  std::minstd_rand rng(17);
  const struct { std::int64_t rows, cols; } shapes[] = {
      {1, 1}, {7, 3}, {64, 64}, {511, 63}, {512, 256}, {0, 8}, {8, 0}};
  for (const auto& shape : shapes) {
    for (bool accumulate : {false, true}) {
      std::vector<std::int8_t> weights(static_cast<std::size_t>(shape.rows * shape.cols));
      for (auto& w : weights) w = static_cast<std::int8_t>(rng() & 0xFF);
      std::vector<std::uint8_t> in(static_cast<std::size_t>(shape.rows));
      for (auto& v : in) v = static_cast<std::uint8_t>(rng() & 0xFF);
      std::vector<std::uint8_t> out_ref(static_cast<std::size_t>(4 * shape.cols));
      for (auto& v : out_ref) v = static_cast<std::uint8_t>(rng() & 0xFF);
      std::vector<std::uint8_t> out_new = out_ref;

      mvm_ref(out_ref.data(), in.data(), weights.data(), shape.rows, shape.cols, accumulate);

      std::vector<std::int32_t> row(static_cast<std::size_t>(shape.cols));
      if (accumulate) {
        kernels::load_le32_row(row.data(), out_new.data(), shape.cols);
      }
      kernels::mvm_accumulate(row.data(), in.data(), weights.data(), shape.rows,
                              shape.cols);
      kernels::store_le32_row(out_new.data(), row.data(), shape.cols);

      EXPECT_EQ(out_ref, out_new) << "rows=" << shape.rows << " cols=" << shape.cols
                                  << " accumulate=" << accumulate;
    }
  }
}

// --- functional semantics through the simulator ------------------------------
//
// The simulator has one functional path, so these tests pin its semantics
// without a second implementation: the same op sequence must give identical
// result bytes wherever its operands live (inside one page, straddling the
// 64 KB page boundary, in the beyond-base zero region, in local memory), and
// an op whose source overlaps its destination must behave as if the source
// had first been copied to a disjoint address.

/// The base image of every program below: random inputs in the first 8 KB
/// (kSrc*), zeros up to 3 pages. kExtendTo stages a 16-byte input near the
/// end of a larger logical image, so [3 pages, kExtendTo - 16) is the
/// unmaterialized beyond-base zero region.
constexpr std::uint32_t kSrcA8 = 0;
constexpr std::uint32_t kSrcB8 = 256;
constexpr std::uint32_t kSrcA32 = 512;
constexpr std::uint32_t kSrcLut = 1536;
constexpr std::uint32_t kSrcW = 2048;  ///< 64 x 32 int8 weight tile
constexpr std::uint32_t kOut = 8192;   ///< fixed result region
constexpr std::int64_t kBaseBytes = 3 * kPage;
constexpr std::int64_t kExtendTo = 7 * kPage;

std::vector<std::uint8_t> placement_image() {
  std::vector<std::uint8_t> image = random_image(static_cast<std::size_t>(kBaseBytes), 61);
  std::fill(image.begin() + 8192, image.end(), 0);
  return image;
}

/// G_LI/G_LIH pair loading the 32-bit `value` into R`reg`.
std::string li(int reg, std::uint32_t value) {
  const std::string r = "R" + std::to_string(reg);
  return "G_LI " + r + ", " + std::to_string(static_cast<std::int16_t>(value & 0xFFFF)) +
         "\nG_LIH " + r + ", " + std::to_string(static_cast<std::int16_t>(value >> 16)) +
         "\n";
}

std::uint32_t local(std::uint32_t offset) { return isa::make_local_address(offset); }

isa::Program core0_program(const std::string& source, const std::vector<std::uint8_t>& image,
                           std::int64_t extend_to) {
  isa::Program program(4);
  program.cores[0] = isa::assemble(source);
  for (int c = 1; c < 4; ++c) {
    program.cores[static_cast<std::size_t>(c)].code.push_back(isa::Instruction::halt());
  }
  program.batch = 1;
  program.global_image = image;
  if (extend_to > 0) {
    program.input_global_offset = static_cast<std::uint32_t>(extend_to - 16);
    program.input_bytes_per_image = 16;
  }
  return program;
}

/// Runs `source` on core 0 (functional) and returns `out_bytes` at global
/// `out_offset`.
std::vector<std::uint8_t> run_core0(const std::string& source,
                                    const std::vector<std::uint8_t>& image,
                                    std::uint32_t out_offset, std::int64_t out_bytes,
                                    std::int64_t extend_to = 0) {
  isa::Program program = core0_program(source, image, extend_to);
  program.output_global_offset = out_offset;
  program.output_bytes_per_image = out_bytes;
  SimOptions options;
  options.functional = true;
  Simulator simulator(small_arch(), options);
  simulator.run(program,
                {std::vector<std::uint8_t>(static_cast<std::size_t>(
                    program.input_bytes_per_image))});
  return simulator.output(program, 0);
}

/// The message of the Error a run of `source` must raise ("" if none).
std::string run_error(const std::string& source, bool functional = true) {
  isa::Program program = core0_program(source, std::vector<std::uint8_t>(4096, 0), 0);
  SimOptions options;
  options.functional = functional;
  Simulator simulator(small_arch(), options);
  try {
    simulator.run(program, {std::vector<std::uint8_t>{}});
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// Layout of the placement program relative to its base P: sources first,
// then the contiguous result slots [kD1, kResultEnd) the program copies to
// kOut. kZ is a never-written zero operand more than a page away, so it is
// read from wherever P puts it: local zeros, the zero tail of the base, or
// the unmaterialized beyond-base region.
constexpr std::uint32_t kA8 = 0, kB8 = 256, kA32 = 512, kLut = 1536;
constexpr std::uint32_t kD1 = 1792, kD2 = 2048, kD3 = 2304, kD4 = 2560, kD5 = 2816;
constexpr std::uint32_t kD6 = 3072, kD7 = 4096, kRow = 5120, kPool1 = 5248;
constexpr std::uint32_t kPool2 = 5344, kPsum = 5440, kDiv = 5568, kResultEnd = 5824;
constexpr std::uint32_t kZ = 70000;
constexpr std::int64_t kResultBytes = kResultEnd - kD1;

/// One op of every functional kind over operands placed at `p`; the results
/// land in kOut.
std::string placement_program(std::uint32_t p) {
  std::string s;
  s += li(1, p + kA8) + li(2, p + kB8) + li(3, p + kA32) + li(4, p + kLut) + li(5, p + kZ);
  s += li(6, p + kD1) + li(7, p + kD2) + li(8, p + kD3) + li(9, p + kD4) + li(10, p + kD5);
  s += li(11, p + kD6) + li(12, p + kD7) + li(13, p + kRow) + li(14, p + kPool1);
  s += li(15, p + kPool2) + li(16, p + kPsum) + li(17, p + kDiv);
  s += li(20, kSrcA8) + li(21, kSrcB8) + li(22, kSrcA32) + li(23, kSrcLut) + li(24, kSrcW);
  s += R"(
      G_LI R25, 256        ; n
      G_LI R26, 1024
      MEM_CPY R1, R20, R25
      MEM_CPY R2, R21, R25
      MEM_CPY R3, R22, R26
      MEM_CPY R4, R23, R25
      VEC_ADD8 R6, R1, R5, R25     ; reads the never-written zero operand
      VEC_ADD8 R7, R1, R2, R25
      VEC_RELU8 R7, R7, R0, R25    ; exact alias, in place
      G_LI R27, 3
      CIM_CFG S2, R27              ; quant shift
      G_LI R27, 1
      CIM_CFG S3, R27              ; quant zero point
      VEC_QUANT R8, R3, R0, R25
      CIM_CFG S4, R4               ; LUT base
      VEC_LUT8 R9, R1, R0, R25
      G_LI R27, 16
      CIM_CFG S5, R27              ; channels
      VEC_SCALECH8 R10, R1, R2, R25
      VEC_ADD32 R11, R3, R3, R25
      VEC_DEQ8_32 R12, R1, R0, R25
      VEC_ADD8TO32 R12, R12, R2, R25
      G_LI R27, 8
      CIM_CFG S9, R27              ; rowsum pixels / pool row width
      G_LI R28, 32
      VEC_ROWSUM32 R13, R1, R0, R28  ; accumulates onto the never-written slot
      G_LI R27, 2
      CIM_CFG S6, R27              ; kh
      CIM_CFG S7, R27              ; kw
      G_LI R27, 1
      CIM_CFG S8, R27              ; stride
      G_LI R27, 16
      CIM_CFG S10, R27             ; pool channels
      G_LI R29, 6
      VEC_POOL_MAX R14, R1, R29
      VEC_POOL_AVG R15, R1, R29
      G_LI R27, 64
      CIM_CFG S0, R27              ; rows
      G_LI R27, 32
      CIM_CFG S1, R27              ; cols
      G_LI R30, 1
      CIM_LOAD R24, R30
      CIM_MVM R1, R16, R30, 0
      CIM_MVM R2, R16, R30, 1      ; accumulate pass
      G_LI R27, 7
      CIM_CFG S14, R27             ; divisor
      VEC_DIVROUND8 R17, R3, R0, R25
)";
  s += li(31, kOut);
  s += "G_LI R27, " + std::to_string(kResultBytes) + "\nMEM_CPY R31, R6, R27\nHALT\n";
  return s;
}

std::vector<std::uint8_t> run_placement(std::uint32_t p) {
  return run_core0(placement_program(p), placement_image(), kOut, kResultBytes, kExtendTo);
}

/// Every placement must reproduce the local-memory placement's bytes.
void expect_placement_invariant(const std::vector<std::uint32_t>& placements) {
  const std::vector<std::uint8_t> want = run_placement(local(4096));
  ASSERT_EQ(want.size(), static_cast<std::size_t>(kResultBytes));
  // Sanity: the zero-operand add reproduced its input, and results are live.
  const std::vector<std::uint8_t> image = placement_image();
  EXPECT_TRUE(std::equal(want.begin(), want.begin() + 256, image.begin() + kSrcA8));
  EXPECT_NE(std::count(want.begin(), want.end(), 0), kResultBytes);
  for (std::uint32_t p : placements) {
    EXPECT_EQ(run_placement(p), want) << "placement base " << p;
  }
}

// Operands inside one page and straddling the 64 KB page boundary: each
// straddle base cuts a different operand (sources gathered, destinations
// gathered and written back, the zero operand pinned through the base
// across the boundary for P = 61004).
TEST(KernelDifferentialTest, VecOpsStraddlingPageBoundary) {
  expect_placement_invariant({16384, kPage - 100, kPage - 1000, kPage - 2000, kPage - 3000,
                              kPage - 4000, kPage - 5000, 61004});
}

// MVM input and psum straddling the page boundary, an accumulate pass into
// a gathered psum, and an accumulate into a never-written region.
TEST(KernelDifferentialTest, MvmGlobalStraddleAndAccumulate) {
  auto program = [](std::uint32_t in, std::uint32_t psum) {
    std::string s = li(1, in) + li(2, psum) + li(3, psum + 8192) + li(4, kSrcA8) +
                    li(5, kSrcW) + li(6, kOut) + li(7, kOut + 128);
    s += R"(
      G_LI R8, 64
      MEM_CPY R1, R4, R8           ; input bytes
      CIM_CFG S0, R8               ; rows
      G_LI R9, 32
      CIM_CFG S1, R9               ; cols
      G_LI R10, 1
      CIM_LOAD R5, R10
      CIM_MVM R1, R2, R10, 0
      CIM_MVM R1, R2, R10, 1       ; accumulate pass
      CIM_MVM R1, R3, R10, 1       ; accumulate onto never-written zeros
      G_LI R11, 128
      MEM_CPY R6, R2, R11
      MEM_CPY R7, R3, R11
      HALT
)";
    return run_core0(s, placement_image(), kOut, 256, kExtendTo);
  };
  const std::vector<std::uint8_t> want = program(local(0), local(4096));
  const struct { std::uint32_t in, psum; } placements[] = {
      {16384, 20000},                              // one page each
      {kPage - 30, kPage + 1000},                  // input straddles
      {1000, kPage - 64},                          // psum straddles (gathered)
      {3 * kPage + 100, 4 * kPage - 50},           // beyond-base zero region
      {4 * kPage - 20, local(8192)},
  };
  for (const auto& p : placements) {
    EXPECT_EQ(program(p.in, p.psum), want) << "in=" << p.in << " psum=" << p.psum;
  }
}

// Operands in the beyond-base zero region (one page, and straddling two
// unmaterialized zero pages), plus zero-length ops, which must not touch a
// byte.
TEST(KernelDifferentialTest, ZeroRegionsZeroLengthsAndPool) {
  expect_placement_invariant({3 * kPage + 1024, 4 * kPage - 2000});

  // Destination: random base bytes at 4096, which every no-op must leave as
  // they are.
  std::string s = li(1, 4096) + li(2, kSrcA8);
  s += R"(
      G_LI R3, 0                   ; n = 0
      VEC_ADD8 R1, R2, R2, R3
      VEC_QUANT R1, R2, R0, R3
      VEC_ROWSUM32 R1, R2, R0, R3
      G_LI R4, 3
      CIM_CFG S6, R4
      CIM_CFG S7, R4
      CIM_CFG S8, R4
      CIM_CFG S9, R4
      CIM_CFG S10, R4
      VEC_POOL_AVG R1, R2, R3      ; out_w = 0
      G_LI R5, 64
      CIM_CFG S0, R5
      CIM_CFG S1, R3               ; cols = 0
      CIM_MVM R2, R1, R0, 1
      HALT
)";
  const std::vector<std::uint8_t> image = placement_image();
  EXPECT_EQ(run_core0(s, image, 4096, 1024),
            std::vector<std::uint8_t>(image.begin() + 4096, image.begin() + 4096 + 1024));
}

// Randomized placements across the base, the page boundaries and the zero
// region must all agree with the local-memory placement.
TEST(KernelDifferentialTest, RandomizedVecSoak) {
  for (unsigned seed : {101u, 202u, 303u}) {
    std::minstd_rand rng(seed);
    std::vector<std::uint32_t> placements;
    for (int i = 0; i < 4; ++i) {
      placements.push_back(12288 + static_cast<std::uint32_t>(rng() % (4 * kPage - 12288)));
    }
    expect_placement_invariant(placements);
  }
}

// The VEC_LUT8 table is a 256-byte operand: one that does not fit before the
// end of local memory is a structured out-of-range error, not a lazy read of
// only the indexed entries.
TEST(KernelDifferentialTest, LutNearEndOfLocalMemory) {
  // lut @ local 524088 (200 bytes before the 512 KB end); indices stay < 128.
  const char* source = R"(
      G_LI R4, 0
      G_LIH R4, -32768     ; a @ local 0
      G_LI R5, 64          ; n
      G_LI R6, 50
      VEC_FILL8 R4, R4, R6, R5
      G_LI R7, -200
      G_LIH R7, -32761     ; lut @ local 524088
      CIM_CFG S4, R7
      G_LI R10, 1024
      G_LIH R10, -32768    ; dst @ local 1024
      VEC_LUT8 R10, R4, R0, R5
      HALT
  )";
  const std::string error = run_error(source);
  EXPECT_NE(error.find("local access out of range"), std::string::npos) << error;
  EXPECT_NE(error.find("len=256"), std::string::npos) << error;
}

/// One op whose source `{src}` overlaps its destination, run as written and
/// with the source first copied to a disjoint local scratch (R29).
struct OverlapCase {
  const char* name;
  const char* setup;  ///< descriptor writes (may use R20..R25)
  const char* op;     ///< the op; `{src}` names the overlapping source register
  std::uint32_t src;  ///< local offset of the overlapping source
  std::int64_t src_bytes;
};

std::vector<std::uint8_t> run_overlap(const OverlapCase& c, bool copy_first) {
  std::string s = li(1, local(0)) + li(2, kSrcA8) + li(3, local(c.src)) + li(29, local(16384));
  s += "G_LI R4, 4096\nMEM_CPY R1, R2, R4\n";  // random bytes into local [0, 4096)
  s += li(30, static_cast<std::uint32_t>(c.src_bytes));
  s += c.setup;
  std::string op = c.op;
  const std::size_t at = op.find("{src}");
  if (copy_first) {
    s += "MEM_CPY R29, R3, R30\n";
    op.replace(at, 5, "R29");
  } else {
    op.replace(at, 5, "R3");
  }
  s += op + "\n" + li(5, kOut) + "MEM_CPY R5, R1, R4\nHALT\n";
  return run_core0(s, placement_image(), kOut, 4096);
}

void expect_copy_in(const std::vector<OverlapCase>& cases) {
  for (const OverlapCase& c : cases) {
    const std::vector<std::uint8_t> overlapped = run_overlap(c, false);
    EXPECT_EQ(overlapped, run_overlap(c, true)) << c.name;
    // The op did run: the region differs from the untouched input bytes.
    const std::vector<std::uint8_t> image = placement_image();
    EXPECT_NE(overlapped, std::vector<std::uint8_t>(image.begin(), image.begin() + 4096))
        << c.name;
  }
}

// Overlapping MVM input/output ranges (never compiler-emitted): the input is
// read as it was before the MVM issued, exactly as if it had been copied to a
// disjoint address first.
TEST(KernelDifferentialTest, MvmOverlappingOperandsMatchReference) {
  const char* setup = R"(
      G_LI R20, 16
      CIM_CFG S0, R20              ; rows
      G_LI R21, 8
      CIM_CFG S1, R21              ; cols
      G_LI R22, 1
      CIM_LOAD R1, R22             ; weights from local 0
      G_LI R23, 1008
      G_LIH R23, -32768            ; psum @ local 1008..1040
)";
  expect_copy_in({
      {"mvm input under psum", setup, "CIM_MVM {src}, R23, R22, 0", 1000, 16},
      {"mvm accumulate, input under psum", setup, "CIM_MVM {src}, R23, R22, 1", 1000, 16},
      {"mvm input over psum tail", setup, "CIM_MVM {src}, R23, R22, 1", 1030, 16},
  });
}

// The vector-unit counterpart: partial overlaps of every operand width, a
// LUT under the destination and a pooling window under its output.
TEST(KernelDifferentialTest, VecOverlappingOperandsMatchDisjointCopy) {
  const char* vec = R"(
      G_LI R20, 1008
      G_LIH R20, -32768            ; dst @ local 1008
      G_LI R21, 2000
      G_LIH R21, -32768            ; b @ local 2000
      G_LI R22, 64                 ; n
)";
  const char* pool = R"(
      G_LI R20, 1016
      G_LIH R20, -32768            ; dst @ local 1016
      G_LI R21, 2
      CIM_CFG S6, R21
      CIM_CFG S7, R21
      G_LI R21, 1
      CIM_CFG S8, R21
      G_LI R21, 6
      CIM_CFG S9, R21
      G_LI R21, 8
      CIM_CFG S10, R21
      G_LI R22, 4                  ; out_w
)";
  const char* lut = R"(
      G_LI R20, 1008
      G_LIH R20, -32768            ; dst @ local 1008
      G_LI R21, 3000
      G_LIH R21, -32768            ; indices @ local 3000
      G_LI R22, 64
)";
  const char* rowsum = R"(
      G_LI R20, 1008
      G_LIH R20, -32768            ; dst @ local 1008 (16 x int32)
      G_LI R21, 4
      CIM_CFG S9, R21              ; pixels
      G_LI R22, 16                 ; channels
)";
  expect_copy_in({
      {"add8 a below dst", vec, "VEC_ADD8 R20, {src}, R21, R22", 1000, 64},
      {"add8 a above dst", vec, "VEC_ADD8 R20, {src}, R21, R22", 1016, 64},
      {"sub8 b below dst", vec, "VEC_SUB8 R20, R21, {src}, R22", 1000, 64},
      {"copy8", vec, "VEC_COPY8 R20, {src}, R0, R22", 1000, 64},
      {"copy32", vec, "VEC_COPY32 R20, {src}, R0, R22", 1004, 256},
      {"quant", vec, "VEC_QUANT R20, {src}, R0, R22", 1000, 256},
      {"deq8to32", vec, "VEC_DEQ8_32 R20, {src}, R0, R22", 1040, 64},
      {"add8to32 b", vec, "VEC_ADD8TO32 R20, R21, {src}, R22", 1100, 64},
      {"rowsum32", rowsum, "VEC_ROWSUM32 R20, {src}, R0, R22", 1000, 64},
      {"lut under dst", lut, "CIM_CFG S4, {src}\nVEC_LUT8 R20, R21, R0, R22", 1000, 256},
      {"pool max", pool, "VEC_POOL_MAX R20, {src}, R22", 1000, 88},
      {"pool avg", pool, "VEC_POOL_AVG R20, {src}, R22", 1000, 88},
  });
}

// --- degenerate descriptors: structured errors, not signals ------------------

TEST(DegenerateDescriptorTest, ScaleCh8NonPositiveChannelsIsAnError) {
  for (int channels : {0, -3}) {
    const std::string source = R"(
      G_LI R4, 0
      G_LIH R4, -32768
      G_LI R5, 64
      G_LI R6, )" + std::to_string(channels) + R"(
      CIM_CFG S5, R6
      VEC_SCALECH8 R4, R4, R4, R5
      HALT
    )";
    const std::string error = run_error(source);
    EXPECT_NE(error.find("VEC_SCALECH8"), std::string::npos) << error;
    EXPECT_NE(error.find("S_CHANNELS"), std::string::npos) << error;
  }
}

TEST(DegenerateDescriptorTest, PoolNonPositiveWindowIsAnError) {
  // Every descriptor register zeroed in turn (kh also negative), in both
  // simulation modes: the window shape drives timing as well as data.
  const struct { int sreg; int value; } cases[] = {
      {6, 0}, {6, -1}, {7, 0}, {8, 0}, {9, 0}, {10, 0}, {10, -4}};
  for (const auto& c : cases) {
    for (bool functional : {true, false}) {
      std::string source = R"(
      G_LI R4, 0
      G_LIH R4, -32768
      G_LI R5, 2
      CIM_CFG S6, R5
      CIM_CFG S7, R5
      CIM_CFG S8, R5
      CIM_CFG S9, R5
      CIM_CFG S10, R5
)";
      source += "G_LI R6, " + std::to_string(c.value) + "\nCIM_CFG S" +
                std::to_string(c.sreg) + ", R6\nG_LI R7, 3\nVEC_POOL_AVG R4, R4, R7\nHALT\n";
      const std::string error = run_error(source, functional);
      EXPECT_NE(error.find("VEC_POOL"), std::string::npos)
          << "S" << c.sreg << "=" << c.value << " functional=" << functional << ": "
          << error;
    }
  }
}

// --- decoded-program sharing (mirrors the GlobalImage residency test) --------

TEST(DecodedProgramTest, ConcurrentSimulatorsShareOneDecode) {
  const graph::Graph model = models::micro_cnn({});
  const arch::ArchConfig arch = arch::ArchConfig::cimflow_default();
  compiler::CompileOptions copt;
  copt.strategy = compiler::Strategy::kDpOptimized;
  copt.batch = 5;  // batch distinct from every other test -> unique program
  copt.materialize_data = false;
  const compiler::CompileResult compiled = compiler::compile(model, arch, copt);

  // Pin the decode the way a DSE cache entry does: one strong reference for
  // the duration of the sweep. Without a pin, a simulator finishing before a
  // late-starting peer could let the weak cache entry expire in between.
  const DecodedCacheStats before = decoded_cache_stats();
  const auto pin = DecodedProgram::shared(compiled.program, isa::Registry::builtin());
  constexpr int kSimulators = 8;
  std::vector<SimMemoryStats> stats(kSimulators);
  {
    std::vector<std::thread> pool;
    for (int i = 0; i < kSimulators; ++i) {
      pool.emplace_back([&, i] {
        Simulator simulator(arch, SimOptions{});
        simulator.run(compiled.program);
        stats[i] = simulator.memory_stats();
      });
    }
    for (std::thread& t : pool) t.join();
  }
  const DecodedCacheStats after = decoded_cache_stats();

  // Exactly one decode was built (for the pin); every simulator shared it.
  EXPECT_EQ(after.builds - before.builds, 1u);
  EXPECT_EQ(after.hits - before.hits, static_cast<std::size_t>(kSimulators));
  for (int i = 0; i < kSimulators; ++i) {
    EXPECT_GT(stats[i].decoded_bytes, 0) << "simulator " << i;
    EXPECT_EQ(stats[i].decoded_bytes, stats[0].decoded_bytes) << "simulator " << i;
  }
}

TEST(DecodedProgramTest, MutatedProgramNeverAliasesAStaleDecode) {
  isa::Program program(1);
  program.cores[0].code.push_back(isa::Instruction::g_li(4, 7));
  program.cores[0].code.push_back(isa::Instruction::halt());

  const auto first = DecodedProgram::shared(program, isa::Registry::builtin());
  // Same content -> same shared decode while a strong reference is live.
  EXPECT_EQ(DecodedProgram::shared(program, isa::Registry::builtin()).get(), first.get());

  // Content change (same object, same address) -> a different decode.
  program.cores[0].code[0] = isa::Instruction::g_li(4, 8);
  const auto second = DecodedProgram::shared(program, isa::Registry::builtin());
  EXPECT_NE(second.get(), first.get());
  EXPECT_NE(second->fingerprint(), first->fingerprint());
}

TEST(DecodedProgramTest, StrongLruKeepsRecentDecodesWarm) {
  isa::Program program(1);
  program.cores[0].code.push_back(isa::Instruction::g_li(5, 12345));
  program.cores[0].code.push_back(isa::Instruction::halt());
  const isa::Registry& registry = isa::Registry::builtin();

  const std::size_t previous = decoded_cache_set_strong_capacity(2);
  const DecodedCacheStats before = decoded_cache_stats();
  // No caller keeps a strong reference — only the LRU pin holds the decode.
  DecodedProgram::shared(program, registry);
  DecodedProgram::shared(program, registry);
  const DecodedCacheStats warm = decoded_cache_stats();
  EXPECT_EQ(warm.builds - before.builds, 1u) << "second lookup must be warm";
  EXPECT_EQ(warm.hits - before.hits, 1u);
  EXPECT_GE(warm.strong_entries, 1u);
  EXPECT_EQ(warm.strong_capacity, 2u);

  // Capacity 0 restores the pure weak behavior: with no strong reference
  // left the decode expires, and the next lookup rebuilds from cold.
  decoded_cache_set_strong_capacity(0);
  EXPECT_EQ(decoded_cache_stats().strong_entries, 0u);
  DecodedProgram::shared(program, registry);
  const DecodedCacheStats rebuilt = decoded_cache_stats();
  EXPECT_EQ(rebuilt.builds - warm.builds, 1u);

  decoded_cache_set_strong_capacity(previous);
}

// --- 64-byte alignment contract ---------------------------------------------

bool aligned64(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kBufferAlignBytes == 0;
}

TEST(AlignedMemoryTest, ZeroedBufferIsAlignedAndZero) {
  for (std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                        std::size_t{65}, std::size_t{4097}, std::size_t{1} << 20}) {
    ZeroedBuffer buffer;
    buffer.reset_zeroed(n);
    ASSERT_TRUE(aligned64(buffer.data())) << "n=" << n;
    ASSERT_EQ(buffer.size(), n);
    const std::uint8_t* data = buffer.data();
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(data[i], 0u) << "n=" << n << " i=" << i;
    }
  }
}

TEST(AlignedMemoryTest, AlignedBufferSurvivesGrowOnlyReallocation) {
  AlignedBuffer<std::uint8_t> bytes;
  AlignedBuffer<std::int32_t> words;
  // A growth series crossing several capacity doublings: EVERY reallocation
  // must hand back a 64-byte-aligned block (the SIMD loads rely on it).
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                        std::size_t{65}, std::size_t{1000}, std::size_t{4096},
                        std::size_t{100000}}) {
    std::uint8_t* b = bytes.ensure(n);
    std::int32_t* w = words.ensure(n);
    ASSERT_TRUE(aligned64(b)) << "n=" << n;
    ASSERT_TRUE(aligned64(w)) << "n=" << n;
    ASSERT_GE(bytes.capacity(), n);
    ASSERT_GE(words.capacity(), n);
    b[n - 1] = 0x5A;            // the block really is writable to the end
    w[n - 1] = -1;
  }
  // Grow-only: asking for less must not reallocate (pointer stays put).
  std::uint8_t* grown = bytes.ensure(100000);
  EXPECT_EQ(bytes.ensure(5), grown);
}

// --- per-tier differential: every registered tier vs the scalar table --------

/// Every tier enum value; unavailable ones skip at runtime (avx2 on a host
/// without it).
class KernelTierTest : public ::testing::TestWithParam<kernels::KernelTier> {
 protected:
  void SetUp() override {
    if (!kernels::tier_available(GetParam())) {
      GTEST_SKIP() << "tier '" << kernels::to_string(GetParam())
                   << "' not available on this host";
    }
  }
  const kernels::KernelTable& table() { return kernels::kernel_table(GetParam()); }
  const kernels::KernelTable& scalar() {
    return kernels::kernel_table(kernels::KernelTier::kScalar);
  }
};

TEST_P(KernelTierTest, MvmMatchesScalarAcrossShapesAndOffsets) {
  std::minstd_rand rng(41);
  const struct { std::int64_t rows, cols; } shapes[] = {
      {1, 1}, {7, 3}, {16, 16}, {33, 17}, {64, 64}, {128, 48},
      {511, 63}, {256, 256}, {0, 8}, {8, 0}};
  // offset shifts every operand off 64-byte alignment — the kernels use
  // unaligned loads and must not care.
  for (std::size_t offset : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    for (const auto& shape : shapes) {
      const std::size_t wn = static_cast<std::size_t>(shape.rows * shape.cols);
      std::vector<std::int8_t> weights(wn + offset);
      for (auto& w : weights) w = static_cast<std::int8_t>(rng() & 0xFF);
      std::vector<std::uint8_t> in(static_cast<std::size_t>(shape.rows) + offset);
      for (auto& v : in) v = static_cast<std::uint8_t>(rng() & 0xFF);
      std::vector<std::int32_t> acc_scalar(static_cast<std::size_t>(shape.cols) + offset);
      for (auto& v : acc_scalar) v = static_cast<std::int32_t>(rng());
      std::vector<std::int32_t> acc_tier = acc_scalar;

      scalar().mvm_accumulate(acc_scalar.data() + offset, in.data() + offset,
                              weights.data() + offset, shape.rows, shape.cols);
      table().mvm_accumulate(acc_tier.data() + offset, in.data() + offset,
                             weights.data() + offset, shape.rows, shape.cols);
      EXPECT_EQ(acc_scalar, acc_tier)
          << "rows=" << shape.rows << " cols=" << shape.cols << " offset=" << offset;
    }
  }
}

TEST_P(KernelTierTest, ElementwiseMatchesScalarAcrossSizes) {
  std::minstd_rand rng(43);
  for (std::int64_t n : {0, 1, 15, 16, 17, 31, 32, 33, 100, 1000}) {
    for (std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
      const std::size_t un = static_cast<std::size_t>(n) + offset;
      std::vector<std::uint8_t> a(un), b(un);
      std::vector<std::uint8_t> a32(4 * un), b32(4 * un);
      for (auto& v : a) v = static_cast<std::uint8_t>(rng() & 0xFF);
      for (auto& v : b) v = static_cast<std::uint8_t>(rng() & 0xFF);
      for (auto& v : a32) v = static_cast<std::uint8_t>(rng() & 0xFF);
      for (auto& v : b32) v = static_cast<std::uint8_t>(rng() & 0xFF);

      const auto diff8 = [&](const char* what, auto&& run) {
        std::vector<std::uint8_t> want(un, 0xCD), got(un, 0xCD);
        run(scalar(), want.data() + offset);
        run(table(), got.data() + offset);
        EXPECT_EQ(want, got) << what << " n=" << n << " offset=" << offset;
      };
      const std::uint8_t* pa = a.data() + offset;
      const std::uint8_t* pb = b.data() + offset;
      const std::uint8_t* pa32 = a32.data() + offset;
      const std::uint8_t* pb32 = b32.data() + offset;
      diff8("add8", [&](const kernels::KernelTable& t, std::uint8_t* dst) {
        t.add8(dst, pa, pb, n);
      });
      diff8("sub8", [&](const kernels::KernelTable& t, std::uint8_t* dst) {
        t.sub8(dst, pa, pb, n);
      });
      diff8("max8", [&](const kernels::KernelTable& t, std::uint8_t* dst) {
        t.max8(dst, pa, pb, n);
      });
      diff8("min8", [&](const kernels::KernelTable& t, std::uint8_t* dst) {
        t.min8(dst, pa, pb, n);
      });
      diff8("relu8", [&](const kernels::KernelTable& t, std::uint8_t* dst) {
        t.relu8(dst, pa, n);
      });
      diff8("rowmax8", [&](const kernels::KernelTable& t, std::uint8_t* dst) {
        if (n > 0) std::memset(dst, 0x80, static_cast<std::size_t>(n));
        t.rowmax8(dst, pa, n);
        t.rowmax8(dst, pb, n);
      });

      const auto diff32 = [&](const char* what, auto&& run) {
        std::vector<std::uint8_t> want(4 * un, 0xCD), got(4 * un, 0xCD);
        run(scalar(), want.data() + 4 * offset);
        run(table(), got.data() + 4 * offset);
        EXPECT_EQ(want, got) << what << " n=" << n << " offset=" << offset;
      };
      diff32("add32", [&](const kernels::KernelTable& t, std::uint8_t* dst) {
        t.add32(dst, pa32, pb32, n);
      });
      diff32("max32", [&](const kernels::KernelTable& t, std::uint8_t* dst) {
        t.max32(dst, pa32, pb32, n);
      });
      diff32("relu32", [&](const kernels::KernelTable& t, std::uint8_t* dst) {
        t.relu32(dst, pa32, n);
      });
      diff32("deq8to32", [&](const kernels::KernelTable& t, std::uint8_t* dst) {
        t.deq8to32(dst, pa, n);
      });
      diff32("add8to32", [&](const kernels::KernelTable& t, std::uint8_t* dst) {
        t.add8to32(dst, pa32, pb, n);
      });

      std::vector<std::int32_t> acc_want(un, 7), acc_got(un, 7);
      scalar().rowadd8_i32(acc_want.data() + offset, pa, n);
      table().rowadd8_i32(acc_got.data() + offset, pa, n);
      EXPECT_EQ(acc_want, acc_got) << "rowadd8_i32 n=" << n << " offset=" << offset;
    }
  }
}

TEST_P(KernelTierTest, QuantMatchesScalarAcrossShiftsAndZeroPoints) {
  std::minstd_rand rng(47);
  const std::int64_t n = 257;  // odd: exercises every vector tail
  // Arbitrary int32 accumulators are only UB-free for shift >= 1 (the
  // rounded value plus a small zero-point then always fits); shift <= 0
  // paths get small accumulators instead.
  for (int shift : {1, 2, 7, 8, 15, 24, 31}) {
    for (std::int32_t zero : {-1000, -1, 0, 5, 1000}) {
      std::vector<std::uint8_t> src(static_cast<std::size_t>(4 * n));
      for (auto& v : src) v = static_cast<std::uint8_t>(rng() & 0xFF);
      std::vector<std::uint8_t> want(static_cast<std::size_t>(n), 0xCD);
      std::vector<std::uint8_t> got = want;
      scalar().quant(want.data(), src.data(), n, shift, zero);
      table().quant(got.data(), src.data(), n, shift, zero);
      EXPECT_EQ(want, got) << "shift=" << shift << " zero=" << zero;
    }
  }
  for (int shift : {0, -1, -4}) {
    std::vector<std::int32_t> accs(static_cast<std::size_t>(n));
    for (auto& v : accs) {
      v = static_cast<std::int32_t>(rng() % (1 << 20)) - (1 << 19);
    }
    std::vector<std::uint8_t> src(static_cast<std::size_t>(4 * n));
    kernels::store_le32_row(src.data(), accs.data(), n);
    std::vector<std::uint8_t> want(static_cast<std::size_t>(n), 0xCD);
    std::vector<std::uint8_t> got = want;
    scalar().quant(want.data(), src.data(), n, shift, 3);
    table().quant(got.data(), src.data(), n, shift, 3);
    EXPECT_EQ(want, got) << "shift=" << shift;
  }
}

// Randomized soak through the REAL simulator: the same program and image per
// tier, page straddles and accumulate passes included — outputs must agree
// with the scalar tier on every byte.
TEST_P(KernelTierTest, SimulatorOutputMatchesScalarTier) {
  const char* source = R"(
      G_LI R4, 0
      G_LIH R4, -32768     ; staging @ local 0
      G_LI R5, 1024
      G_LI R6, 2048        ; 32 x 64 tile @ global 1024
      MEM_CPY R4, R5, R6
      G_LI R7, 32
      CIM_CFG S0, R7
      G_LI R8, 64
      CIM_CFG S1, R8
      G_LI R9, 1
      CIM_LOAD R4, R9
      G_LI R10, -16
      G_LIH R10, 0         ; input @ 65520 straddles the page boundary
      G_LI R11, -512
      G_LIH R11, 1         ; psum @ 130560
      CIM_MVM R10, R11, R9, 0
      CIM_MVM R10, R11, R9, 1
      G_LI R12, 300
      G_LI R13, 900
      G_LI R14, 4096
      G_LI R15, 500
      VEC_ADD8 R14, R12, R13, R15
      VEC_RELU8 R14, R14, R0, R15
      G_LI R16, 3
      CIM_CFG S2, R16
      CIM_CFG S3, R9
      VEC_QUANT R14, R11, R0, R8
      HALT
  )";
  const std::vector<std::uint8_t> image = random_image(3 * kPage, 53);
  std::vector<std::uint8_t> outputs[2];
  const kernels::KernelTier tiers[2] = {kernels::KernelTier::kScalar, GetParam()};
  for (int t = 0; t < 2; ++t) {
    isa::Program program(4);
    program.cores[0] = isa::assemble(source);
    for (int c = 1; c < 4; ++c) {
      program.cores[static_cast<std::size_t>(c)].code.push_back(isa::Instruction::halt());
    }
    program.batch = 1;
    program.global_image = image;
    program.output_global_offset = 0;
    program.output_bytes_per_image = static_cast<std::int64_t>(image.size());
    SimOptions options;
    options.functional = true;
    options.kernel_tier = tiers[t];
    Simulator simulator(small_arch(), options);
    simulator.run(program, {std::vector<std::uint8_t>{}});
    outputs[t] = simulator.output(program, 0);
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

INSTANTIATE_TEST_SUITE_P(AllTiers, KernelTierTest,
                         ::testing::Values(kernels::KernelTier::kScalar,
                                           kernels::KernelTier::kAvx2),
                         [](const ::testing::TestParamInfo<kernels::KernelTier>& info) {
                           return std::string(kernels::to_string(info.param));
                         });

// --- dispatch: strict parsing, env override, availability --------------------

/// Saves and restores CIMFLOW_KERNELS around each test so the override tests
/// never leak into the rest of the suite (or inherit CI's setting).
class KernelDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* env = std::getenv("CIMFLOW_KERNELS");
    if (env != nullptr) saved_ = env;
    unsetenv("CIMFLOW_KERNELS");
  }
  void TearDown() override {
    if (saved_.has_value()) {
      setenv("CIMFLOW_KERNELS", saved_->c_str(), 1);
    } else {
      unsetenv("CIMFLOW_KERNELS");
    }
  }
  std::optional<std::string> saved_;
};

TEST_F(KernelDispatchTest, TierStringsRoundTripAndRejectUnknown) {
  using kernels::KernelTier;
  for (KernelTier tier : {KernelTier::kAuto, KernelTier::kScalar, KernelTier::kAvx2}) {
    EXPECT_EQ(kernels::tier_from_string(kernels::to_string(tier)), tier);
  }
  // "neon" is not a tier (there is no NEON table).
  for (const char* name : {"avx512", "neon"}) {
    try {
      kernels::tier_from_string(name);
      FAIL() << "unknown tier '" << name << "' must raise";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("expected auto, scalar, or avx2"),
                std::string::npos);
    }
  }
}

TEST_F(KernelDispatchTest, ResolveHonorsRequestAndProbe) {
  using kernels::KernelTier;
  // Scalar is always available and always resolves to itself.
  EXPECT_EQ(kernels::resolve_tier(KernelTier::kScalar), KernelTier::kScalar);
  // Auto resolves to something concrete and available.
  const KernelTier resolved = kernels::resolve_tier(KernelTier::kAuto);
  EXPECT_NE(resolved, KernelTier::kAuto);
  EXPECT_TRUE(kernels::tier_available(resolved));
  // Every available tier has a table; the scalar list is never empty.
  const std::vector<KernelTier> tiers = kernels::available_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), KernelTier::kScalar);
  for (KernelTier tier : tiers) {
    EXPECT_NE(kernels::kernel_table(tier).mvm_accumulate, nullptr);
  }
  // Requesting an absent tier raises instead of silently falling back.
  if (!kernels::tier_available(KernelTier::kAvx2)) {
    EXPECT_THROW(kernels::resolve_tier(KernelTier::kAvx2), Error);
  }
}

TEST_F(KernelDispatchTest, EnvOverrideIsStrict) {
  using kernels::KernelTier;
  setenv("CIMFLOW_KERNELS", "scalar", 1);
  EXPECT_EQ(kernels::resolve_tier(KernelTier::kAuto), KernelTier::kScalar);
  // An explicit (non-auto) request wins over the env override.
  EXPECT_EQ(kernels::resolve_tier(KernelTier::kScalar), KernelTier::kScalar);

  setenv("CIMFLOW_KERNELS", "auto", 1);
  EXPECT_TRUE(kernels::tier_available(kernels::resolve_tier(KernelTier::kAuto)));

  setenv("CIMFLOW_KERNELS", "fast", 1);
  try {
    kernels::resolve_tier(KernelTier::kAuto);
    FAIL() << "garbage CIMFLOW_KERNELS must raise";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CIMFLOW_KERNELS"), std::string::npos);
  }

  setenv("CIMFLOW_KERNELS", "neon", 1);
  EXPECT_THROW(kernels::resolve_tier(KernelTier::kAuto), Error);

  // Naming a tier this host lacks is an error too — a mistyped gate must not
  // silently run some other tier.
  if (!kernels::tier_available(KernelTier::kAvx2)) {
    setenv("CIMFLOW_KERNELS", "avx2", 1);
    EXPECT_THROW(kernels::resolve_tier(KernelTier::kAuto), Error);
  }
}

// --- cross-tier byte identity of reported metrics ----------------------------

// The tentpole invariant: SIMD only changes wall clock. The full evaluation
// JSON (cycles, energy, validation — everything the CLI's --json writes) must
// be byte-identical across every tier this host can run.
TEST(KernelTierIdentityTest, EvaluationJsonIdenticalAcrossTiers) {
  const graph::Graph model = models::micro_cnn({});
  const arch::ArchConfig arch = arch::ArchConfig::cimflow_default();
  std::string scalar_json;
  for (kernels::KernelTier tier : kernels::available_tiers()) {
    Flow flow(arch);
    FlowOptions options;
    options.strategy = compiler::Strategy::kDpOptimized;
    options.batch = 2;
    options.validate = true;  // functional run + golden comparison per tier
    options.eval.kernel_tier = tier;
    const EvaluationReport report = flow.evaluate(model, options);
    EXPECT_TRUE(report.validation_passed)
        << "tier " << kernels::to_string(tier) << " diverged from the golden executor";
    const std::string json = report.to_json().dump();
    if (tier == kernels::KernelTier::kScalar) {
      scalar_json = json;
    } else {
      EXPECT_EQ(json, scalar_json)
          << "tier " << kernels::to_string(tier) << " changed the reported metrics";
    }
  }
}

// SIMD under the parallel scheduler: 8 worker threads on the auto tier vs the
// serial scalar baseline must agree byte-for-byte. (Also the TSan target: CI
// runs this with the race detector on.)
TEST(KernelTierParallelTest, ParallelSimdMatchesSerialScalar) {
  const graph::Graph model = models::micro_cnn({});
  const arch::ArchConfig arch = arch::ArchConfig::cimflow_default();
  std::string baseline;
  const struct { kernels::KernelTier tier; std::int64_t threads; } runs[] = {
      {kernels::KernelTier::kScalar, 1}, {kernels::KernelTier::kAuto, 8}};
  for (const auto& run : runs) {
    Flow flow(arch);
    FlowOptions options;
    options.strategy = compiler::Strategy::kDpOptimized;
    options.batch = 4;
    options.functional = true;
    options.eval.kernel_tier = run.tier;
    options.eval.sim_threads = run.threads;
    const std::string json = flow.evaluate(model, options).to_json().dump();
    if (baseline.empty()) {
      baseline = json;
    } else {
      EXPECT_EQ(json, baseline) << "parallel SIMD run diverged from serial scalar";
    }
  }
}

}  // namespace
}  // namespace cimflow::sim
