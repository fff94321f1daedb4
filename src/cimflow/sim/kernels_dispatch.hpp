// Runtime-dispatched SIMD kernel tiers for the INT8 functional hot path.
//
// PR 5 turned the per-element simulator loops into pointer-resolved kernels;
// this layer adds explicit vector implementations behind runtime CPU
// dispatch. A KernelTable is a set of function pointers covering the hot
// kernels (the row-major MVM accumulate, the saturating INT8 elementwise
// ops, the widening/requantizing 32-bit ops, and the pooling row
// reductions); each implementation tier fills the table once:
//
//   * kScalar — the portable loops: the simulator's one reference semantics,
//     which every other tier is differentially tested against;
//   * kAvx2   — compiled in its own translation unit with -mavx2 (see
//     kernels_avx2.cpp), selected only after a CPUID probe, so the binary
//     stays runnable on baseline x86-64 hosts.
//
// Tier selection: SimOptions::kernel_tier (kAuto by default) resolves via
// resolve_tier() — the CIMFLOW_KERNELS=scalar|avx2 environment override
// is strict-parsed first, then the best available tier wins. Requesting a
// tier the host lacks raises Error(kInvalidArgument): differential tests
// skip unavailable tiers instead of silently testing the wrong code.
//
// Bit-exactness contract (the hard invariant of PRs 5-9): every tier
// produces byte-identical outputs for identical inputs — all accumulation is
// mod 2^32, saturation bounds are exact, and rounding matches
// support/numeric.hpp. SIMD only changes wall clock; reports and --json
// payloads never move.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "cimflow/support/numeric.hpp"

namespace cimflow::sim::kernels {

enum class KernelTier : std::uint8_t {
  kAuto = 0,    ///< resolve at simulator construction (env override + probe)
  kScalar = 1,  ///< portable loops — always available
  kAvx2 = 2,    ///< x86-64 AVX2 (runtime CPUID-gated)
};

/// The dispatched hot kernels. All pointers are non-null in every registered
/// table; 32-bit operands are raw little-endian byte rows (the simulator's
/// int32 memory format), int8 operands are raw bytes reinterpreted signed.
/// Every kernel tolerates unaligned pointers (the 64-byte-aligned buffers
/// make alignment the dominant case, not a requirement) and n == 0.
/// Operands must not partially overlap — the simulator copies an overlapping
/// source in before dispatching (see the operand rule in core_model.cpp).
struct KernelTable {
  /// acc[j] += sum_i in[i] * w[i*cols + j] (mod 2^32), weights row-major.
  void (*mvm_accumulate)(std::int32_t* acc, const std::uint8_t* in,
                         const std::int8_t* w, std::int64_t rows, std::int64_t cols);

  // Saturating INT8 elementwise ops (dst may exactly alias a or b).
  void (*add8)(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
               std::int64_t n);
  void (*sub8)(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
               std::int64_t n);
  void (*max8)(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
               std::int64_t n);
  void (*min8)(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
               std::int64_t n);
  void (*relu8)(std::uint8_t* dst, const std::uint8_t* a, std::int64_t n);

  /// dst[i] = saturate_int8(rounding_shift_right(le32(a)[i], shift) + zero).
  void (*quant)(std::uint8_t* dst, const std::uint8_t* a, std::int64_t n,
                int shift, std::int32_t zero);

  // LE-int32 elementwise ops (add32 wraps mod 2^32, like the inline loop).
  void (*add32)(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                std::int64_t n);
  void (*max32)(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                std::int64_t n);
  void (*relu32)(std::uint8_t* dst, const std::uint8_t* a, std::int64_t n);
  void (*deq8to32)(std::uint8_t* dst, const std::uint8_t* a, std::int64_t n);
  void (*add8to32)(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                   std::int64_t n);

  // Pooling row reductions (exec_pool / VEC_ROWSUM32 channel rows).
  /// acc[i] = max(int8(acc[i]), int8(src[i])).
  void (*rowmax8)(std::uint8_t* acc, const std::uint8_t* src, std::int64_t n);
  /// acc[i] += sign_extend(src[i]) (mod 2^32).
  void (*rowadd8_i32)(std::int32_t* acc, const std::uint8_t* src, std::int64_t n);
};

/// "auto", "scalar", "avx2".
const char* to_string(KernelTier tier);

/// Strict parse of the CLI/env spelling; unknown names raise
/// Error(kInvalidArgument) listing the accepted values.
KernelTier tier_from_string(std::string_view text);

/// Whether `tier` can run on this host (kAuto and kScalar always can; kAvx2
/// additionally needs the CPUID probe to pass).
bool tier_available(KernelTier tier);

/// Every concrete tier this host can run, scalar first — the differential
/// test suite and the microbenchmarks iterate this.
std::vector<KernelTier> available_tiers();

/// Resolves a requested tier to a concrete one: kAuto honors the strict
/// CIMFLOW_KERNELS override and otherwise picks the best available tier;
/// explicit requests are validated (an unavailable tier raises
/// Error(kInvalidArgument) naming the knob that asked for it).
KernelTier resolve_tier(KernelTier requested);

/// The registered table of a concrete, available tier (resolve first).
const KernelTable& kernel_table(KernelTier tier);

/// Per-TU tier tables: nullptr when the translation unit was not compiled
/// for the ISA (the stub keeps the link portable; availability additionally
/// gates on the runtime probe).
const KernelTable* avx2_table();

// ---------------------------------------------------------------------------
// Shared scalar bodies. The scalar table is built from these, and the SIMD
// translation units reuse them for ragged tails — one definition guarantees
// tails and the scalar tier can never drift apart.
// ---------------------------------------------------------------------------

inline std::int32_t scalar_load_le32(const std::uint8_t* p) {
  return static_cast<std::int32_t>(
      static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
      (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24));
}

inline void scalar_store_le32(std::uint8_t* p, std::int32_t value) {
  const auto v = static_cast<std::uint32_t>(value);
  p[0] = static_cast<std::uint8_t>(v & 0xFF);
  p[1] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  p[2] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  p[3] = static_cast<std::uint8_t>((v >> 24) & 0xFF);
}

inline void scalar_add8(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                        std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(
        saturate_int8(static_cast<std::int32_t>(static_cast<std::int8_t>(a[i])) +
                      static_cast<std::int8_t>(b[i])));
  }
}

inline void scalar_sub8(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                        std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(
        saturate_int8(static_cast<std::int32_t>(static_cast<std::int8_t>(a[i])) -
                      static_cast<std::int8_t>(b[i])));
  }
}

inline void scalar_max8(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                        std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const auto x = static_cast<std::int8_t>(a[i]);
    const auto y = static_cast<std::int8_t>(b[i]);
    dst[i] = static_cast<std::uint8_t>(x > y ? x : y);
  }
}

inline void scalar_min8(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                        std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const auto x = static_cast<std::int8_t>(a[i]);
    const auto y = static_cast<std::int8_t>(b[i]);
    dst[i] = static_cast<std::uint8_t>(x < y ? x : y);
  }
}

inline void scalar_relu8(std::uint8_t* dst, const std::uint8_t* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const auto x = static_cast<std::int8_t>(a[i]);
    dst[i] = static_cast<std::uint8_t>(x > 0 ? x : std::int8_t{0});
  }
}

inline void scalar_quant(std::uint8_t* dst, const std::uint8_t* a, std::int64_t n,
                         int shift, std::int32_t zero) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t acc = scalar_load_le32(a + 4 * i);
    dst[i] = static_cast<std::uint8_t>(
        saturate_int8(rounding_shift_right(acc, shift) + zero));
  }
}

inline void scalar_add32(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                         std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    scalar_store_le32(dst + 4 * i,
                      static_cast<std::int32_t>(
                          static_cast<std::uint32_t>(scalar_load_le32(a + 4 * i)) +
                          static_cast<std::uint32_t>(scalar_load_le32(b + 4 * i))));
  }
}

inline void scalar_max32(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                         std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t x = scalar_load_le32(a + 4 * i);
    const std::int32_t y = scalar_load_le32(b + 4 * i);
    scalar_store_le32(dst + 4 * i, x > y ? x : y);
  }
}

inline void scalar_relu32(std::uint8_t* dst, const std::uint8_t* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t x = scalar_load_le32(a + 4 * i);
    scalar_store_le32(dst + 4 * i, x > 0 ? x : 0);
  }
}

inline void scalar_deq8to32(std::uint8_t* dst, const std::uint8_t* a, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    scalar_store_le32(dst + 4 * i, static_cast<std::int8_t>(a[i]));
  }
}

inline void scalar_add8to32(std::uint8_t* dst, const std::uint8_t* a,
                            const std::uint8_t* b, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    scalar_store_le32(
        dst + 4 * i,
        static_cast<std::int32_t>(
            static_cast<std::uint32_t>(scalar_load_le32(a + 4 * i)) +
            static_cast<std::uint32_t>(
                static_cast<std::int32_t>(static_cast<std::int8_t>(b[i])))));
  }
}

inline void scalar_rowmax8(std::uint8_t* acc, const std::uint8_t* src, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const auto cur = static_cast<std::int8_t>(acc[i]);
    const auto v = static_cast<std::int8_t>(src[i]);
    if (v > cur) acc[i] = src[i];
  }
}

inline void scalar_rowadd8_i32(std::int32_t* acc, const std::uint8_t* src,
                               std::int64_t n) {
  auto* uacc = reinterpret_cast<std::uint32_t*>(acc);
  for (std::int64_t i = 0; i < n; ++i) {
    uacc[i] += static_cast<std::uint32_t>(
        static_cast<std::int32_t>(static_cast<std::int8_t>(src[i])));
  }
}

}  // namespace cimflow::sim::kernels
