// Pointer-resolved INT8 functional kernels — the bodies of the simulator's
// hot per-element loops, hoisted out of CoreModel so the per-byte address
// routing (check_span + local/global branch per element) happens once per
// instruction instead of once per byte.
//
// `mvm_accumulate` is the MVM kernel: weights stream row-major (contiguous,
// prefetch-friendly), the output column accumulates in a register-resident
// int32 scratch row, zero input bytes skip their whole weight row. It is the
// scalar tier's MVM entry (see kernels_dispatch.hpp), which the SIMD tiers
// are differentially tested against.
//
// Everything here is endian-exact: the simulator's int32 memory format is
// little-endian by definition (the old read_i32/write_i32 swizzle), and the
// row load/store helpers collapse to single memcpys on little-endian hosts
// while staying correct on big-endian ones.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

namespace cimflow::sim::kernels {

/// Loads the simulator's little-endian int32 memory format.
inline std::int32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::big) {
    v = ((v & 0xFF000000u) >> 24) | ((v & 0x00FF0000u) >> 8) |
        ((v & 0x0000FF00u) << 8) | ((v & 0x000000FFu) << 24);
  }
  return static_cast<std::int32_t>(v);
}

inline void store_le32(std::uint8_t* p, std::int32_t value) {
  auto v = static_cast<std::uint32_t>(value);
  if constexpr (std::endian::native == std::endian::big) {
    v = ((v & 0xFF000000u) >> 24) | ((v & 0x00FF0000u) >> 8) |
        ((v & 0x0000FF00u) << 8) | ((v & 0x000000FFu) << 24);
  }
  std::memcpy(p, &v, 4);
}

/// Bulk LE row transfers: one memcpy on little-endian hosts.
void load_le32_row(std::int32_t* dst, const std::uint8_t* src, std::int64_t n);
void store_le32_row(std::uint8_t* dst, const std::int32_t* src, std::int64_t n);

// ---------------------------------------------------------------------------
// MVM
// ---------------------------------------------------------------------------

/// acc[j] += sum_i in[i] * w[i*cols + j], weights streamed row-major. `acc`
/// must hold `cols` int32 accumulators preloaded by the caller (zeros, or the
/// prior psum in accumulate mode). Accumulation is mod 2^32 (unsigned
/// internally — no signed-overflow UB), i.e. an int64 dot product truncated
/// to int32 bit for bit.
void mvm_accumulate(std::int32_t* acc, const std::uint8_t* in, const std::int8_t* w,
                    std::int64_t rows, std::int64_t cols);

}  // namespace cimflow::sim::kernels
