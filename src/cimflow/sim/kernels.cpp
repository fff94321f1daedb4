#include "cimflow/sim/kernels.hpp"

namespace cimflow::sim::kernels {

void load_le32_row(std::int32_t* dst, const std::uint8_t* src, std::int64_t n) {
  if (n == 0) return;  // callers may pass null pointers for empty rows
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, src, static_cast<std::size_t>(n) * 4);
  } else {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = load_le32(src + 4 * i);
  }
}

void store_le32_row(std::uint8_t* dst, const std::int32_t* src, std::int64_t n) {
  if (n == 0) return;  // callers may pass null pointers for empty rows
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, src, static_cast<std::size_t>(n) * 4);
  } else {
    for (std::int64_t i = 0; i < n; ++i) store_le32(dst + 4 * i, src[i]);
  }
}

void mvm_accumulate(std::int32_t* acc, const std::uint8_t* in, const std::int8_t* w,
                    std::int64_t rows, std::int64_t cols) {
  // The row loop streams the weight matrix exactly once, in storage order.
  // All arithmetic is unsigned (wrap-defined); int8*int8 products fit in
  // int32, and the final uint32 value is the mod-2^32 truncation of the
  // exact int64 sum.
  auto* uacc = reinterpret_cast<std::uint32_t*>(acc);
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int32_t x = static_cast<std::int8_t>(in[i]);
    if (x == 0) continue;  // adds nothing — skip the whole weight row
    const std::int8_t* row = w + i * cols;
    for (std::int64_t j = 0; j < cols; ++j) {
      uacc[j] += static_cast<std::uint32_t>(x * static_cast<std::int32_t>(row[j]));
    }
  }
}

}  // namespace cimflow::sim::kernels
