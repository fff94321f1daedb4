// Tier registry and runtime dispatch for the SIMD kernel layer (see
// kernels_dispatch.hpp for the contract). The scalar table is assembled from
// the shared inline bodies; the AVX2 table lives in its own translation
// unit (per-file ISA flags) and registers itself through avx2_table().
#include "cimflow/sim/kernels_dispatch.hpp"

#include <cstdlib>
#include <string>

#include "cimflow/sim/kernels.hpp"
#include "cimflow/support/status.hpp"

namespace cimflow::sim::kernels {

namespace {

const KernelTable kScalarTable = {
    &mvm_accumulate,  // the PR 5 register-blocked row-major kernel
    &scalar_add8,
    &scalar_sub8,
    &scalar_max8,
    &scalar_min8,
    &scalar_relu8,
    &scalar_quant,
    &scalar_add32,
    &scalar_max32,
    &scalar_relu32,
    &scalar_deq8to32,
    &scalar_add8to32,
    &scalar_rowmax8,
    &scalar_rowadd8_i32,
};

/// One CPUID probe per process. __builtin_cpu_supports reads CPUID directly
/// (no OS dependency) and is cheap, but keeping it behind a static makes the
/// "probe once at startup" contract literal.
bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

KernelTier best_available() {
  if (tier_available(KernelTier::kAvx2)) return KernelTier::kAvx2;
  return KernelTier::kScalar;
}

[[noreturn]] void raise_unavailable(KernelTier tier, const char* via) {
  raise(ErrorCode::kInvalidArgument,
        std::string(via) + ": kernel tier '" + to_string(tier) +
            "' is not available on this host (available: scalar" +
            (tier_available(KernelTier::kAvx2) ? ", avx2" : "") + ")");
}

[[noreturn]] void raise_unknown(std::string_view text, const char* via) {
  raise(ErrorCode::kInvalidArgument,
        std::string(via) + ": unknown kernel tier '" + std::string(text) +
            "' (expected auto, scalar, or avx2)");
}

}  // namespace

const char* to_string(KernelTier tier) {
  switch (tier) {
    case KernelTier::kAuto: return "auto";
    case KernelTier::kScalar: return "scalar";
    case KernelTier::kAvx2: return "avx2";
  }
  return "auto";
}

KernelTier tier_from_string(std::string_view text) {
  if (text == "auto") return KernelTier::kAuto;
  if (text == "scalar") return KernelTier::kScalar;
  if (text == "avx2") return KernelTier::kAvx2;
  raise_unknown(text, "kernel tier");
}

bool tier_available(KernelTier tier) {
  switch (tier) {
    case KernelTier::kAuto:
    case KernelTier::kScalar:
      return true;
    case KernelTier::kAvx2:
      return avx2_table() != nullptr && cpu_has_avx2();
  }
  return false;
}

std::vector<KernelTier> available_tiers() {
  std::vector<KernelTier> tiers{KernelTier::kScalar};
  if (tier_available(KernelTier::kAvx2)) tiers.push_back(KernelTier::kAvx2);
  return tiers;
}

KernelTier resolve_tier(KernelTier requested) {
  if (requested == KernelTier::kAuto) {
    // Env override first, strict: a mistyped gate must fail loudly, never
    // silently fall back to some tier (same rule as CIMFLOW_SIM_THREADS).
    const char* env = std::getenv("CIMFLOW_KERNELS");
    if (env != nullptr && *env != '\0') {
      KernelTier parsed = KernelTier::kAuto;
      if (std::string_view(env) == "auto") {
        parsed = KernelTier::kAuto;
      } else if (std::string_view(env) == "scalar") {
        parsed = KernelTier::kScalar;
      } else if (std::string_view(env) == "avx2") {
        parsed = KernelTier::kAvx2;
      } else {
        raise_unknown(env, "CIMFLOW_KERNELS");
      }
      if (parsed != KernelTier::kAuto) {
        if (!tier_available(parsed)) raise_unavailable(parsed, "CIMFLOW_KERNELS");
        return parsed;
      }
    }
    return best_available();
  }
  if (!tier_available(requested)) raise_unavailable(requested, "kernel tier");
  return requested;
}

const KernelTable& kernel_table(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return kScalarTable;
    case KernelTier::kAvx2:
      CIMFLOW_CHECK(tier_available(tier), "avx2 kernel table requested on a non-AVX2 host");
      return *avx2_table();
    case KernelTier::kAuto:
      break;
  }
  raise(ErrorCode::kInvalidArgument,
        "kernel_table needs a concrete tier — resolve_tier(kAuto) first");
}

}  // namespace cimflow::sim::kernels
